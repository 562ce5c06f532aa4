"""Synthetic stream generation, slot-saturation attack streams, trace file I/O.

Traces are flat packet sequences of 64-bit flow ids, one per packet, carried
as a uint64 array. A key of at most 8 bytes is its own id; a longer key (a
13-byte 5-tuple, say) is folded once, with no seed, where it enters: by
:func:`~siamsketch.hashing.flow_id` when a :class:`Trace` is built from
``bytes`` keys, and so when :func:`read_trace` reads a file whose records are
wider than 8 bytes. Sketches, mixes and ground truth all read the ids.

Binary trace format (``SKTR``), little-endian::

    magic   4 bytes  b"SKTR"
    version u16      1
    key_len u16      bytes per key, >= 1 (a written trace has at most 8)
    records key_len bytes each, back to back
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import coupon_expect
from .hashing import hash_batch, hash_u64, u64_keys

TRACE_MAGIC = b"SKTR"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sHH")

SEQUENTIAL = "sequential"
ROUND_ROBIN = "round-robin"


class TraceError(Exception):
    """Trace file violates the format; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class Trace:
    """In-memory packet stream. ``keys`` is a contiguous uint64 array of flow
    ids, whatever it is built from: :func:`~siamsketch.hashing.u64_keys`
    masks integers to 64 bits, folds each ``bytes`` key through ``flow_id``
    and rejects other keys (floats, strings) with TypeError.

    ``key_len`` is the bytes per key a file holds, in [1, 8], and every id
    must fit in it, so every trace written reads back equal."""

    keys: np.ndarray
    key_len: int = 8

    def __post_init__(self) -> None:
        if not 1 <= self.key_len <= 8:
            raise ValueError(f"key_len must satisfy 1 <= key_len <= 8, not {self.key_len}")
        self.keys = u64_keys(self.keys)
        # every key must fit in key_len bytes, or trace I/O drops its
        # high bytes; at key_len 8 every uint64 fits, so no scan
        if self.key_len < 8 and len(self.keys) and int(self.keys.max()) >> (8 * self.key_len):
            raise ValueError(f"keys wider than key_len={self.key_len} bytes")

    def __len__(self) -> int:
        return len(self.keys)

    def as_u64(self) -> np.ndarray:
        """The flow id of every packet: ``keys``, under the name the
        benchmark harness reads."""
        return self.keys

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.key_len == other.key_len and bool(np.array_equal(self.keys, other.keys))


@dataclass(frozen=True)
class ZipfConfig:
    """Zipf-distributed stream: ``P(rank k) ~ k**-skew`` over ``flows`` ranks,
    with keys of ``key_len`` bytes, at most 8."""

    skew: float
    flows: int
    packets: int
    seed: int
    key_len: int = 8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.skew) and self.skew >= 0):
            raise ValueError("skew must be finite and non-negative")
        if not 1 <= self.key_len <= 8:
            raise ValueError("key_len must be in [1, 8]")
        if self.flows < 1:
            raise ValueError("flows must be at least 1")
        if self.packets < 0:
            raise ValueError("packets must be non-negative")


_FLOW_SALT = 0x5A1F_0000


def flow_key(rank: int, seed: int) -> int:
    """Stable 64-bit key of a flow rank within one stream's key space."""
    return hash_u64(rank, seed ^ _FLOW_SALT)


def gen_zipf(cfg: ZipfConfig) -> Trace:
    """Deterministic Zipf stream; rank 1 is the most frequent flow.

    Sampling inverts a precomputed CDF, so equal seeds give byte-identical
    streams. The key of rank ``r`` is ``flow_key(r, cfg.seed)``, all ranks
    hashed in one :func:`~siamsketch.hashing.hash_batch` call, cut to its low
    ``key_len`` bytes as :func:`read_trace` reads a short key back; shorter
    keys can make distinct ranks one flow.
    """
    weights = np.arange(1, cfg.flows + 1, dtype=np.float64) ** -cfg.skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    rng = np.random.default_rng(cfg.seed)
    draws = rng.random(cfg.packets)
    ranks = np.searchsorted(cdf, draws, side="right")
    np.minimum(ranks, cfg.flows - 1, out=ranks)
    rank_keys = hash_batch(np.arange(1, cfg.flows + 1, dtype=np.uint64), cfg.seed ^ _FLOW_SALT)
    rank_keys &= np.uint64((1 << 8 * cfg.key_len) - 1)
    return Trace(rank_keys[ranks], key_len=cfg.key_len)


@dataclass(frozen=True)
class AttackPlan:
    """Sizing of a slot-saturation stream against a table of ``width`` slots.

    The attacker aims at a ``fraction`` of the slots; flows land uniformly,
    so reaching ``targets`` distinct slots costs ``expected_flows`` random
    flows in expectation (coupon collecting). Each flow carries
    ``packets_per_flow`` packets, enough to overflow one small counter.
    """

    width: int
    fraction: float
    targets: int
    expected_flows: float
    flows: int
    packets_per_flow: int = 256
    interleave: str = SEQUENTIAL

    @property
    def packets(self) -> int:
        return self.flows * self.packets_per_flow


def plan_attack(
    width: int,
    fraction: float,
    packets_per_flow: int = 256,
    interleave: str = SEQUENTIAL,
) -> AttackPlan:
    if width < 1:
        raise ValueError("width must be positive")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if packets_per_flow < 1:
        raise ValueError("packets_per_flow must be positive")
    if interleave not in (SEQUENTIAL, ROUND_ROBIN):
        raise ValueError(f"unknown interleave mode {interleave!r}")
    targets = round(width * fraction)
    expected = coupon_expect(width, targets)
    return AttackPlan(
        width=width,
        fraction=fraction,
        targets=targets,
        expected_flows=expected,
        flows=math.ceil(expected),
        packets_per_flow=packets_per_flow,
        interleave=interleave,
    )


def gen_attack(plan: AttackPlan, seed: int) -> Trace:
    """Attack stream: ``plan.flows`` distinct random keys, repeated.

    Keys are uniform random 64-bit values; the attacker knows the table width
    but not the hash seeds, so no placement targeting happens here.
    """
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 64, size=plan.flows, dtype=np.uint64)
    while len(np.unique(keys)) < plan.flows:
        keys = np.unique(keys)
        extra = rng.integers(0, 1 << 64, size=plan.flows - len(keys), dtype=np.uint64)
        keys = np.concatenate([keys, extra])
    if plan.interleave == ROUND_ROBIN:
        stream = np.tile(keys, plan.packets_per_flow)
    else:
        stream = np.repeat(keys, plan.packets_per_flow)
    return Trace(stream)


def interleave_traces(a: Trace, b: Trace, seed: int) -> Trace:
    """Uniform random interleaving of two traces, preserving each one's
    internal order; deterministic per seed. The result holds the flow ids of
    both, at the wider ``key_len`` of the two."""
    labels = np.zeros(len(a) + len(b), dtype=np.int8)
    labels[len(a) :] = 1
    rng = np.random.default_rng(seed)
    rng.shuffle(labels)
    out = np.empty(len(labels), dtype=np.uint64)
    out[labels == 0] = a.keys
    out[labels == 1] = b.keys
    return Trace(out, key_len=max(a.key_len, b.key_len))


def concat_traces(a: Trace, b: Trace) -> Trace:
    """``a`` then ``b``, at the wider ``key_len`` of the two."""
    return Trace(np.concatenate([a.keys, b.keys]), key_len=max(a.key_len, b.key_len))


# -- file I/O ---------------------------------------------------------------


def write_trace(path: str | Path, trace: Trace) -> None:
    raw = trace.keys.astype("<u8").view(np.uint8).reshape(-1, 8)
    with open(path, "wb") as fp:
        fp.write(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, trace.key_len))
        fp.write(np.ascontiguousarray(raw[:, : trace.key_len]).tobytes())


def read_trace(path: str | Path) -> Trace:
    """The trace in the file at ``path``. Records of at most 8 bytes are
    their own flow ids; wider records are each folded once (``flow_id``) and
    read back as a trace at ``key_len`` 8."""
    with open(path, "rb") as fp:
        header = fp.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceError("bad-header", f"{path}: header truncated")
        magic, version, key_len = _HEADER.unpack(header)
        if magic != TRACE_MAGIC:
            raise TraceError("bad-magic", f"{path}: not a trace file")
        if version != TRACE_VERSION:
            raise TraceError("bad-version", f"{path}: unsupported version {version}")
        if key_len < 1:
            raise TraceError("bad-header", f"{path}: key_len must be positive")
        body = fp.read()
    if len(body) % key_len:
        raise TraceError(
            "truncated-record",
            f"{path}: {len(body)} body bytes is not a multiple of key_len {key_len}",
        )
    n = len(body) // key_len
    if key_len > 8:
        return Trace([body[i * key_len : (i + 1) * key_len] for i in range(n)])
    raw = np.frombuffer(body, dtype=np.uint8).reshape(n, key_len)
    padded = np.zeros((n, 8), dtype=np.uint8)
    padded[:, :key_len] = raw
    return Trace(padded.view("<u8").reshape(n), key_len)
