"""Synthetic stream generation, slot-saturation attack streams, trace file I/O.

Traces are flat packet sequences, one opaque key per packet. The canonical
key is 8 bytes and is carried as a uint64 array for speed; longer keys (e.g.
13-byte 5-tuples) are carried as raw byte strings. Sketches take a key as a
64-bit flow id (``hashing.flow_id``): a key of at most 8 bytes is its own
id, and :meth:`Trace.as_u64` folds each longer key once, with no seed, so
mixed and concatenated traces hold flow ids.

Binary trace format (``SKTR``), little-endian::

    magic   4 bytes  b"SKTR"
    version u16      1
    key_len u16      bytes per key, >= 1
    records key_len bytes each, back to back
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

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
    """In-memory packet stream; ``keys`` is uint64 when ``key_len <= 8``.

    A key array is only accepted with ``key_len <= 8`` and keys that fit in
    ``key_len`` bytes, so every trace written reads back equal."""

    keys: np.ndarray | list[bytes]
    key_len: int = 8

    def __post_init__(self) -> None:
        if self.key_len < 1:
            raise ValueError("key_len must be at least 1")
        if isinstance(self.keys, np.ndarray):
            if self.key_len > 8:
                raise ValueError("a uint64 key array needs key_len <= 8")
            self.keys = np.ascontiguousarray(self.keys, dtype=np.uint64)
            # every key must fit in key_len bytes, or trace I/O drops its
            # high bytes; at key_len 8 every uint64 fits, so no scan
            if self.key_len < 8 and len(self.keys) and int(self.keys.max()) >> (8 * self.key_len):
                raise ValueError(f"keys wider than key_len={self.key_len} bytes")

    def __len__(self) -> int:
        return len(self.keys)

    def as_u64(self) -> np.ndarray:
        """The flow id of every packet, as a uint64 array: the keys
        themselves up to ``key_len`` 8, each key folded above."""
        return self.keys if isinstance(self.keys, np.ndarray) else u64_keys(self.keys)

    def iter_bytes(self) -> Iterator[bytes]:
        if isinstance(self.keys, np.ndarray):
            kl = self.key_len
            for k in self.keys.tolist():
                yield k.to_bytes(8, "little")[:kl]
        else:
            yield from self.keys

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if self.key_len != other.key_len or len(self) != len(other):
            return False
        if isinstance(self.keys, np.ndarray) and isinstance(other.keys, np.ndarray):
            return bool(np.array_equal(self.keys, other.keys))
        return list(self.iter_bytes()) == list(other.iter_bytes())


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


def _mixed_key_len(a: Trace, b: Trace) -> int:
    """The ``key_len`` of a mix of two traces: it holds flow ids, which fit in
    the wider trace's key width up to 8 bytes and in 8 bytes above."""
    return min(max(a.key_len, b.key_len), 8)


def interleave_traces(a: Trace, b: Trace, seed: int) -> Trace:
    """Uniform random interleaving of two traces, preserving each one's
    internal order; deterministic per seed. The traces may differ in
    ``key_len``: the result holds the flow ids of both (see
    :func:`_mixed_key_len`)."""
    ka, kb = a.as_u64(), b.as_u64()
    labels = np.zeros(len(ka) + len(kb), dtype=np.int8)
    labels[len(ka) :] = 1
    rng = np.random.default_rng(seed)
    rng.shuffle(labels)
    out = np.empty(len(labels), dtype=np.uint64)
    out[labels == 0] = ka
    out[labels == 1] = kb
    return Trace(out, key_len=_mixed_key_len(a, b))


def concat_traces(a: Trace, b: Trace) -> Trace:
    """``a`` then ``b``, as flow ids, whatever their ``key_len``s (see
    :func:`_mixed_key_len`)."""
    return Trace(np.concatenate([a.as_u64(), b.as_u64()]), key_len=_mixed_key_len(a, b))


# -- file I/O ---------------------------------------------------------------


def write_trace(path: str | Path, trace: Trace) -> None:
    with open(path, "wb") as fp:
        fp.write(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, trace.key_len))
        if isinstance(trace.keys, np.ndarray):
            if trace.key_len == 8:
                fp.write(trace.keys.astype("<u8").tobytes())
            else:
                raw = trace.keys.astype("<u8").view(np.uint8).reshape(-1, 8)
                fp.write(np.ascontiguousarray(raw[:, : trace.key_len]).tobytes())
        else:
            for key in trace.keys:
                fp.write(key)


def read_trace(path: str | Path) -> Trace:
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
        return Trace([body[i * key_len : (i + 1) * key_len] for i in range(n)], key_len)
    raw = np.frombuffer(body, dtype=np.uint8).reshape(n, key_len)
    padded = np.zeros((n, 8), dtype=np.uint8)
    padded[:, :key_len] = raw
    return Trace(padded.view("<u8").reshape(n), key_len)
