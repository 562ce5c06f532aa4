"""Synthetic stream generation, slot-saturation attack streams, trace file I/O.

Traces are flat packet sequences of 64-bit flow ids, one per packet, carried
as a uint64 array. A key of at most 8 bytes is its own id; a longer key (a
13-byte 5-tuple, say) is folded once, with no seed, where it enters: by
:func:`~siamsketch.hashing.flow_id` when a :class:`Trace` is built from
``bytes`` keys, and so when :func:`read_trace` reads a file whose records are
wider than 8 bytes. Sketches, mixes, ground truth and trace files all hold
the ids.

A Zipf stream draws one uniform number per packet and inverts the rank CDF
at it. A plain binary search over a CDF of every rank misses the cache on
each step, so :func:`guide_search` first reads the draw's bucket in a guide
table (Chen & Asau 1974; Devroye, *Non-Uniform Random Variate Generation*,
III.2.4), which brackets the answer to the few ranks whose CDF falls in that
bucket, and bisects only there. Its buckets are a power of two in number, so
scaling a CDF value or a draw to its bucket is exact, and the ranks are those
of ``np.searchsorted`` bit for bit.

Binary trace format (``SKTR``), little-endian::

    magic   4 bytes  b"SKTR"
    version u16      1
    key_len u16      bytes per record: 8 in a written trace; a reader
                     accepts any width of at least 1
    records key_len bytes each, back to back
"""

from __future__ import annotations

import ctypes
import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _kernel
from .analysis import coupon_expect
from .hashing import MASK64, hash_batch, hash_u64, u64_keys

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
    folds each ``bytes`` key through ``flow_id`` and rejects other keys
    (floats, strings) with TypeError. An integer key is its own id, so one
    outside [0, 2**64) raises ValueError rather than being masked into
    another flow's id, and a bool raises TypeError, as a bool array does; a
    uint64 array is taken unscanned. :func:`write_trace` writes each id in 8
    bytes, so every trace written reads back equal."""

    keys: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.keys, (Sequence, np.ndarray)):
            self.keys = list(self.keys)  # the check below must see every key
        _reject_out_of_range(self.keys)
        self.keys = u64_keys(self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def as_u64(self) -> np.ndarray:
        """The flow id of every packet: ``keys``, under the name the
        benchmark harness reads."""
        return self.keys

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return bool(np.array_equal(self.keys, other.keys))


def _reject_out_of_range(keys: Sequence[int | bytes] | np.ndarray) -> None:
    """ValueError if an integer key lies outside [0, 2**64), TypeError if a
    key is a bool; only a signed array or a sequence of keys can hold one."""
    if isinstance(keys, np.ndarray) and keys.dtype != object:
        if keys.dtype.kind == "i" and len(keys) > 0 and int(keys.min()) < 0:
            raise ValueError("integer keys must lie in [0, 2**64)")
        return
    for k in keys:
        if isinstance(k, bool):
            raise TypeError("keys must be integers or bytes, not bool")
        if not isinstance(k, bytes) and not 0 <= operator.index(k) <= MASK64:
            raise ValueError("integer keys must lie in [0, 2**64)")


@dataclass(frozen=True)
class ZipfConfig:
    """Zipf-distributed stream: ``P(rank k) ~ k**-skew`` over ``flows`` ranks,
    each rank a 64-bit flow id."""

    skew: float
    flows: int
    packets: int
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.skew) and self.skew >= 0):
            raise ValueError("skew must be finite and non-negative")
        if self.flows < 1:
            raise ValueError("flows must be at least 1")
        if self.packets < 0:
            raise ValueError("packets must be non-negative")


_FLOW_SALT = 0x5A1F_0000

# Draws searched, and packets interleaved, per step: it bounds each step's
# index and mask arrays to 512 KB, which stay in cache and keep a 1.23 M-packet
# attack mix from allocating stream-sized index arrays on top of the stream.
_CHUNK = 1 << 16


def flow_key(rank: int, seed: int) -> int:
    """Stable 64-bit key of a flow rank within one stream's key space."""
    return hash_u64(rank, seed ^ _FLOW_SALT)


def guide_search(cdf: np.ndarray, draws: np.ndarray, buckets: int) -> np.ndarray:
    """``np.searchsorted(cdf, draws, side="right")``, the first ``i`` with
    ``cdf[i] > u`` for each draw ``u``, found through a guide table of
    ``buckets`` buckets. ``cdf`` is non-decreasing and ends at 1.0, every draw
    lies in [0, 1), and ``buckets`` is a power of two.

    Why the bracket holds: multiplying by a power of two ``m`` is exact, so
    ``bucket(x) = floor(x * m)`` is exact and, as rounding is monotone, never
    decreasing in ``x``. Let ``g[k]`` count the ``i`` with
    ``bucket(cdf[i]) <= k``, and ``g[-1] = 0``; ``cdf`` is sorted, so those
    are its first ``g[k]`` entries. A draw ``u`` has ``b = bucket(u)``. Every
    ``i`` below ``g[b-1]`` has ``bucket(cdf[i]) < b``, hence ``cdf[i] < u``;
    and ``i = g[b]``, where it exists, has ``bucket(cdf[i]) > b``, hence
    ``cdf[i] > u``. So the answer lies in ``[g[b-1], g[b]]``. It is never
    ``len(cdf)``, as ``bucket(cdf[-1]) = m > b``.

    Draws are searched a chunk at a time. Within a chunk each pass bisects
    every bracket still open and then drops the ones that closed, so the
    number of numpy passes is log2 of the widest bracket, not its width.
    Building the table costs one pass over ``cdf`` and one over
    ``buckets + 2`` counts.
    """
    m = buckets
    bucket = np.empty(len(cdf), dtype=np.intp)
    np.multiply(cdf, m, out=bucket, casting="unsafe")  # truncation is floor here
    bucket += 1  # so the counts below start with g[-1] = 0
    edges = np.bincount(bucket, minlength=m + 2)
    np.cumsum(edges, out=edges)  # edges[k] is g[k - 1]
    ranks = np.empty(len(draws), dtype=np.intp)
    for start in range(0, len(draws), _CHUNK):
        u = draws[start : start + _CHUNK]
        found = ranks[start : start + _CHUNK]
        b = (u * m).astype(np.intp)
        found[:] = edges[b]
        hi = edges[1:][b]
        open_ = np.flatnonzero(found < hi)
        lo, hi, u = found[open_], hi[open_], u[open_]
        while len(open_):
            mid = (lo + hi) >> 1
            above = cdf[mid] > u
            np.copyto(hi, mid, where=above)
            mid += 1
            np.copyto(lo, mid, where=~above)
            found[open_] = lo
            keep = lo < hi
            open_, lo, hi, u = open_[keep], lo[keep], hi[keep], u[keep]
    return ranks


def gen_zipf(cfg: ZipfConfig) -> Trace:
    """Deterministic Zipf stream; rank 1 is the most frequent flow.

    Each packet draws one uniform number, and its rank is the first whose CDF
    exceeds the draw, found by :func:`guide_search`, so equal seeds give
    byte-identical streams. The guide table has the power of two at or above
    ``min(flows, packets)`` buckets, so it is never twice as long as the
    draws or the CDF, and a long CDF sampled a few times builds a short
    table. The flow id of rank ``r`` is ``flow_key(r, cfg.seed)``, all ranks
    hashed in one :func:`~siamsketch.hashing.hash_batch` call.
    """
    weights = np.arange(1, cfg.flows + 1, dtype=np.float64) ** -cfg.skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    rng = np.random.default_rng(cfg.seed)
    draws = rng.random(cfg.packets)
    ranks = guide_search(cdf, draws, 1 << max(min(cfg.flows, cfg.packets) - 1, 0).bit_length())
    rank_keys = hash_batch(np.arange(1, cfg.flows + 1, dtype=np.uint64), cfg.seed ^ _FLOW_SALT)
    return Trace(rank_keys[ranks])


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
    both.

    The stream is defined by a shuffle: ``len(a)`` labels 0, then ``len(b)``
    labels 1, shuffled by ``np.random.default_rng(seed).shuffle``, and the
    mix takes the next key of ``a`` at each 0 and of ``b`` at each 1. numpy
    2.4 shuffles a 1-d array by a Fisher-Yates walk from the last index down
    to 1 that swaps index ``i`` with ``random_interval(i)``: a draw masked to
    the smallest all-ones value at or above ``i``, redrawn while above ``i``,
    each draw a ``next_uint32`` while ``i < 2**32``. The kernel library's
    ``interleave`` makes that walk and fills the mix in one pass, calling the
    generator's own ``next_uint32`` on its own state through
    ``BitGenerator.ctypes``, so it gives the same mix and leaves the
    generator where ``shuffle`` leaves it. It runs for mixes of at most
    2**32 packets, where every draw is a ``next_uint32``; a longer mix, or a
    machine without the library, takes ``rng.shuffle`` and a windowed
    scatter. numpy does not promise stable ``Generator`` streams across
    versions: if it changes the shuffle, the test that compares the kernel
    with ``rng.shuffle`` fails together with the golden stream digests,
    which depend on the shuffle whichever path made them."""
    n = len(a) + len(b)
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=np.uint64)
    lib = _kernel.load()
    if lib is not None and n <= 1 << 32:
        keys_a, keys_b = u64_keys(a.keys), u64_keys(b.keys)
        labels = np.empty(n, dtype=np.uint8)
        bitgen = rng.bit_generator.ctypes
        next_uint32 = ctypes.cast(bitgen.next_uint32, ctypes.c_void_p)
        lib.interleave(
            keys_a.ctypes.data, len(keys_a), keys_b.ctypes.data, len(keys_b),
            bitgen.state_address, next_uint32, labels.ctypes.data, out.ctypes.data,
        )
        return Trace(out)
    from_b = np.zeros(n, dtype=np.bool_)
    from_b[len(a) :] = True
    rng.shuffle(from_b)  # the shuffle defines the stream
    taken_b = 0  # keys of b placed so far; the rest of out[:start] came from a
    for start in range(0, len(out), _CHUNK):
        here = from_b[start : start + _CHUNK]
        window = out[start : start + _CHUNK]
        at_b = np.flatnonzero(here)
        window[at_b] = b.keys[taken_b : taken_b + len(at_b)]
        taken_a = start - taken_b
        window[np.flatnonzero(~here)] = a.keys[taken_a : taken_a + len(here) - len(at_b)]
        taken_b += len(at_b)
    return Trace(out)


def concat_traces(a: Trace, b: Trace) -> Trace:
    """The flow ids of ``a``, then those of ``b``."""
    return Trace(np.concatenate([a.keys, b.keys]))


# -- file I/O ---------------------------------------------------------------


def write_trace(path: str | Path, trace: Trace) -> None:
    """``trace`` to the file at ``path``, each flow id in 8 bytes."""
    with open(path, "wb") as fp:
        fp.write(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, 8))
        fp.write(trace.keys.astype("<u8", copy=False).tobytes())


def read_trace(path: str | Path) -> Trace:
    """The trace in the file at ``path``, whatever its ``key_len``. Records
    of at most 8 bytes are their own flow ids, zero-padded; wider records are
    each folded once (``flow_id``)."""
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
    return Trace(padded.view("<u8").reshape(n))
