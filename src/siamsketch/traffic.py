"""Synthetic stream generation, slot-saturation attack streams, trace file I/O.

Traces are flat packet sequences of 64-bit flow ids, one per packet, carried
as a uint64 array. Here, and nowhere else, a key becomes a flow id: an
integer is its own, and a ``bytes`` key (a 13-byte 5-tuple, say) is folded
by :func:`flow_id` once, with no seed, as a :class:`Trace` is built from it
or :func:`read_trace` reads it. Sketches, whose entry points take ids only,
mixes, ground truth and trace files all hold the ids.

A Zipf stream draws one uniform number per packet and inverts the rank CDF
at it. A plain binary search over a CDF of every rank misses the cache on
each step, so :func:`guide_search` first reads the draw's bucket in a guide
table (Chen & Asau 1974; Devroye, *Non-Uniform Random Variate Generation*,
III.2.4), which brackets the answer to the few ranks whose CDF falls in that
bucket, and bisects only there. The kernel library builds the table in one
pass over the CDF and searches every draw in one pass over the draws. Its
buckets are a power of two in number, so comparing a CDF value or a draw
with a bucket edge is exact, and the ranks are those of ``np.searchsorted``
bit for bit; without the library they are ``np.searchsorted``'s own.

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
import struct
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from . import _kernel
from .analysis import coupon_expect
from .hashing import MASK64, WIDTH, hash_batch, mix64, u64_keys
from .rules import Choice, Int, Real, Rules, SpecError, checked

TRACE_MAGIC = b"SKTR"
TRACE_VERSION = 1
_HEADER = struct.Struct("<4sHH")

SEQUENTIAL = "sequential"
ROUND_ROBIN = "round-robin"

# A flow id; a Python int key is its own.
_KEY = Int(0, MASK64)

# Every seed from 0 up, 2**64 and above included; np.random.default_rng
# refuses a negative one too, naming no field.
SEED = Int(0)

# The most items of 8 bytes one numpy array holds: a count of packets or
# flows above it could never be generated.
_MAX_LEN = np.iinfo(np.intp).max // 8


# The longest stream gen_attack generates, a plan-size rule rather than what
# a given machine holds: its keys take 8 bytes a packet, 32 GiB at the bound,
# so a plan under it can still fail to allocate. It refuses a plan no machine
# holds, such as a fully targeted row of 2**32 - 1 slots, whose 9.8e10 flows'
# ids alone would fill 728 GiB.
MAX_ATTACK_PACKETS = 1 << 32


class TraceError(Exception):
    """Trace file violates the format; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def flow_id(key: bytes) -> int:
    """The 64-bit flow id of a key of any length, with no seed. A key of at
    most 8 bytes is its little-endian value, so it places exactly as that
    integer does. A longer key (a 13-byte 5-tuple, say) is folded once,
    ``mix64`` over its length and then over each 8-byte word, and every row
    hashes the fold.

    The fold can give two flows one id, which then count as one flow. For
    ``n`` distinct wide keys the chance that any two collide is about
    ``n**2 / 2**65``: about 7e-9 at 500k flows.
    """
    if len(key) <= 8:
        return int.from_bytes(key, "little")
    h = mix64(len(key))
    for off in range(0, len(key), 8):
        h = mix64(h ^ int.from_bytes(key[off : off + 8], "little"))
    return h


@dataclass
class Trace:
    """In-memory packet stream. ``keys`` is a contiguous uint64 array of flow
    ids, whatever it is built from. An integer array is cast (a uint64 one
    taken unscanned); any other collection is read in one pass that folds
    each ``bytes`` key to its :func:`flow_id` and keeps each integer as its
    own id. An integer outside [0, 2**64) raises ValueError rather than being
    masked into another flow's id; a bool, a float or a string, alone or as
    an array's dtype, and one ``bytes`` object given as the whole collection
    raise TypeError. :func:`write_trace` writes each id in 8 bytes, so every
    trace written reads back equal."""

    keys: np.ndarray

    def __post_init__(self) -> None:
        keys = self.keys
        if isinstance(keys, (bytes, bytearray)):
            raise TypeError("keys must be a collection of keys, not one bytes object")
        if isinstance(keys, np.ndarray) and keys.dtype != object:
            if keys.dtype.kind == "i" and len(keys) > 0 and int(keys.min()) < 0:
                raise ValueError("integer keys must lie in [0, 2**64)")
        else:
            keys = [flow_id(k) if isinstance(k, bytes) else _KEY.check("keys", k) for k in keys]
        self.keys = u64_keys(keys)

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


@checked
@dataclass(frozen=True)
class ZipfConfig:
    """Zipf-distributed stream: ``P(rank k) ~ k**-skew`` over ``flows`` ranks,
    each rank a 64-bit flow id. Each field declares its rule."""

    skew: float = Real(0).field()
    flows: int = Int(1, _MAX_LEN).field()
    packets: int = Int(0, _MAX_LEN).field()
    seed: int = SEED.field()

    def __post_init__(self) -> None:
        self.RULES.apply(self)


_FLOW_SALT = 0x5A1F_0000


def guide_search(cdf: np.ndarray, draws: np.ndarray, buckets: int) -> np.ndarray:
    """``np.searchsorted(cdf, draws, side="right")``, the first ``i`` with
    ``cdf[i] > u`` for each draw ``u``, found through a guide table of
    ``buckets`` buckets. ``cdf`` is non-decreasing, every draw lies in
    [0, 1), and ``buckets`` is a power of two; a draw outside [0, 1), NaN
    included, or any other ``buckets`` raises ValueError naming it. A ``cdf``
    that is not sorted gives wrong ranks, but each still lies in
    ``[0, len(cdf)]`` and the search reads nothing outside ``cdf``.

    Why the bracket holds: multiplying by a power of two ``m`` is exact, so
    ``x * m < k`` compares ``x`` with ``k / m`` exactly. Let ``g[k]`` count
    the ``i`` with ``cdf[i] * m < k``; ``cdf`` is sorted, so those are its
    first ``g[k]`` entries. A draw ``u`` lies in bucket ``b``, ``u * m``
    truncated, so ``b <= u * m < b + 1``. Every ``i`` below ``g[b]`` has
    ``cdf[i] * m < b``, hence ``cdf[i] < u``; and ``i = g[b + 1]``, where it
    exists, has ``cdf[i] * m >= b + 1``, hence ``cdf[i] > u``. So the answer
    lies in ``[g[b], g[b + 1]]``.

    The kernel library's ``guide_search`` builds the ``buckets + 1`` counts
    in one pass over ``cdf`` and bisects each draw's bracket in one pass over
    the draws, in which it also checks each draw's range. Without the library
    the ranks are ``np.searchsorted``'s own.
    """
    m = buckets
    if isinstance(m, bool) or not isinstance(m, Integral) or m < 1 or m & (m - 1):
        raise ValueError(f"buckets must be a power of two, at least 1, not {buckets!r}")
    cdf = np.ascontiguousarray(cdf, dtype=np.float64)
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    lib = _kernel.load()
    if lib is None:
        bad = np.flatnonzero(~((draws >= 0.0) & (draws < 1.0)))
        first = bad[0] if len(bad) else len(draws)
        ranks = np.searchsorted(cdf, draws, side="right")
    else:
        edges = np.empty(int(m) + 1, dtype=np.int64)
        ranks = np.empty(len(draws), dtype=np.int64)
        first = lib.guide_search(
            cdf.ctypes.data, len(cdf), draws.ctypes.data, len(draws), int(m),
            edges.ctypes.data, ranks.ctypes.data,
        )
    if first < len(draws):
        raise ValueError(f"draws must lie in [0, 1): draws[{first}] is {draws[first]!r}")
    return ranks


def gen_zipf(cfg: ZipfConfig) -> Trace:
    """Deterministic Zipf stream; rank 1 is the most frequent flow.

    Each packet draws one uniform number, and its rank is the first whose CDF
    exceeds the draw, found by :func:`guide_search` in the kernel library (by
    ``np.searchsorted`` without it, with the same ranks), so equal seeds give
    byte-identical streams. The guide table has the power of two at or above
    ``min(flows, packets)`` buckets, so it is never twice as long as the
    draws or the CDF, and a long CDF sampled a few times builds a short
    table. The flow id of rank ``r`` is ``hash_u64(r, cfg.seed ^ _FLOW_SALT)``,
    all ranks hashed in one :func:`~siamsketch.hashing.hash_batch` call.
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


# the table attacked is a sketch row
_PLAN = Rules(
    width=WIDTH,
    fraction=Real(0, 1),
    packets_per_flow=Int(1, _MAX_LEN),
    interleave=Choice((SEQUENTIAL, ROUND_ROBIN)),
)


def plan_attack(
    width: int,
    fraction: float,
    packets_per_flow: int = 256,
    interleave: str = SEQUENTIAL,
) -> AttackPlan:
    width, fraction, packets_per_flow, interleave = _PLAN.args(
        width=width, fraction=fraction, packets_per_flow=packets_per_flow, interleave=interleave
    )
    targets = round(width * fraction)
    expected = coupon_expect(width, targets)
    flows = math.ceil(expected)
    if flows * packets_per_flow > _MAX_LEN:
        raise SpecError("packets_per_flow", f"packets_per_flow must be at most {_MAX_LEN // flows}")
    return AttackPlan(
        width=width,
        fraction=fraction,
        targets=targets,
        expected_flows=expected,
        flows=flows,
        packets_per_flow=packets_per_flow,
        interleave=interleave,
    )


def gen_attack(plan: AttackPlan, seed: int) -> Trace:
    """Attack stream: ``plan.flows`` distinct random keys, repeated.

    Keys are uniform random 64-bit values; the attacker knows the table width
    but not the hash seeds, so no placement targeting happens here. A plan of
    more than ``MAX_ATTACK_PACKETS`` packets is refused before anything is
    allocated, naming ``fraction`` when its flows alone are too many, else
    ``packets_per_flow``.
    """
    seed = SEED.check("seed", seed)
    if plan.packets > MAX_ATTACK_PACKETS:
        stream = (
            f"an attack stream of {plan.flows} flows x {plan.packets_per_flow} packets "
            f"exceeds {MAX_ATTACK_PACKETS} packets"
        )
        if plan.flows > MAX_ATTACK_PACKETS:
            raise SpecError("fraction", f"{stream}: fraction {plan.fraction} targets too many "
                            f"of {plan.width} slots")
        raise SpecError("packets_per_flow", f"{stream}: packets_per_flow must be at most "
                        f"{MAX_ATTACK_PACKETS // plan.flows}")
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
    machine without the library, is made by the definition itself:
    ``rng.shuffle`` of the labels, then ``a`` scattered to the 0s and ``b``
    to the 1s through boolean masks. numpy does not promise stable
    ``Generator`` streams across versions: if it changes the shuffle, the
    test that compares the kernel with ``rng.shuffle`` fails together with
    the golden stream digests, which depend on the shuffle whichever path
    made them."""
    seed = SEED.check("seed", seed)
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
    out[~from_b] = a.keys
    out[from_b] = b.keys
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
    each folded once, by :func:`flow_id`, straight into the trace's ids."""
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
        ids = (flow_id(body[off : off + key_len]) for off in range(0, len(body), key_len))
        return Trace(np.fromiter(ids, dtype=np.uint64, count=n))
    padded = np.zeros((n, 8), dtype=np.uint8)
    padded[:, :key_len] = np.frombuffer(body, dtype=np.uint8).reshape(n, key_len)
    return Trace(padded.view("<u8").reshape(n))
