"""Seeded 64-bit mixing, row indexing, and the front door of every sketch.

All sketches obtain slot indices from this module so that cross-scheme
comparisons use identical placements: one seed per row, one reduction per
table width. Reduction takes the high bits of ``hash * width`` instead of a
modulo, which stays bias-free for widths that are not powers of two.

Placement has two implementations: the scalar :class:`RowHasher`, which is
the specification and serves the per-key entry points, and the C kernel
library's ``place`` (``_encode.c``, loaded by ``_kernel``) behind
:func:`index_batch`, which falls back to the scalar one without a compiler.

:class:`RowSketch` is the base of every scheme. It owns the row seeds and
hashers, the packet total, and the entry points (``encode``, ``query``
and their ``u64`` forms, ``encode_stream``, ``query_many``, ``slot_of``); a
scheme supplies only what one slot does with a packet and what it reads
back, per slot and per row. ``query_many`` reads a decoded-row table: each
row is decoded once, whatever the number of keys.
"""

from __future__ import annotations

import operator
from array import array
from typing import Sequence

import numpy as np

from . import _kernel

MASK64 = (1 << 64) - 1

# Packets placed and counted per step of ``RowSketch.encode_stream``. Both
# kernel passes, placement and encode, make one pass over a chunk whatever its
# size, so the size only bounds the chunk's int64 index array (8 bytes per
# packet, 512 KB here). On a 1.23 M-packet attacked stream (3 x 4096 slots,
# sc-lsb, best of 15, two sweeps on a 2-core x86-64 host), chunks of 8k
# packets up to the whole stream took 0.044 to 0.054 s in no steady order.
ENCODE_CHUNK = 1 << 16

_PHI = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED_TWEAK = 0x6A09E667F3BCC909


def mix64(value: int) -> int:
    """Finalizing avalanche over 64 bits."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def seed_state(seed: int) -> int:
    """Whitened per-seed constant; distinct seeds give unrelated hash streams."""
    return mix64((seed * _PHI + _SEED_TWEAK) & MASK64)


def hash_u64(key: int, seed: int) -> int:
    """64-bit hash of an 8-byte key under a seed."""
    return mix64((key & MASK64) ^ seed_state(seed))


def hash_bytes(key: bytes, seed: int) -> int:
    """64-bit hash of an arbitrary-length key under a seed.

    Keys of at most 8 bytes hash identically to their little-endian integer
    value through :func:`hash_u64`; longer keys are folded 8 bytes at a time.
    """
    if len(key) <= 8:
        return hash_u64(int.from_bytes(key, "little"), seed)
    h = seed_state(seed) ^ mix64(len(key))
    for off in range(0, len(key), 8):
        h = mix64(h ^ int.from_bytes(key[off : off + 8], "little"))
    return h


def reduce_to_width(hash64: int, width: int) -> int:
    """Map a 64-bit hash to ``[0, width)`` by multiply-shift."""
    return (hash64 * width) >> 64


def derive_seeds(master: int, count: int) -> tuple[int, ...]:
    """Deterministic per-row seeds from one master seed."""
    return tuple(hash_u64(0x52_4F_57 + r, master) for r in range(count))


class RowHasher:
    """One row's placement function: ``key -> slot in [0, width)``."""

    __slots__ = ("seed", "width", "_state")

    def __init__(self, seed: int, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.seed = seed
        self.width = width
        self._state = seed_state(seed)

    def index(self, key: bytes) -> int:
        if len(key) <= 8:
            return (mix64(int.from_bytes(key, "little") ^ self._state) * self.width) >> 64
        return reduce_to_width(hash_bytes(key, self.seed), self.width)

    def index_u64(self, key: int) -> int:
        return (mix64((key & MASK64) ^ self._state) * self.width) >> 64


def u64_keys(keys: Sequence[int] | np.ndarray) -> np.ndarray:
    """Integer keys as a contiguous uint64 array, each masked to 64 bits as
    ``encode_u64`` and ``query_u64`` mask it. Keys that are not integers
    raise TypeError: anything but an int in a sequence (``bytes``, a float),
    and an array whose dtype is not an integer one (float, complex, string)."""
    if isinstance(keys, np.ndarray) and keys.dtype != object:
        if keys.dtype.kind not in "iu":
            raise TypeError(f"keys must be integers, not {keys.dtype}")
        return np.ascontiguousarray(keys, dtype=np.uint64)
    try:
        return np.frombuffer(array("Q", keys), dtype=np.uint64)
    except OverflowError:
        return np.array([operator.index(k) & MASK64 for k in keys], dtype=np.uint64)


def index_batch(keys: np.ndarray, seed: int, width: int) -> np.ndarray:
    """The slot of every key (see :func:`u64_keys`) in a row of ``width``
    slots hashed with ``seed``, as an int64 array: ``RowHasher(seed,
    width).index_u64`` of each key, exactly. The kernel library's ``place``
    computes it; where the library cannot be built, every key goes through
    the scalar ``index_u64``, after the loader's one ``RuntimeWarning``."""
    if not 0 < width <= 1 << 32:
        raise ValueError("width must be in [1, 2**32]")
    keys = u64_keys(keys)
    lib = _kernel.load()
    if lib is None:
        index = RowHasher(seed, width).index_u64
        return np.array([index(k) for k in keys.tolist()], dtype=np.int64)
    out = np.empty(len(keys), dtype=np.int64)
    lib.place(keys.ctypes.data, len(keys), seed_state(seed), width, out.ctypes.data)
    return out


class RowSketch:
    """Count-Min-shaped front door: one slot per row, minimum over rows.

    A scheme supplies the per-slot pair ``_encode(row, slot)`` (count one
    packet) and ``_decode(row, slot)`` (the value the slot resolves to), which
    are its specification, and their whole-row forms: ``_encode_batch(row,
    slots)`` counts a chunk of packets in stream order exactly as ``_encode``
    would one by one, and ``_decode_row(row)`` returns ``_decode`` of every
    slot as a uint64 array. ``config`` needs ``rows``, ``width`` and one seed
    per row.

    ``encode_stream`` places (:func:`index_batch`) and counts the stream
    ``ENCODE_CHUNK`` packets at a time, so no whole-stream index array is
    ever held. ``query_many`` decodes each row once into a table, answers
    every key with one gather per row and takes the minimum over rows; the
    private ``_query_array`` returns that minimum as a uint64 array, for
    callers that go on computing on it (the experiment's metrics), and
    ``query_many`` is its ``tolist()``.
    """

    def __init__(self, config) -> None:
        self.config = config
        self._d = config.rows
        self._w = config.width
        self._hashers = [RowHasher(seed, self._w) for seed in config.seeds]
        self._seed_states = [seed_state(seed) for seed in config.seeds]
        self.packet_count = 0

    def encode_stream(self, keys: np.ndarray) -> None:
        """Count every packet of a key array (see :func:`u64_keys`), in stream
        order."""
        keys = u64_keys(keys)
        for start in range(0, len(keys), ENCODE_CHUNK):
            chunk = keys[start : start + ENCODE_CHUNK]
            for r, seed in enumerate(self.config.seeds):
                self._encode_batch(r, index_batch(chunk, seed, self._w))
        self.packet_count += len(keys)

    def encode(self, key: bytes) -> None:
        """Count one packet for ``key`` in every row."""
        if len(key) <= 8:
            self.encode_u64(int.from_bytes(key, "little"))
            return
        for r, hasher in enumerate(self._hashers):
            self._encode(r, hasher.index(key))
        self.packet_count += 1

    def encode_u64(self, key: int) -> None:
        w = self._w
        key &= MASK64
        for r, ss in enumerate(self._seed_states):
            self._encode(r, (mix64(key ^ ss) * w) >> 64)
        self.packet_count += 1

    def query(self, key: bytes) -> int:
        """Minimum decoded value for ``key`` over all rows."""
        if len(key) <= 8:
            return self.query_u64(int.from_bytes(key, "little"))
        return min(self._decode(r, h.index(key)) for r, h in enumerate(self._hashers))

    def query_u64(self, key: int) -> int:
        w = self._w
        key &= MASK64
        best = None
        for r, ss in enumerate(self._seed_states):
            v = self._decode(r, (mix64(key ^ ss) * w) >> 64)
            if best is None or v < best:
                best = v
        return best

    def query_many(self, keys: Sequence[int] | np.ndarray) -> list[int]:
        """:meth:`query_u64` of every key, as a list of Python ints."""
        return self._query_array(keys).tolist()

    def _query_array(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`query_u64` of every key, as a uint64 array."""
        keys = u64_keys(keys)
        best = None
        for r, seed in enumerate(self.config.seeds):
            vals = self._decode_row(r)[index_batch(keys, seed, self._w)]
            best = vals if best is None else np.minimum(best, vals)
        return best.astype(np.uint64, copy=False)

    def slot_of(self, row: int, key: bytes) -> int:
        return self._hashers[row].index(key)
