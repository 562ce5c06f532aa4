"""Seeded 64-bit mixing, row indexing, and the front door of every sketch.

All sketches obtain slot indices from this module so that cross-scheme
comparisons use identical placements: one seed per row, one reduction per
table width. Reduction takes the high bits of ``hash * width`` instead of a
modulo, which stays bias-free for widths that are not powers of two.

:class:`RowSketch` is the base of every scheme. It owns the row seeds and
hashers, the packet total, and the per-key entry points (``encode``,
``query`` and their ``u64`` forms, ``query_many``, ``slot_of``); a scheme
supplies only what one slot does with a packet and what it reads back.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MASK64 = (1 << 64) - 1

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


def hash_batch(keys: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized :func:`hash_u64` over a uint64 key array."""
    z = np.asarray(keys, dtype=np.uint64) ^ np.uint64(seed_state(seed))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def index_batch(keys: np.ndarray, seed: int, width: int) -> np.ndarray:
    """Vectorized multiply-shift placement; matches the scalar path exactly."""
    h = hash_batch(keys, seed)
    w = np.uint64(width)
    hi = h >> np.uint64(32)
    lo = h & np.uint64(0xFFFFFFFF)
    return ((hi * w + ((lo * w) >> np.uint64(32))) >> np.uint64(32)).astype(np.int64)


class RowSketch:
    """Count-Min-shaped front door: one slot per row, minimum over rows.

    A scheme supplies ``encode_stream`` and the per-slot pair
    ``_encode(row, slot)`` (count one packet) and ``_decode(row, slot)``
    (the value the slot resolves to). ``config`` needs ``rows``, ``width``
    and one seed per row.
    """

    def __init__(self, config) -> None:
        self.config = config
        self._d = config.rows
        self._w = config.width
        self._hashers = [RowHasher(seed, self._w) for seed in config.seeds]
        self._seed_states = [seed_state(seed) for seed in config.seeds]
        self.packet_count = 0

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
        """:meth:`query_u64` of every key, placing a whole row at a time."""
        keys = np.asarray(keys, dtype=np.uint64)
        decode = self._decode
        best = None
        for r, seed in enumerate(self.config.seeds):
            vals = [decode(r, i) for i in index_batch(keys, seed, self._w).tolist()]
            best = vals if best is None else [v if v < b else b for v, b in zip(vals, best)]
        return best

    def slot_of(self, row: int, key: bytes) -> int:
        return self._hashers[row].index(key)
