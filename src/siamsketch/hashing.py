"""Seeded 64-bit mixing, row indexing, and the front door of every sketch.

All sketches obtain slot indices from this module so that cross-scheme
comparisons use identical placements: one seed per row, one reduction per
table width. Reduction takes the high bits of ``hash * width`` instead of a
modulo, which stays bias-free for widths that are not powers of two.

Sketches see one key type, a 64-bit flow id. An integer key is its own
flow id, modulo 2**64; a ``bytes`` key is :func:`flow_id` of it, folded once
and without a seed, whatever its length. :func:`u64_keys` converts a batch.

Hashing and placement each have two implementations: the scalar
:func:`hash_u64` and :class:`RowHasher`, which are the specification and
serve the per-key entry points, and the C kernel library (``_encode.c``,
loaded by ``_kernel``) behind the batched :func:`hash_batch` (``hash_keys``)
and :func:`index_batch` (``place``), which fall back to the scalar ones
without a compiler. A :class:`KeyBatch` keeps a segment's slots per row, so
sketches that count one segment at one width place it once.

:class:`RowSketch` is the base of every scheme. It owns the row seeds, the
packet total, and the entry points (``encode``, ``query`` and their ``u64``
forms, ``encode_stream``, ``query_many``, ``slot_of``); a scheme supplies
only what one slot does with a packet and what it reads back, per slot and
per row. ``query_many`` reads a decoded-row table: each row is decoded once,
whatever the number of keys.
"""

from __future__ import annotations

import functools
import operator
from array import array
from typing import Sequence

import numpy as np

from . import _kernel

MASK64 = (1 << 64) - 1

# Packets placed and counted per step of ``RowSketch.encode_stream`` given raw
# keys, and the longest segment ``run_experiment`` wraps in one ``KeyBatch``.
# Both kernel passes, placement and encode, make one pass over a chunk
# whatever its size, so the size only bounds its int64 slot arrays (8 bytes
# per packet, 512 KB here): one at a time for raw keys, one per row in a
# ``KeyBatch``. On a 1.23 M-packet attacked stream (3 x 4096 slots, sc-lsb,
# best of 15, two sweeps on a 2-core x86-64 host), chunks of 8k packets up to
# the whole stream took 0.033 to 0.050 s in no steady order.
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


def flow_id(key: bytes) -> int:
    """The 64-bit flow id of a key of any length, with no seed: the one key
    type below the trace. A key of at most 8 bytes is its little-endian value,
    so it places exactly as that integer does through ``encode_u64``. A longer
    key (a 13-byte 5-tuple, say) is folded once, ``mix64`` over its length
    and then over each 8-byte word, and every row hashes the fold.

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

    def index_u64(self, key: int) -> int:
        return (mix64((key & MASK64) ^ self._state) * self.width) >> 64


def u64_keys(keys: Sequence[int | bytes] | np.ndarray) -> np.ndarray:
    """Keys as a contiguous uint64 array of flow ids: an integer masked to 64
    bits as ``encode_u64`` and ``query_u64`` mask it, a ``bytes`` key as its
    :func:`flow_id`, as ``encode`` and ``query`` take it. Other keys raise
    TypeError: a float or a string in a sequence, and an array whose dtype is
    not an integer one (float, complex, string)."""
    if isinstance(keys, np.ndarray) and keys.dtype != object:
        if keys.dtype.kind not in "iu":
            raise TypeError(f"keys must be integers, not {keys.dtype}")
        return np.ascontiguousarray(keys, dtype=np.uint64)
    if not isinstance(keys, (Sequence, np.ndarray)):
        keys = list(keys)  # the fallback below must see every key again
    try:
        return np.frombuffer(array("Q", keys), dtype=np.uint64)
    except (OverflowError, TypeError):
        return np.array(
            [flow_id(k) if isinstance(k, bytes) else operator.index(k) & MASK64 for k in keys],
            dtype=np.uint64,
        )


def hash_batch(keys: Sequence[int] | np.ndarray, seed: int) -> np.ndarray:
    """:func:`hash_u64` of every key (see :func:`u64_keys`) under ``seed``, as
    a uint64 array. The kernel library's ``hash_keys`` computes it; where the
    library cannot be built, every key goes through the scalar ``mix64``,
    after the loader's one ``RuntimeWarning``."""
    keys = u64_keys(keys)
    state = seed_state(seed)
    lib = _kernel.load()
    if lib is None:
        return np.array([mix64(k ^ state) for k in keys.tolist()], dtype=np.uint64)
    out = np.empty(len(keys), dtype=np.uint64)
    lib.hash_keys(keys.ctypes.data, len(keys), state, out.ctypes.data)
    return out


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


class KeyBatch:
    """A segment of flow ids (see :func:`u64_keys`) and the slots of each row,
    placed on first request and kept for the width last asked: sketches of
    one width and one set of row seeds that count the same segment place it
    once between them. A request at another width drops the slots kept, so
    the batch holds at most one int64 array per row seed of one width.

    ``RowSketch.encode_stream`` takes a batch whole; a caller that wraps a
    segment keeps it to ``ENCODE_CHUNK`` packets, as ``encode_stream`` cuts
    raw keys.
    """

    __slots__ = ("keys", "_width", "_slots")

    def __init__(self, keys: Sequence[int | bytes] | np.ndarray) -> None:
        self.keys = u64_keys(keys)
        self._width = 0
        self._slots: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def slots(self, seed: int, width: int) -> np.ndarray:
        """:func:`index_batch` of the keys under ``seed`` and ``width``."""
        if width != self._width:
            self._width, self._slots = width, {}
        idx = self._slots.get(seed)
        if idx is None:
            idx = self._slots[seed] = index_batch(self.keys, seed, width)
        return idx


class RowSketch:
    """Count-Min-shaped front door: one slot per row, minimum over rows.

    A scheme supplies the per-slot pair ``_encode(row, slot)`` (count one
    packet) and ``_decode(row, slot)`` (the value the slot resolves to), which
    are its specification, and their whole-row forms: ``_encode_batch(row,
    slots)`` counts a chunk of packets in stream order exactly as ``_encode``
    would one by one, and ``_decode_row(row)`` returns ``_decode`` of every
    slot as a uint64 array. ``config`` needs ``rows``, ``width`` and one seed
    per row.

    ``encode_stream`` counts row by row, placing each row just before it is
    counted: a :class:`KeyBatch` whole, asking it for each row's slots, so
    sketches that share the batch and a width place it once between them;
    raw keys ``ENCODE_CHUNK`` packets at a time through :func:`index_batch`,
    so no whole-stream index array is ever held. ``query_many`` decodes each
    row once into a table, answers every key with one gather per row and
    takes the minimum over rows; the private ``_query_array`` returns that
    minimum as a uint64 array, for callers that go on computing on it (the
    experiment's metrics), and ``query_many`` is its ``tolist()``.
    """

    def __init__(self, config) -> None:
        self.config = config
        self._d = config.rows
        self._w = config.width
        self._seed_states = [seed_state(seed) for seed in config.seeds]
        self.packet_count = 0

    def encode_stream(self, keys: KeyBatch | Sequence[int | bytes] | np.ndarray) -> None:
        """Count every packet of a :class:`KeyBatch` or of a key array (see
        :func:`u64_keys`), in stream order."""
        if isinstance(keys, KeyBatch):
            steps = [(len(keys), keys.slots)]
        else:
            # No batch keeps a raw chunk's slots: with every row's slots of a
            # chunk held at once, this encode ran 1-5 % slower (alternating
            # timings in one process, 2-core x86-64 host).
            keys = u64_keys(keys)
            chunks = (keys[i : i + ENCODE_CHUNK] for i in range(0, len(keys), ENCODE_CHUNK))
            steps = ((len(chunk), functools.partial(index_batch, chunk)) for chunk in chunks)
        for packets, place in steps:
            for r, seed in enumerate(self.config.seeds):
                self._encode_batch(r, place(seed, self._w))
            self.packet_count += packets

    def encode(self, key: bytes) -> None:
        """Count one packet for ``key``: ``encode_u64`` of its :func:`flow_id`."""
        self.encode_u64(flow_id(key))

    def encode_u64(self, key: int) -> None:
        w = self._w
        key &= MASK64
        for r, ss in enumerate(self._seed_states):
            self._encode(r, (mix64(key ^ ss) * w) >> 64)
        self.packet_count += 1

    def query(self, key: bytes) -> int:
        """Minimum decoded value for ``key`` over all rows: ``query_u64`` of
        its :func:`flow_id`."""
        return self.query_u64(flow_id(key))

    def query_u64(self, key: int) -> int:
        w = self._w
        key &= MASK64
        best = None
        for r, ss in enumerate(self._seed_states):
            v = self._decode(r, (mix64(key ^ ss) * w) >> 64)
            if best is None or v < best:
                best = v
        return best

    def query_many(self, keys: Sequence[int | bytes] | np.ndarray) -> list[int]:
        """:meth:`query_u64` of every key, as a list of Python ints."""
        return self._query_array(keys).tolist()

    def _query_array(self, keys: Sequence[int | bytes] | np.ndarray) -> np.ndarray:
        """:meth:`query_u64` of every key, as a uint64 array."""
        keys = u64_keys(keys)
        best = None
        for r, seed in enumerate(self.config.seeds):
            vals = self._decode_row(r)[index_batch(keys, seed, self._w)]
            best = vals if best is None else np.minimum(best, vals)
        return best.astype(np.uint64, copy=False)

    def slot_of(self, row: int, key: bytes) -> int:
        return (mix64(flow_id(key) ^ self._seed_states[row]) * self._w) >> 64
