"""Seeded 64-bit mixing, row indexing, and the front door of every sketch.

All sketches obtain slot indices from this module so that cross-scheme
comparisons use identical placements: one seed per row, one reduction per
table width. Reduction takes the high bits of ``hash * width`` instead of a
modulo, which stays bias-free for widths that are not powers of two.

Sketches see one key type, a 64-bit flow id: an integer, modulo 2**64.
:func:`u64_keys` converts a batch; a key of any other form becomes an id in
``traffic``, where its trace is built or read, never here.

Hashing and placement each have two implementations: the scalar
:func:`hash_u64` and :func:`place_u64`, which are the specification and
serve the per-key entry points, and the C kernel library (``_encode.c``,
loaded by ``_kernel``) behind the batched :func:`hash_batch` (``hash_keys``)
and :func:`index_batch` (``place``), which fall back to the scalar ones
without a compiler. On an x86-64 CPU with AVX-512DQ the library hashes and
places 8 keys per instruction, chosen at run time, with the same results.
A :class:`KeyBatch` keeps a segment's slots per row, so sketches that count
one segment at one width place it once.

:class:`RowSketch` is the base of every scheme. It owns the row seeds, the
packet total, and the entry points (``encode_u64``, ``query_u64``,
``encode_stream``, ``query_many``); a scheme supplies only what one slot
does with a packet and what it reads back, per slot and per row.
``query_many`` reads decoded-row tables: each row is decoded once, whatever
the number of keys, and the library's ``query_rows`` places every key, looks
it up in each table and takes the minimum over rows in one pass.
"""

from __future__ import annotations

import functools
import operator
from array import array
from typing import Sequence

import numpy as np

from . import _kernel
from .rules import Int, Items, SpecError

MASK64 = (1 << 64) - 1

# The most slots a row may have: the kernel reduces a hash to a slot in
# 32-bit halves, which is exact only up to this width.
MAX_WIDTH = 1 << 32

# The most rows a sketch may have: a snapshot header stores the count as a u16.
MAX_ROWS = (1 << 16) - 1

# The rules of the shape fields every config has: a snapshot header stores
# the rows in a u16, the width in a u32 and each seed in a u64.
ROWS = Int(1, MAX_ROWS)
WIDTH = Int(1, MAX_WIDTH - 1)
SEEDS = Items(Int(0, MASK64))

# The widths :func:`index_batch` places into: up to 2**32, which no config
# takes but ``place_u64`` still reduces exactly.
PLACED_WIDTH = Int(1, MAX_WIDTH)

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


def derive_seeds(master: int, count: int) -> tuple[int, ...]:
    """Deterministic per-row seeds from one master seed."""
    return tuple(hash_u64(0x52_4F_57 + r, master) for r in range(count))


def place_u64(key: int, state: int, width: int) -> int:
    """The slot of ``key``, masked to 64 bits, in a row of ``width`` slots
    whose seed has the :func:`seed_state` ``state``: the high 64 bits of
    ``mix64(key ^ state) * width``. The caller keeps ``width`` in
    ``[1, 2**32]``, as :func:`index_batch` and the sketch configs check it."""
    return (mix64(key ^ state) * width) >> 64


def u64_keys(keys: Sequence[int] | np.ndarray) -> np.ndarray:
    """Keys as a contiguous uint64 array of flow ids, each integer masked to
    64 bits as ``encode_u64`` and ``query_u64`` mask it. Other keys raise
    TypeError: a float, a string or a ``bytes`` key in a sequence, an array
    that is not one-dimensional, and an array whose dtype is not an integer
    one (float, complex, string)."""
    if isinstance(keys, np.ndarray) and keys.ndim != 1:
        raise TypeError(f"keys must be a one-dimensional array, not {keys.ndim}-dimensional")
    if isinstance(keys, np.ndarray) and keys.dtype != object:
        if keys.dtype.kind not in "iu":
            raise TypeError(f"keys must be integers, not {keys.dtype}")
        return np.ascontiguousarray(keys, dtype=np.uint64)
    if isinstance(keys, (bytes, bytearray)):
        raise TypeError("keys must be a sequence of integers, not bytes")
    if not isinstance(keys, (Sequence, np.ndarray)):
        keys = list(keys)  # the fallback below must see every key again
    try:
        return np.frombuffer(array("Q", keys), dtype=np.uint64)
    except (OverflowError, TypeError):
        return np.array([operator.index(k) & MASK64 for k in keys], dtype=np.uint64)


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
    slots hashed with ``seed``, as an int64 array: :func:`place_u64` of each
    key, exactly. The kernel library's ``place`` computes it; where the
    library cannot be built, every key goes through the scalar
    :func:`place_u64`, after the loader's one ``RuntimeWarning``. ``width``
    is an integer in ``[1, 2**32]`` (``PLACED_WIDTH``): a bool or a float is
    refused with a TypeError, a width out of range with a ValueError."""
    width = PLACED_WIDTH.check("width", width)
    keys = u64_keys(keys)
    state = seed_state(seed)
    lib = _kernel.load()
    if lib is None:
        return np.array([place_u64(k, state, width) for k in keys.tolist()], dtype=np.int64)
    out = np.empty(len(keys), dtype=np.int64)
    lib.place(keys.ctypes.data, len(keys), state, width, out.ctypes.data)
    return out


class KeyBatch:
    """A segment of flow ids (see :func:`u64_keys`) and the slots of each row,
    placed on first request and kept for each (seed, width) asked: sketches
    that count the same segment under one seed and width place it once
    between them, whatever order they come in. The batch holds one int64
    array per pair asked, for as long as the batch lives.

    ``RowSketch.encode_stream`` takes a batch whole; a caller that wraps a
    segment keeps it to ``ENCODE_CHUNK`` packets, as ``encode_stream`` cuts
    raw keys.
    """

    __slots__ = ("keys", "_slots")

    def __init__(self, keys: Sequence[int] | np.ndarray) -> None:
        self.keys = u64_keys(keys)
        self._slots: dict[tuple[int, int], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def slots(self, seed: int, width: int) -> np.ndarray:
        """:func:`index_batch` of the keys under ``seed`` and ``width``."""
        idx = self._slots.get((seed, width))
        if idx is None:
            idx = self._slots[seed, width] = index_batch(self.keys, seed, width)
        return idx


def row_seeds(config) -> None:
    """Give ``config`` the seeds ``derive_seeds(0, rows)`` if it names none,
    and refuse it unless it has one seed per row."""
    if not config.seeds:
        object.__setattr__(config, "seeds", derive_seeds(0, config.rows))
    if len(config.seeds) != config.rows:
        raise SpecError("seeds", "seeds must provide one seed per row")


class RowSketch:
    """Count-Min-shaped front door: one slot per row, minimum over rows.

    Every entry point takes flow ids, masked to 64 bits: ``encode_u64`` and
    ``query_u64`` one, ``encode_stream`` and ``query_many`` a batch (see
    :func:`u64_keys`).

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
    row once into a uint64 table, and the library's ``query_rows`` places
    every key in every row, gathers its table entries and takes their
    minimum, in one pass over the keys; without the library each row places
    the keys with :func:`index_batch` and gathers from its table. The
    private ``_query_array`` returns that minimum as a uint64 array, for
    callers that go on computing on it (the experiment's metrics), and
    ``query_many`` is its ``tolist()``.
    """

    def __init__(self, config) -> None:
        self.config = config
        self._d = config.rows
        self._w = config.width
        self._seed_states = [seed_state(seed) for seed in config.seeds]
        self.packet_count = 0

    def encode_stream(self, keys: KeyBatch | Sequence[int] | np.ndarray) -> None:
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

    def encode_u64(self, key: int) -> None:
        for r, ss in enumerate(self._seed_states):
            self._encode(r, place_u64(key, ss, self._w))
        self.packet_count += 1

    def query_u64(self, key: int) -> int:
        return min(
            self._decode(r, place_u64(key, ss, self._w)) for r, ss in enumerate(self._seed_states)
        )

    def query_many(self, keys: Sequence[int] | np.ndarray) -> list[int]:
        """:meth:`query_u64` of every key, as a list of Python ints."""
        return self._query_array(keys).tolist()

    def _query_array(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`query_u64` of every key, as a uint64 array."""
        keys = u64_keys(keys)
        tables = np.stack([self._decode_row(r) for r in range(self._d)])
        tables = tables.astype(np.uint64, copy=False)
        lib = _kernel.load()
        if lib is None:
            seeds = self.config.seeds
            return functools.reduce(
                np.minimum, (t[index_batch(keys, s, self._w)] for t, s in zip(tables, seeds))
            )
        states = np.array(self._seed_states, dtype=np.uint64)
        out = np.empty(len(keys), dtype=np.uint64)
        lib.query_rows(
            keys.ctypes.data, len(keys), states.ctypes.data, tables.ctypes.data, self._d, self._w,
            out.ctypes.data,
        )
        return out
