"""Dynamic frequency sketch with joint low-bit sub-counters and deferred fusing.

The structure is ``rows`` arrays of ``width`` small base counters
(``counter_bits`` wide, 8 by default), queried like Count-Min: encode into one
slot per row, report the minimum decoded value over the rows.

Counter lifecycle. Each aligned group of four base slots holds counters at
three levels: a level-``L`` counter spans ``2**L`` slots, so level 0 is one
slot, level 1 a pair (slots ``2m``, ``2m+1``) and level 2 the whole group.
Levels 0 and 1 follow one rule. Two sibling counters of a level (the two
slots of a pair, or the two fused pairs of a group) go::

    independent -> low-bits-shared -> fused into one counter of the next level

so a group goes 8 -> 16 -> 32 bits wide at the default ``counter_bits``.

In the shared state the two members jointly maintain one ``shared_bits``-wide
sub-counter, the joint: its high half sits in the low bits of the first
member, its low half in those of the second. Each member keeps its other
bits as a private prefix and decodes to ``prefix * 2**shared_bits + joint``.
Every packet for either member advances the joint; when it wraps, only the
member that received the wrapping packet advances its prefix
(winner-take-all), so a pair survives far beyond the raw capacity of its
members before it must fuse. Fusing combines the two members with ``sum`` or
``max``; a shared pair's joint becomes the fused counter's low bits.

A counter transitions on the first increment it cannot absorb: an unshared
counter at its maximum shares with its sibling (with ``shared_bits == 0`` it
fuses with it at once), and a shared counter whose prefix is at its maximum
fuses. Before a fused pair shares or fuses, its
sibling pair is fused up to the same level. The quad-width counter of level 2
saturates at its maximum. The increment that caused a transition is then
applied in the post-transition state, so no packet is skipped. Transitions
never reverse. Group state is tracked in a side array of 4-bit codes, eleven
of which are legal:

====  =======================================
code  meaning (pair A, pair B)
====  =======================================
0-8   ``3*a + b`` with a, b in {0 independent, 1 shared, 2 fused}
9     both pairs fused and sharing low bits at double width
10    whole group fused into one quad-width counter
====  =======================================

With ``shared_bits == 0`` sharing is disabled and a full counter fuses
immediately: that is the instant-merge baseline, and only codes 0, 2, 6, 8
and 10 occur.

The counter a slot belongs to is its unit, ``2 * level + shared``, read from
one table, ``_UNIT``, indexed by ``2 * code + pair bit`` (the pair bit is
``(slot >> 1) & 1``). Below code 9 a pair's unit is its state:

====  =======================================
unit  counter
====  =======================================
0     independent slot (level 0)
1     shared slot, one member of a shared pair (level 0)
2     fused pair (level 1)
3     shared fused pair, one member of code 9 (level 1)
4     quad-width counter, code 10 (level 2)
====  =======================================

The state machine is written once over ``level`` with this table: one bump
path per unit kind, one ``_share`` and one ``_fuse``, all reading and writing
counters through one ``_read`` / ``_write`` pair.

:class:`DynamicSketch` is the one engine for this lifecycle. The schemes
are its leaf classes: :class:`SiameseSketch` (``sc-lsb``) here, and
``baselines.InstantMergeSketch`` (``instant``), which pins
``shared_bits`` to 0. Hashing and the per-key entry points come from
``hashing.RowSketch``.

Storage: each row is an ``array.array`` of slots (``'B'`` up to 8-bit
counters, ``'H'`` above) and each row's group codes an ``array('B')``. The
per-slot state machine ``_encode`` / ``_decode`` is the specification; it
reads and writes the arrays as Python ints (numpy rows would hand it
fixed-width scalars, and shifts such as ``slots[b + 1] << s`` would wrap).
The batched paths use the same buffers in place (the encode kernel through
their addresses, ``_decode_row`` through zero-copy numpy views), so the
kernel's writes land in the rows the scalar code reads.

Batched encode (``encode_stream``): per chunk and row, ``hashing.index_batch``
places the keys and ``_encode_batch`` counts the slots, both in the C kernel
library (``_encode.c``, built and loaded by ``_kernel``); placement stays its
own pass because ``query_many`` and Count-Min use it too, sketches of one
width share it through a ``hashing.KeyBatch``, and fusing it into the count
was no faster. The state machine is inherently sequential, since a
packet can change its group's state and so how the next packet to that group
counts. The library's ``encode_row`` therefore walks the chunk in stream
order and runs a port of ``_encode``, ``_share`` and ``_fuse`` on the row
buffers, returning the content its share initializations dropped, so rows,
group codes and ``lsb_discard`` end exactly as per-packet ``_encode`` leaves
them. The port splits ``_encode`` at its first transition. Its first steps,
the bump (+1 to an unshared counter's lowest slot below the slot maximum,
or to a shared pair's joint with its carry into the high half), are the
whole update for nearly every packet, and run in a loop compiled once per
slot type. That loop's bump branches on the counter kind, which mispredicts
where a row's packets hit independent slots, shared pairs and fused pairs in
random order, as under a slot-saturation attack. So for 8-bit rows the
library has a second loop, which bumps an independent slot, a shared pair's
joint or a fused pair by one add on the pair's two slots read as one word,
without branching on the kind; once per chunk and row it runs where at least
1/8 of the row's groups hold a shared pair, and the first loop elsewhere
(``_encode.c`` gives the layout and the measured crossover). The rest, the
transition (prefix carry on a joint wrap, carry across a fused counter's
slots, quad saturation, share, fuse), runs only when the bump cannot absorb
the packet, in either loop, and after a share or fuse the bump is retried
where ``_encode`` calls itself again. ``_encode`` stays the
specification: it is the readable form of the lifecycle above, the tests
compare the kernel against it, and it is the fallback. Where the library cannot be built (no C
compiler), placement goes key by key through the scalar ``mix64`` and
``_encode_batch`` calls ``_encode`` per packet, after one ``RuntimeWarning``:
the same result, about 100 times slower on an attacked stream.
``_decode_row`` decodes a whole row at once with numpy for ``query_many``
and ``row_total``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernel
from .hashing import MASK64, RowSketch, derive_seeds

MERGE_SUM = "sum"
MERGE_MAX = "max"

PAIR_INDEPENDENT = 0
PAIR_SHARED = 1
PAIR_MERGED = 2

GROUP_SHARED_WIDE = 9
GROUP_MERGED_WIDE = 10

LEGAL_GROUP_STATES = frozenset(range(11))

_PAIR_A = tuple(c // 3 for c in range(9))
_PAIR_B = tuple(c % 3 for c in range(9))

# Codes reachable with sharing disabled (``shared_bits == 0``).
UNSHARED_GROUP_STATES = frozenset(
    c for c in range(9) if PAIR_SHARED not in (_PAIR_A[c], _PAIR_B[c])
) | {GROUP_MERGED_WIDE}

# Logical counters contributed by a group in each state: an independent or
# shared member still counts as its own estimator, a fused counter is one.
GROUP_COUNTER_COUNT = tuple(
    (1 if _PAIR_A[c] == PAIR_MERGED else 2) + (1 if _PAIR_B[c] == PAIR_MERGED else 2)
    for c in range(9)
) + (2, 1)


# Unit of a slot (see the module docstring), indexed by ``2 * group code +
# pair bit``, and the group code of each (pair A unit, pair B unit).
_UNIT = tuple(
    [(_PAIR_A if bit == 0 else _PAIR_B)[c] for c in range(9) for bit in (0, 1)]
    + [3, 3, 4, 4]
)
_CODE_OF = {(_UNIT[2 * c], _UNIT[2 * c + 1]): c for c in range(11)}
_UNITS = np.array(_UNIT, dtype=np.uint8)
_COUNTER_COUNTS = np.array(GROUP_COUNTER_COUNT, dtype=np.int64)


def group_code(state_a: int, state_b: int) -> int:
    """Group state code for two pair states below the group-wide levels."""
    return 3 * state_a + state_b


def pair_states(code: int) -> tuple[int, int]:
    """Split a sub-9 group code into (pair A state, pair B state)."""
    if not 0 <= code < 9:
        raise ValueError(f"code {code} has no per-pair split")
    return _PAIR_A[code], _PAIR_B[code]


class CounterRef(NamedTuple):
    """Locates one logical counter: level in bits, first slot, slot span."""

    level_bits: int
    start: int
    span: int
    shared: bool


class CounterView(NamedTuple):
    """Decoded view of the counter a key resolves to in one row."""

    level_bits: int
    shared: bool
    msb_value: int
    lsb_value: int | None
    value: int


@dataclass(frozen=True)
class SketchConfig:
    """Shape of a sketch: rows ``d``, slots per row ``w``, base counter bits
    ``S``, joint sub-counter bits ``K``, fuse rule, and per-row hash seeds.

    ``shared_bits`` must be even and below ``counter_bits``; zero disables
    sharing entirely (instant-merge behaviour).
    """

    rows: int = 3
    width: int = 4096
    counter_bits: int = 8
    shared_bits: int = 4
    merge_mode: str = MERGE_SUM
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError("rows must be at least 1")
        if self.width < 4 or self.width % 4:
            raise ValueError("width must be a positive multiple of 4")
        if not 2 <= self.counter_bits <= 16:
            raise ValueError("counter_bits must be in [2, 16]")
        if self.shared_bits % 2:
            raise ValueError("shared_bits must be even")
        if self.shared_bits < 0 or self.shared_bits >= self.counter_bits:
            raise ValueError("shared_bits must satisfy 0 <= shared_bits < counter_bits")
        if self.merge_mode not in (MERGE_SUM, MERGE_MAX):
            raise ValueError(f"unknown merge_mode {self.merge_mode!r}")
        if not self.seeds:
            object.__setattr__(self, "seeds", derive_seeds(0, self.rows))
        elif len(self.seeds) != self.rows:
            raise ValueError("seeds must provide one seed per row")


class DynamicSketch(RowSketch):
    """The dynamic-counter engine: the whole lifecycle above, for any
    ``shared_bits``. Schemes are leaf classes that name themselves."""

    def __init__(self, config: SketchConfig) -> None:
        super().__init__(config)
        self._s = config.counter_bits
        self._k = config.shared_bits
        self._mode_sum = config.merge_mode == MERGE_SUM
        # Largest value of a counter at each level.
        self._max = tuple((1 << (self._s << level)) - 1 for level in range(3))
        # With sharing disabled these are all 0 and no shared state occurs.
        self._hk = self._k >> 1
        self._kmask = (1 << self._k) - 1
        self._hmask = (1 << self._hk) - 1
        self._typecode = "B" if self._s <= 8 else "H"
        self._rows = [array(self._typecode, [0]) * self._w for _ in range(self._d)]
        self._states = [array("B", [0]) * (self._w >> 2) for _ in range(self._d)]
        self._lsb_discards = [0] * self._d
        self._pair_bit = (np.arange(self._w) >> 1) & 1

    def _unit(self, row_idx: int, slot: int) -> int:
        return _UNIT[(self._states[row_idx][slot >> 2] << 1) | ((slot >> 1) & 1)]

    def _read(self, slots: array, base: int, span: int) -> int:
        """The counter held in ``span`` slots from ``base``, lowest slot first."""
        value = slots[base]
        for i in range(1, span):
            value |= slots[base + i] << (i * self._s)
        return value

    def _write(self, slots: array, base: int, span: int, value: int) -> None:
        for i in range(base, base + span):
            slots[i] = value & self._max[0]
            value >>= self._s

    # -- encoding ---------------------------------------------------------

    def _encode_batch(self, row_idx: int, idx: np.ndarray) -> None:
        """Count a chunk of packets, given by slot (each in ``[0, width)``),
        in stream order, exactly as ``_encode`` would one by one: with the C
        kernel when it could be built, else with ``_encode`` itself."""
        lib = _kernel.load()
        if lib is None:
            for slot in idx.tolist():
                self._encode(row_idx, slot)
            return
        row = self._rows[row_idx]
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        self._lsb_discards[row_idx] += lib.encode_row(
            row.buffer_info()[0],
            row.itemsize == 2,
            self._states[row_idx].buffer_info()[0],
            len(self._states[row_idx]),
            idx.ctypes.data,
            len(idx),
            self._s,
            self._k,
            self._mode_sum,
        )

    def _encode(self, row_idx: int, slot: int) -> None:
        slots = self._rows[row_idx]
        unit = self._unit(row_idx, slot)
        level = unit >> 1
        span = 1 << level
        if unit & 1:
            first = slot & -(2 * span)
            second = first + span
            hmask = self._hmask
            low = slots[second]
            if low & hmask != hmask:
                # the joint's low half has room: single-slot bump
                slots[second] = low + 1
                return
            high = slots[first]
            if high & hmask != hmask:
                # carry into the high half, clear the low half
                slots[first] = high + 1
                slots[second] = low & ~hmask
                return
            # the joint wraps: the receiving member's prefix takes the carry
            own = slot & -span
            prefix = self._read(slots, own, span) >> self._hk
            if prefix < self._max[level] >> self._hk:
                slots[first] = high & ~hmask
                slots[second] = low & ~hmask
                self._write(slots, own, span, (prefix + 1) << self._hk)
                return
            self._fuse(row_idx, slot, level, True)
        else:
            base = slot & -span
            low = slots[base]
            if low < self._max[0]:
                slots[base] = low + 1
                return
            value = self._read(slots, base, span)
            if value < self._max[level]:
                self._write(slots, base, span, value + 1)
                return
            if level == 2:
                return  # the quad-width counter saturates
            sibling = base ^ span
            sib_unit = self._unit(row_idx, sibling)
            # fuse the sibling up to this level first
            if sib_unit >> 1 < level:
                self._fuse(row_idx, sibling, sib_unit >> 1, bool(sib_unit & 1))
            if self._k:
                self._share(row_idx, slot, level)
            else:
                self._fuse(row_idx, slot, level, False)
        self._encode(row_idx, slot)

    def _share(self, row_idx: int, slot: int, level: int) -> None:
        """Make ``slot``'s level-``level`` counter and its sibling share low
        bits; the joint starts at the larger of their low parts."""
        slots = self._rows[row_idx]
        span = 1 << level
        first = slot & -(2 * span)
        a = self._read(slots, first, span)
        b = self._read(slots, first + span, span)
        la = a & self._kmask
        lb = b & self._kmask
        joint = la if la >= lb else lb
        # The smaller low part is dropped by the max initialization.
        self._lsb_discards[row_idx] += la + lb - joint
        k, hk = self._k, self._hk
        self._write(slots, first, span, ((a >> k) << hk) | (joint >> hk))
        self._write(slots, first + span, span, ((b >> k) << hk) | (joint & self._hmask))
        self._set_unit(row_idx, first, level, 2 * level + 1)

    def _fuse(self, row_idx: int, slot: int, level: int, shared: bool) -> None:
        """Fuse ``slot``'s level-``level`` counter and its sibling into one
        counter of the next level: their prefixes (``shared``) or values
        combined by ``sum`` or ``max``, above the joint if there is one."""
        slots = self._rows[row_idx]
        span = 1 << level
        first = slot & -(2 * span)
        a = self._read(slots, first, span)
        b = self._read(slots, first + span, span)
        h = self._hk if shared else 0
        pa = a >> h
        pb = b >> h
        top = pa + pb if self._mode_sum else (pa if pa >= pb else pb)
        mask = (1 << h) - 1
        joint = ((a & mask) << h) | (b & mask)
        self._write(slots, first, 2 * span, (top << (2 * h)) | joint)
        self._set_unit(row_idx, first, level, 2 * level + 2)

    def _set_unit(self, row_idx: int, first: int, level: int, unit: int) -> None:
        """Give ``unit`` to what a level-``level`` transition at ``first``
        covers: one pair at level 0, both pairs at level 1."""
        states = self._states[row_idx]
        g = first >> 2
        pair = (first >> 1) & 1
        a, b = (unit if level or p == pair else _UNIT[2 * states[g] + p] for p in (0, 1))
        states[g] = _CODE_OF[a, b]

    # -- decoding ---------------------------------------------------------

    def _decode(self, row_idx: int, slot: int) -> int:
        slots = self._rows[row_idx]
        unit = self._unit(row_idx, slot)
        span = 1 << (unit >> 1)
        value = self._read(slots, slot & -span, span)
        if not unit & 1:
            return value
        first = slot & -(2 * span)
        hmask, hk = self._hmask, self._hk
        joint = ((slots[first] & hmask) << hk) | (slots[first + span] & hmask)
        return ((value >> hk) << self._k) | joint

    def _unit_row(self, row_idx: int) -> np.ndarray:
        """``_unit`` of every slot of one row."""
        codes = np.frombuffer(self._states[row_idx], dtype=np.uint8)
        return _UNITS[(np.repeat(codes, 4) << 1) | self._pair_bit]

    def _decode_row(self, row_idx: int) -> np.ndarray:
        """``_decode`` of every slot of one row, as a uint64 array."""
        row = np.frombuffer(self._rows[row_idx], dtype=self._typecode)
        unit = self._unit_row(row_idx)
        s, hk, k, hmask = (np.uint64(x) for x in (self._s, self._hk, self._k, self._hmask))
        r = row.astype(np.uint64)
        lo, hi = r[0::2], r[1::2]
        pair = lo | (hi << s)
        fused = np.repeat(pair, 2)
        quad = np.repeat(pair[0::2] | (pair[1::2] << (s + s)), 4)
        joint = ((lo & hmask) << hk) | (hi & hmask)
        shared = ((r >> hk) << k) | np.repeat(joint, 2)
        joint = ((pair[0::2] & hmask) << hk) | (pair[1::2] & hmask)
        wide = ((fused >> hk) << k) | np.repeat(joint, 4)
        return np.choose(unit, (r, shared, fused, wide, quad))

    # -- inspection -------------------------------------------------------

    def group_state(self, row: int, group: int) -> int:
        """4-bit state code of one group of four base slots."""
        if not 0 <= group < (self._w >> 2):
            raise IndexError(f"group {group} out of range")
        return self._states[row][group]

    def find_counter(self, row: int, key: bytes) -> tuple[CounterRef, CounterRef | None]:
        """Locate the key's logical counter and its same-level peer.

        Below the quad level the peer is the other slot of the pair; a fused
        pair's peer is the sibling pair of the group. The quad-width counter
        has no peer. Peers are positions; their own state may lag behind the
        referenced counter's level.
        """
        return self.find_counter_at(row, self.slot_of(row, key))

    def find_counter_at(self, row: int, slot: int) -> tuple[CounterRef, CounterRef | None]:
        unit = self._unit(row, slot)
        level = unit >> 1
        span = 1 << level
        start = slot & -span
        ref = CounterRef(self._s << level, start, span, bool(unit & 1))
        if level == 2:
            return ref, None
        peer = start ^ span
        return ref, CounterRef(self._s << level, peer, span, bool(self._unit(row, peer) & 1))

    def counter_view(self, row: int, key: bytes) -> CounterView:
        return self.counter_view_at(row, self.slot_of(row, key))

    def counter_view_at(self, row: int, slot: int) -> CounterView:
        unit = self._unit(row, slot)
        level_bits = self._s << (unit >> 1)
        value = self._decode(row, slot)
        if unit & 1:
            return CounterView(level_bits, True, value >> self._k, value & self._kmask, value)
        return CounterView(level_bits, False, value, None, value)

    def counter_count(self) -> list[int]:
        """Logical counters remaining per row, as Python ints: each group
        contributes ``GROUP_COUNTER_COUNT`` of its code (fused counters count
        once), gathered for a whole row at a time."""
        return [
            int(_COUNTER_COUNTS[np.frombuffer(states, dtype=np.uint8)].sum())
            for states in self._states
        ]

    def row_total(self, row: int) -> int:
        """Packets represented in one row, counting joint sub-counters once.

        In sum mode ``row_total(r) + lsb_discard(r)`` equals the number of
        packets encoded, exactly, until a quad-width counter saturates: the
        content dropped otherwise is the smaller low part at each share
        initialization, which ``lsb_discard`` counts, but a packet to a
        saturated quad-width counter is dropped and counted nowhere. At 4-bit
        slots, 70,000 packets of one key leave 65,535 on every row. ROADMAP
        item 2 plans a per-row count of those packets.
        """
        unit = self._unit_row(row)
        span = 1 << (unit >> 1)
        slot = np.arange(self._w)
        values = self._decode_row(row)
        # both members of a shared pair decode with the joint; count it once,
        # with the first member
        second = (unit & 1 == 1) & (slot & span != 0)
        values[second] &= np.uint64(~self._kmask & MASK64)
        # a counter is counted at its first slot; the sum is exact in Python ints
        return sum(values[slot & (span - 1) == 0].tolist())

    def lsb_discard(self, row: int) -> int:
        """Content dropped in this row by share initializations (diagnostic)."""
        return self._lsb_discards[row]

    def memory_bits(self) -> int:
        """Counter bits plus 4 state bits per group, over all rows."""
        return self._d * (self._w * self._s + self._w)


class SiameseSketch(DynamicSketch):
    """The ``sc-lsb`` scheme: shared low bits, winner-take-all, late fusing."""

    scheme = "sc-lsb"
