"""Dynamic frequency sketch with joint low-bit sub-counters and deferred fusing.

The structure is ``rows`` arrays of ``width`` small base counters
(``counter_bits`` wide, 8 by default), queried like Count-Min: encode into one
slot per row, report the minimum decoded value over the rows.

Counter lifecycle, per aligned group of four base slots:

* per pair (slots ``2m``, ``2m+1``)::

      independent -> low-bits-shared -> fused double-width

* per group, once both pairs are fused::

      (fused, fused) -> double-width low-bits-shared -> one quad-width counter

In the shared state the two members of a pair jointly maintain one
``shared_bits``-wide sub-counter (each member physically stores half of its
bits) and keep a private ``counter_bits - shared_bits/2`` prefix each. A
member decodes to ``prefix * 2**shared_bits + joint``. Every packet for
either member advances the joint sub-counter; when it wraps, only the member
that received the wrapping packet advances its prefix (winner-take-all), so a
pair survives far beyond the raw capacity of its slots before it must fuse.
Fusing combines the two members with ``sum`` or ``max`` and the fused counter
repeats the same lifecycle at double width.

State transitions fire on the first increment a counter cannot absorb; that
increment is then applied in the post-transition state, so no packet is
skipped. Transitions never reverse. Group state is tracked in a side array of
4-bit codes, eleven of which are legal:

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

Batched encode (``_encode_batch``, one chunk of slot indices per row): the
state machine is inherently sequential, since a packet can change its
group's state and so how the next packet to that group counts. A C kernel
(``_encode.c``, built and loaded by ``_kernel``) therefore walks the chunk in
stream order and runs a line-for-line port of ``_encode`` and its four
transitions on the row buffers, returning the content its share
initializations dropped, so rows, group codes and ``lsb_discard`` end
exactly as per-packet ``_encode`` leaves them. ``_encode`` stays the
specification: it is the readable form of the lifecycle above, the tests
compare the kernel against it, and it is the fallback. Where the kernel
cannot be built (no C compiler), ``_encode_batch`` calls ``_encode`` for each
packet, after one ``RuntimeWarning``: the same result, about 25 times
slower on an attacked stream. ``_decode_row`` decodes a whole row at once
with numpy for ``query_many``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernel
from .hashing import RowSketch, derive_seeds

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


# Slot kinds of ``_decode_row``, by the unit a slot's value comes from: the
# slot itself, its pair, or its group.
_INDEP, _SHARED, _FUSED, _SHARED_GROUP, _QUAD = range(5)
_PAIR_KIND = (_INDEP, _SHARED, _FUSED)
# Kind of a slot, indexed by ``2 * group code + pair bit``.
_KIND_OF = np.array(
    [_PAIR_KIND[(_PAIR_A if bit == 0 else _PAIR_B)[c]] for c in range(9) for bit in (0, 1)]
    + [_SHARED_GROUP] * 2
    + [_QUAD] * 2,
    dtype=np.uint8,
)


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
        self._max_base = (1 << self._s) - 1
        self._max_wide = (1 << (2 * self._s)) - 1
        self._max_quad = (1 << (4 * self._s)) - 1
        # With sharing disabled these are all 0 and no shared state occurs.
        self._hk = self._k >> 1
        self._kmask = (1 << self._k) - 1
        self._hmask = (1 << self._hk) - 1
        self._clr_base = self._max_base ^ self._hmask
        self._clr_wide = self._max_wide ^ self._hmask
        self._pmax_base = (1 << (self._s - self._hk)) - 1
        self._pmax_wide = (1 << (2 * self._s - self._hk)) - 1
        self._typecode = "B" if self._s <= 8 else "H"
        self._rows = [array(self._typecode, [0]) * self._w for _ in range(self._d)]
        self._states = [array("B", [0]) * (self._w >> 2) for _ in range(self._d)]
        self._lsb_discards = [0] * self._d
        self._pair_bit = (np.arange(self._w) >> 1) & 1

    # -- encoding ---------------------------------------------------------

    def _encode_batch(self, row_idx: int, idx: np.ndarray) -> None:
        """Count a chunk of packets, given by slot (each in ``[0, width)``),
        in stream order, exactly as ``_encode`` would one by one: with the C
        kernel when it could be built, else with ``_encode`` itself."""
        encode_row = _kernel.load()
        if encode_row is None:
            for slot in idx.tolist():
                self._encode(row_idx, slot)
            return
        row = self._rows[row_idx]
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        self._lsb_discards[row_idx] += encode_row(
            row.buffer_info()[0],
            row.itemsize == 2,
            self._states[row_idx].buffer_info()[0],
            idx.ctypes.data,
            len(idx),
            self._s,
            self._k,
            self._mode_sum,
        )

    def _encode(self, row_idx: int, slot: int) -> None:
        slots = self._rows[row_idx]
        states = self._states[row_idx]
        g = slot >> 2
        code = states[g]
        if code < GROUP_SHARED_WIDE:
            pair = (slot >> 1) & 1
            ps = _PAIR_A[code] if pair == 0 else _PAIR_B[code]
            if ps == PAIR_INDEPENDENT:
                v = slots[slot]
                if v < self._max_base:
                    slots[slot] = v + 1
                    return
                if self._k:
                    self._share_pair(row_idx, g, pair)
                else:
                    self._fuse_pair(row_idx, g, pair)
                self._encode(row_idx, slot)
                return
            if ps == PAIR_SHARED:
                base = (g << 2) | (pair << 1)
                lo = base + 1
                hmask = self._hmask
                low = slots[lo]
                if low & hmask != hmask:
                    # joint sub-counter's low half has room: single-slot bump
                    slots[lo] = low + 1
                    return
                hk = self._hk
                joint = ((slots[base] & hmask) << hk) | hmask
                if joint < self._kmask:
                    # carry into the high half, clear the low half
                    slots[base] += 1
                    slots[lo] = low & self._clr_base
                    return
                prefix = slots[slot] >> hk
                if prefix < self._pmax_base:
                    slots[base] &= self._clr_base
                    slots[lo] &= self._clr_base
                    slots[slot] = (prefix + 1) << hk
                    return
                self._fuse_pair(row_idx, g, pair)
                self._encode(row_idx, slot)
                return
            base = (g << 2) | (pair << 1)
            low = slots[base]
            if low < self._max_base:
                slots[base] = low + 1
                return
            v = low | (slots[base + 1] << self._s)
            if v < self._max_wide:
                v += 1
                slots[base] = v & self._max_base
                slots[base + 1] = v >> self._s
                return
            sibling = pair ^ 1
            sib_state = _PAIR_A[code] if sibling == 0 else _PAIR_B[code]
            if sib_state != PAIR_MERGED:
                self._fuse_pair(row_idx, g, sibling)
            if self._k:
                self._share_group(row_idx, g)
            else:
                self._fuse_group(row_idx, g)
            self._encode(row_idx, slot)
            return
        base = g << 2
        s_bits = self._s
        if code == GROUP_SHARED_WIDE:
            hmask = self._hmask
            low = slots[base + 2]
            if low & hmask != hmask:
                # low half of the joint sub-counter lives in pair B's low slot
                slots[base + 2] = low + 1
                return
            hk = self._hk
            qa = slots[base] | (slots[base + 1] << s_bits)
            qb = low | (slots[base + 3] << s_bits)
            joint = ((qa & hmask) << hk) | hmask
            pair = (slot >> 1) & 1
            if joint < self._kmask:
                self._write_wide(slots, base, qa + 1)
                slots[base + 2] = low & self._clr_base
                return
            prefix = (qa if pair == 0 else qb) >> hk
            if prefix < self._pmax_wide:
                qa &= self._clr_wide
                qb &= self._clr_wide
                if pair == 0:
                    qa = (prefix + 1) << hk
                else:
                    qb = (prefix + 1) << hk
                self._write_wide(slots, base, qa)
                self._write_wide(slots, base + 2, qb)
                return
            self._fuse_group(row_idx, g)
            self._encode(row_idx, slot)
            return
        low = slots[base]
        if low < self._max_base:
            slots[base] = low + 1
            return
        v = (
            low
            | (slots[base + 1] << s_bits)
            | (slots[base + 2] << (2 * s_bits))
            | (slots[base + 3] << (3 * s_bits))
        )
        if v < self._max_quad:
            self._write_quad(slots, base, v + 1)

    def _write_wide(self, slots: array, base: int, value: int) -> None:
        slots[base] = value & self._max_base
        slots[base + 1] = value >> self._s

    def _write_quad(self, slots: array, base: int, value: int) -> None:
        m = self._max_base
        s = self._s
        slots[base] = value & m
        slots[base + 1] = (value >> s) & m
        slots[base + 2] = (value >> (2 * s)) & m
        slots[base + 3] = value >> (3 * s)

    def _set_pair_state(self, row_idx: int, group: int, pair: int, state: int) -> None:
        code = self._states[row_idx][group]
        if pair == 0:
            code = group_code(state, _PAIR_B[code])
        else:
            code = group_code(_PAIR_A[code], state)
        self._states[row_idx][group] = code

    def _share_pair(self, row_idx: int, group: int, pair: int) -> None:
        slots = self._rows[row_idx]
        base = (group << 2) | (pair << 1)
        lo = base + 1
        ve, vo = slots[base], slots[lo]
        le = ve & self._kmask
        lr = vo & self._kmask
        joint = le if le >= lr else lr
        # The smaller low part is dropped by the max initialization.
        self._lsb_discards[row_idx] += le + lr - joint
        slots[base] = ((ve >> self._k) << self._hk) | (joint >> self._hk)
        slots[lo] = ((vo >> self._k) << self._hk) | (joint & self._hmask)
        self._set_pair_state(row_idx, group, pair, PAIR_SHARED)

    def _fuse_pair(self, row_idx: int, group: int, pair: int) -> None:
        slots = self._rows[row_idx]
        base = (group << 2) | (pair << 1)
        lo = base + 1
        code = self._states[row_idx][group]
        ps = _PAIR_A[code] if pair == 0 else _PAIR_B[code]
        if ps == PAIR_INDEPENDENT:
            a, b = slots[base], slots[lo]
            value = a + b if self._mode_sum else (a if a >= b else b)
        else:
            pa = slots[base] >> self._hk
            pb = slots[lo] >> self._hk
            joint = ((slots[base] & self._hmask) << self._hk) | (slots[lo] & self._hmask)
            if self._mode_sum:
                value = ((pa + pb) << self._k) | joint
            else:
                value = ((pa if pa >= pb else pb) << self._k) | joint
        self._write_wide(slots, base, value)
        self._set_pair_state(row_idx, group, pair, PAIR_MERGED)

    def _share_group(self, row_idx: int, group: int) -> None:
        slots = self._rows[row_idx]
        base = group << 2
        qa = slots[base] | (slots[base + 1] << self._s)
        qb = slots[base + 2] | (slots[base + 3] << self._s)
        la = qa & self._kmask
        lb = qb & self._kmask
        joint = la if la >= lb else lb
        self._lsb_discards[row_idx] += la + lb - joint
        qa = ((qa >> self._k) << self._hk) | (joint >> self._hk)
        qb = ((qb >> self._k) << self._hk) | (joint & self._hmask)
        self._write_wide(slots, base, qa)
        self._write_wide(slots, base + 2, qb)
        self._states[row_idx][group] = GROUP_SHARED_WIDE

    def _fuse_group(self, row_idx: int, group: int) -> None:
        slots = self._rows[row_idx]
        base = group << 2
        qa = slots[base] | (slots[base + 1] << self._s)
        qb = slots[base + 2] | (slots[base + 3] << self._s)
        if self._states[row_idx][group] == GROUP_SHARED_WIDE:
            pa = qa >> self._hk
            pb = qb >> self._hk
            joint = ((qa & self._hmask) << self._hk) | (qb & self._hmask)
            if self._mode_sum:
                value = ((pa + pb) << self._k) | joint
            else:
                value = ((pa if pa >= pb else pb) << self._k) | joint
        else:
            value = qa + qb if self._mode_sum else (qa if qa >= qb else qb)
        self._write_quad(slots, base, value)
        self._states[row_idx][group] = GROUP_MERGED_WIDE

    # -- decoding ---------------------------------------------------------

    def _decode(self, row_idx: int, slot: int) -> int:
        slots = self._rows[row_idx]
        g = slot >> 2
        code = self._states[row_idx][g]
        if code < GROUP_SHARED_WIDE:
            pair = (slot >> 1) & 1
            ps = _PAIR_A[code] if pair == 0 else _PAIR_B[code]
            if ps == PAIR_INDEPENDENT:
                return slots[slot]
            base = (g << 2) | (pair << 1)
            if ps == PAIR_SHARED:
                joint = ((slots[base] & self._hmask) << self._hk) | (
                    slots[base + 1] & self._hmask
                )
                return ((slots[slot] >> self._hk) << self._k) | joint
            return slots[base] | (slots[base + 1] << self._s)
        base = g << 2
        s_bits = self._s
        if code == GROUP_SHARED_WIDE:
            qa = slots[base] | (slots[base + 1] << s_bits)
            qb = slots[base + 2] | (slots[base + 3] << s_bits)
            joint = ((qa & self._hmask) << self._hk) | (qb & self._hmask)
            own = qa if (slot >> 1) & 1 == 0 else qb
            return ((own >> self._hk) << self._k) | joint
        return (
            slots[base]
            | (slots[base + 1] << s_bits)
            | (slots[base + 2] << (2 * s_bits))
            | (slots[base + 3] << (3 * s_bits))
        )

    def _decode_row(self, row_idx: int) -> np.ndarray:
        """``_decode`` of every slot of one row, as a uint64 array."""
        row = np.frombuffer(self._rows[row_idx], dtype=self._typecode)
        codes = np.frombuffer(self._states[row_idx], dtype=np.uint8)
        kind = _KIND_OF[(np.repeat(codes, 4) << 1) | self._pair_bit]
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
        return np.choose(kind, (r, shared, fused, wide, quad))

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
        g = slot >> 2
        code = self._states[row][g]
        s = self._s
        if code == GROUP_MERGED_WIDE:
            return CounterRef(4 * s, g << 2, 4, False), None
        if code == GROUP_SHARED_WIDE:
            base = (g << 2) | (slot & 2)
            peer = (g << 2) | ((slot & 2) ^ 2)
            return CounterRef(2 * s, base, 2, True), CounterRef(2 * s, peer, 2, True)
        pair = (slot >> 1) & 1
        ps = _PAIR_A[code] if pair == 0 else _PAIR_B[code]
        if ps == PAIR_MERGED:
            base = (g << 2) | (pair << 1)
            sib = (g << 2) | ((pair ^ 1) << 1)
            sib_state = _PAIR_A[code] if pair == 1 else _PAIR_B[code]
            return (
                CounterRef(2 * s, base, 2, False),
                CounterRef(2 * s, sib, 2, sib_state == PAIR_SHARED),
            )
        shared = ps == PAIR_SHARED
        return CounterRef(s, slot, 1, shared), CounterRef(s, slot ^ 1, 1, shared)

    def counter_view(self, row: int, key: bytes) -> CounterView:
        return self.counter_view_at(row, self.slot_of(row, key))

    def counter_view_at(self, row: int, slot: int) -> CounterView:
        slots = self._rows[row]
        g = slot >> 2
        code = self._states[row][g]
        value = self._decode(row, slot)
        if code == GROUP_MERGED_WIDE:
            return CounterView(4 * self._s, False, value, None, value)
        if code == GROUP_SHARED_WIDE:
            return CounterView(
                2 * self._s, True, value >> self._k, value & self._kmask, value
            )
        pair = (slot >> 1) & 1
        ps = _PAIR_A[code] if pair == 0 else _PAIR_B[code]
        if ps == PAIR_SHARED:
            return CounterView(self._s, True, value >> self._k, value & self._kmask, value)
        level = self._s if ps == PAIR_INDEPENDENT else 2 * self._s
        return CounterView(level, False, value, None, value)

    def counter_count(self) -> list[int]:
        """Logical counters remaining per row (fused counters count once)."""
        return [sum(GROUP_COUNTER_COUNT[c] for c in states) for states in self._states]

    def row_total(self, row: int) -> int:
        """Packets represented in one row, counting joint sub-counters once.

        In sum mode ``row_total(r) + lsb_discard(r)`` equals the number of
        packets encoded, exactly: the only content ever dropped is the smaller
        low part at each share initialization.
        """
        slots = self._rows[row]
        s = self._s
        total = 0
        for g, code in enumerate(self._states[row]):
            base = g << 2
            if code < GROUP_SHARED_WIDE:
                for pair in (0, 1):
                    pbase = base | (pair << 1)
                    ps = _PAIR_A[code] if pair == 0 else _PAIR_B[code]
                    if ps == PAIR_INDEPENDENT:
                        total += slots[pbase] + slots[pbase + 1]
                    elif ps == PAIR_SHARED:
                        joint = ((slots[pbase] & self._hmask) << self._hk) | (
                            slots[pbase + 1] & self._hmask
                        )
                        total += (
                            ((slots[pbase] >> self._hk) + (slots[pbase + 1] >> self._hk))
                            << self._k
                        ) | joint
                    else:
                        total += slots[pbase] | (slots[pbase + 1] << s)
            elif code == GROUP_SHARED_WIDE:
                qa = slots[base] | (slots[base + 1] << s)
                qb = slots[base + 2] | (slots[base + 3] << s)
                joint = ((qa & self._hmask) << self._hk) | (qb & self._hmask)
                total += (((qa >> self._hk) + (qb >> self._hk)) << self._k) | joint
            else:
                total += (
                    slots[base]
                    | (slots[base + 1] << s)
                    | (slots[base + 2] << (2 * s))
                    | (slots[base + 3] << (3 * s))
                )
        return total

    def lsb_discard(self, row: int) -> int:
        """Content dropped in this row by share initializations (diagnostic)."""
        return self._lsb_discards[row]

    def memory_bits(self) -> int:
        """Counter bits plus 4 state bits per group, over all rows."""
        return self._d * (self._w * self._s + self._w)


class SiameseSketch(DynamicSketch):
    """The ``sc-lsb`` scheme: shared low bits, winner-take-all, late fusing."""

    scheme = "sc-lsb"
