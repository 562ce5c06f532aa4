"""Reference schemes driven by the same row hashing as the main sketch.

* :class:`InstantMergeSketch` — small counters that fuse with their pair
  neighbour at the first overflow (``8 -> 16 -> 32`` bit lifecycle, no
  sharing state). This is the classic dynamic-merging behaviour the main
  sketch defers. It is a leaf of the main sketch's engine
  (``sketch.DynamicSketch``) with ``shared_bits`` pinned to 0, not a
  separate implementation.
* :class:`CountMinSketch` — plain full-width counters, the usual baseline.
  Its batched count runs in the kernel library (``count_min_row`` in
  ``_encode.c``), and in numpy without it.

For fair comparisons the state-tracking overhead of the dynamic schemes is
charged against them: a dynamic row of ``w`` base counters costs
``w * (counter_bits + 1)`` bits, and the Count-Min width is derived from the
same bit budget.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace

import numpy as np

from . import _kernel
from .hashing import MAX_WIDTH, ROWS, SEEDS, WIDTH, RowSketch, row_seeds
from .rules import Int, Rules, SpecError, checked
from .sketch import DynamicSketch, SketchConfig


class InstantMergeSketch(DynamicSketch):
    """Dynamic sketch that fuses a full counter with its neighbour at once.

    Accepts the same config as the main sketch; ``shared_bits`` is set to 0.
    """

    scheme = "instant"

    def __init__(self, config: SketchConfig) -> None:
        super().__init__(replace(config, shared_bits=0))


@checked
@dataclass(frozen=True)
class CountMinConfig:
    """Plain Count-Min shape: rows of full-width (32-bit) counters."""

    rows: int = ROWS.field(3)
    width: int = WIDTH.field(1152)
    seeds: tuple[int, ...] = SEEDS.field(())

    def __post_init__(self) -> None:
        self.RULES.apply(self)
        row_seeds(self)


_MAX32 = (1 << 32) - 1

# ``_encode_batch`` gives ``count_min_row`` room for its four lane histograms
# (16 bytes a slot; the kernel fixes the lane count at four) when a call has
# at least 4 packets a slot, ``4 * width <= n``, and NULL, one saturating +1
# at a time, otherwise. Only a call that uses the lanes allocates them, and
# they take at most half the bytes of its int64 slot indices.
# Pre-placed slots, best of 41, one lane against four, in us (2-core x86-64
# host with AVX-512, gcc 12 -O2):
#
#   width   packets    uniform        Zipf 1.0
#   1152    1 a slot   3.9 / 4.9      3.9 / 4.7
#   1152    4 a slot   6.3 / 6.1      6.0 / 6.1
#   1152    32 a slot  29.7 / 18.2    29.1 / 20.1
#   4096    16 a slot  48.6 / 43.1    47.2 / 36.7
#
# Below 4 packets a slot, clearing and merging the lanes costs more than they
# save.


class CountMinSketch(RowSketch):
    """Count-Min with saturating 32-bit counters, one ``array('I')`` per row.

    ``_encode`` (per packet, the specification) adds 1 below ``2**32 - 1``.
    ``_encode_batch`` counts a chunk in the kernel library's
    ``count_min_row``, passing it lanes or NULL by the rule above the class;
    without the library it adds the chunk's ``np.bincount`` and saturates
    once. All three leave the row bit-identical.
    """

    scheme = "count-min"

    def __init__(self, config: CountMinConfig) -> None:
        super().__init__(config)
        self._rows = [array("I", [0]) * self._w for _ in range(self._d)]

    def _encode_batch(self, row_idx: int, idx: np.ndarray) -> None:
        """Count a chunk of packets, given by slot (each in ``[0, width)``),
        exactly as ``_encode`` would one by one: with the kernel library's
        ``count_min_row`` when it could be built, else with ``np.bincount``
        (see the class docstring)."""
        lib = _kernel.load()
        if lib is None:
            row = np.frombuffer(self._rows[row_idx], dtype=np.uint32)
            row[:] = np.minimum(row + np.bincount(idx, minlength=self._w), _MAX32)
            return
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        lanes = np.empty(4 * self._w, dtype=np.uint32) if 4 * self._w <= len(idx) else None
        lib.count_min_row(
            self._rows[row_idx].buffer_info()[0], self._w, idx.ctypes.data, len(idx),
            None if lanes is None else lanes.ctypes.data,
        )

    def _encode(self, row_idx: int, slot: int) -> None:
        row = self._rows[row_idx]
        if row[slot] < _MAX32:
            row[slot] += 1

    def _decode(self, row_idx: int, slot: int) -> int:
        return self._rows[row_idx][slot]

    def _decode_row(self, row_idx: int) -> np.ndarray:
        return np.frombuffer(self._rows[row_idx], dtype=np.uint32)

    def counter_count(self) -> list[int]:
        return [self._w] * self._d

    def row_total(self, row: int) -> int:
        return sum(self._rows[row])

    def memory_bits(self) -> int:
        return self._d * self._w * 32


def count_min_width_for(width: int, counter_bits: int = 8) -> int:
    """Count-Min width occupying the same bits as a dynamic row of ``width``."""
    return max(1, round(width * (counter_bits + 1) / 32))


_BUDGET = Rules(memory_bytes=Int(), rows=ROWS, counter_bits=Int(1))


def equal_memory_widths(
    memory_bytes: int, rows: int, counter_bits: int = 8
) -> tuple[int, int]:
    """Resolve (dynamic width, Count-Min width) from one memory budget.

    Both layouts fit within ``memory_bytes`` and match each other's bit cost
    to well under 1%; the dynamic width is rounded down to a multiple of 4,
    and must lie from 4 up to ``2**32 - 4``, the widest a row may be.
    """
    memory_bytes, rows, counter_bits = _BUDGET.args(
        memory_bytes=memory_bytes, rows=rows, counter_bits=counter_bits
    )
    bits_per_row = (memory_bytes * 8) // rows
    dyn = (bits_per_row // (counter_bits + 1)) & ~3
    if not 4 <= dyn <= MAX_WIDTH - 4:
        # a row of 4 slots, each counter_bits + 1 bits with its share of the
        # group code, in every row; a budget of 2**32 slots a row is too much
        least = -(-rows * (counter_bits + 1) // 2)
        most = rows * (counter_bits + 1) * (MAX_WIDTH // 8) - 1
        bound = f"at least {least}" if dyn < 4 else f"at most {most}"
        raise SpecError(
            "memory_bytes",
            f"memory budget too {'small' if dyn < 4 else 'large'} for a dynamic row: "
            f"memory_bytes must be {bound} for {rows} rows of {counter_bits}-bit counters, "
            f"not {memory_bytes}"
        )
    cm = count_min_width_for(dyn, counter_bits)
    return dyn, cm
