"""Reference schemes driven by the same row hashing as the main sketch.

* :class:`InstantMergeSketch` — small counters that fuse with their pair
  neighbour at the first overflow (``8 -> 16 -> 32`` bit lifecycle, no
  sharing state). This is the classic dynamic-merging behaviour the main
  sketch defers. It is a leaf of the main sketch's engine
  (``sketch.DynamicSketch``) with ``shared_bits`` pinned to 0, not a
  separate implementation.
* :class:`CountMinSketch` — plain full-width counters, the usual baseline.

For fair comparisons the state-tracking overhead of the dynamic schemes is
charged against them: a dynamic row of ``w`` base counters costs
``w * (counter_bits + 1)`` bits, and the Count-Min width is derived from the
same bit budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hashing import RowSketch, derive_seeds, index_batch
from .sketch import DynamicSketch, SketchConfig


class InstantMergeSketch(DynamicSketch):
    """Dynamic sketch that fuses a full counter with its neighbour at once.

    Accepts the same config as the main sketch; ``shared_bits`` is set to 0.
    """

    scheme = "instant"

    def __init__(self, config: SketchConfig) -> None:
        super().__init__(replace(config, shared_bits=0))


@dataclass(frozen=True)
class CountMinConfig:
    """Plain Count-Min shape: rows of full-width (32-bit) counters."""

    rows: int = 3
    width: int = 1152
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError("rows must be at least 1")
        if self.width < 1:
            raise ValueError("width must be positive")
        if not self.seeds:
            object.__setattr__(self, "seeds", derive_seeds(0, self.rows))
        elif len(self.seeds) != self.rows:
            raise ValueError("seeds must provide one seed per row")


_MAX32 = (1 << 32) - 1


class CountMinSketch(RowSketch):
    """Count-Min with saturating 32-bit counters."""

    scheme = "count-min"

    def __init__(self, config: CountMinConfig) -> None:
        super().__init__(config)
        self._rows = [[0] * self._w for _ in range(self._d)]

    def encode_stream(self, keys: np.ndarray) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        for r in range(self._d):
            row = self._rows[r]
            for i in index_batch(keys, self.config.seeds[r], self._w).tolist():
                v = row[i]
                if v < _MAX32:
                    row[i] = v + 1
        self.packet_count += len(keys)

    def _encode(self, row_idx: int, slot: int) -> None:
        row = self._rows[row_idx]
        if row[slot] < _MAX32:
            row[slot] += 1

    def _decode(self, row_idx: int, slot: int) -> int:
        return self._rows[row_idx][slot]

    def counter_count(self) -> list[int]:
        return [self._w] * self._d

    def row_total(self, row: int) -> int:
        return sum(self._rows[row])

    def memory_bits(self) -> int:
        return self._d * self._w * 32


def dynamic_row_bits(width: int, counter_bits: int = 8) -> int:
    """Bit cost of one dynamic row: counters plus one state bit per counter."""
    return width * (counter_bits + 1)


def count_min_width_for(width: int, counter_bits: int = 8) -> int:
    """Count-Min width occupying the same bits as a dynamic row of ``width``."""
    return max(1, round(width * (counter_bits + 1) / 32))


def equal_memory_widths(
    memory_bytes: int, rows: int, counter_bits: int = 8
) -> tuple[int, int]:
    """Resolve (dynamic width, Count-Min width) from one memory budget.

    Both layouts fit within ``memory_bytes`` and match each other's bit cost
    to well under 1%; the dynamic width is rounded down to a multiple of 4.
    """
    bits_per_row = (memory_bytes * 8) // rows
    dyn = (bits_per_row // (counter_bits + 1)) & ~3
    if dyn < 4:
        raise ValueError("memory budget too small for a dynamic row")
    cm = count_min_width_for(dyn, counter_bits)
    return dyn, cm
