"""Exact ground-truth counting, one dict entry per flow. Only the tests (as
their oracle) and the benchmark (for its flow universe) use it: neither
``run_experiment`` nor any metric does, since the ground truth there is one
``np.unique`` of the benign keys."""

from __future__ import annotations

from typing import Iterator

import numpy as np


class ExactCounter:
    """Exact count of each observed flow id; the only unbounded-memory part."""

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}

    def observe_stream(self, keys: np.ndarray) -> None:
        uniq, counts = np.unique(keys, return_counts=True)
        for k, c in zip(uniq.tolist(), counts.tolist()):
            self._counts[k] = self._counts.get(k, 0) + c

    def flows(self) -> Iterator[tuple[int, int]]:
        """(flow id, count) pairs: each call's new flows, in sorted order,
        after those of earlier calls."""
        return iter(self._counts.items())
