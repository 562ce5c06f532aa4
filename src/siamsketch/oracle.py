"""Exact ground-truth counting, one dict entry per flow. Only the tests (as
their oracle) and the benchmark (for its flow universe) use it: neither
``run_experiment`` nor any metric does, since the ground truth there is one
``np.unique`` of the benign keys."""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

import numpy as np


class ExactCounter:
    """Exact multiset of observed flow keys; the only unbounded-memory part."""

    def __init__(self) -> None:
        self._counts: dict[Hashable, int] = {}
        self.total = 0

    def observe(self, key: Hashable, count: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + count
        self.total += count

    def observe_stream(self, keys: np.ndarray | Iterable[Hashable]) -> None:
        if isinstance(keys, np.ndarray):
            uniq, counts = np.unique(keys, return_counts=True)
            for k, c in zip(uniq.tolist(), counts.tolist()):
                self._counts[k] = self._counts.get(k, 0) + c
            self.total += int(counts.sum()) if len(counts) else 0
            return
        for k in keys:
            self.observe(k)

    def truth(self, key: Hashable) -> int:
        return self._counts.get(key, 0)

    def flows(self) -> Iterator[tuple[Hashable, int]]:
        return iter(self._counts.items())

    def keys(self) -> Iterator[Hashable]:
        return iter(self._counts.keys())

    @property
    def distinct(self) -> int:
        return len(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts
