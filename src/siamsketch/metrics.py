"""Accuracy metrics and the security applications evaluated over a sketch.

All applications enumerate the key universe from the exact oracle (sketches
are not invertible) and query the sketch for every key: in one
``query_many`` call when the keys are integers, per key when some are bytes.
Detection thresholds are inclusive: a flow whose value reaches the threshold
is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from .hashing import u64_keys
from .oracle import ExactCounter


def _as_batch(keys: list | np.ndarray) -> Sequence[Hashable]:
    """Integer keys (Python ints, numpy integers) converted once to the uint64
    array ``query_many`` takes; a list with any ``bytes`` among them as is."""
    try:
        return u64_keys(keys)
    except TypeError:
        return keys


def _query_keys(sketch, batch) -> list[int]:
    """The sketch's value for every key of an ``_as_batch`` result, in order:
    one ``query_many`` for an array, key by key for a list."""
    if not isinstance(batch, list):
        return sketch.query_many(batch)
    return [sketch.query(k) if isinstance(k, bytes) else sketch.query_u64(int(k)) for k in batch]


def metric_are(truths: Sequence[float], estimates: Sequence[float]) -> float:
    """Average relative error: mean of ``|f - f_hat| / f``."""
    if len(truths) != len(estimates):
        raise ValueError("length mismatch")
    if not truths:
        raise ValueError("empty input")
    if any(t <= 0 for t in truths):
        raise ValueError("truths must be positive")
    return math.fsum(abs(t - e) / t for t, e in zip(truths, estimates)) / len(truths)


def metric_rmse(truths: Sequence[float], estimates: Sequence[float]) -> float:
    """Root of the mean squared error."""
    if len(truths) != len(estimates):
        raise ValueError("length mismatch")
    if not truths:
        raise ValueError("empty input")
    return math.sqrt(
        math.fsum((t - e) ** 2 for t, e in zip(truths, estimates)) / len(truths)
    )


def metric_f1(detected: set, truth: set) -> float:
    """F1 of a detected set against the true set; 0 when both are undefined."""
    hit = len(detected & truth)
    precision = hit / len(detected) if detected else 0.0
    recall = hit / len(truth) if truth else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def recall_of(detected: set, truth: set) -> float:
    if not truth:
        return 1.0
    return len(detected & truth) / len(truth)


def detect_heavy_hitters(sketch, keys: Iterable[Hashable], threshold: int) -> set:
    """Keys whose sketch value reaches ``threshold`` (inclusive)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    keys = list(keys)
    return {k for k, v in zip(keys, _query_keys(sketch, _as_batch(keys))) if v >= threshold}


def true_heavy_hitters(oracle: ExactCounter, threshold: int) -> set:
    return {k for k, c in oracle.flows() if c >= threshold}


def detect_changes(
    sketch_t1, sketch_t2, keys: Iterable[Hashable], threshold: int
) -> set:
    """Keys whose value changed by at least ``threshold`` across two windows.
    Keys given as a numpy array come back as Python ints."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if type(sketch_t1) is not type(sketch_t2) or sketch_t1.config != sketch_t2.config:
        raise ValueError("window sketches must share scheme and config")
    if not isinstance(keys, np.ndarray):
        keys = list(keys)
    batch = _as_batch(keys)
    before = _query_keys(sketch_t1, batch)
    after = _query_keys(sketch_t2, batch)
    hits = [i for i, (a, b) in enumerate(zip(before, after)) if abs(b - a) >= threshold]
    if isinstance(keys, np.ndarray):
        return set(keys[hits].tolist())
    return {keys[i] for i in hits}


def threshold_from_fraction(fraction: float, total_packets: int) -> int:
    """Resolve a detection threshold given as a fraction of the stream."""
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    return max(1, round(fraction * total_packets))


@dataclass
class FlowSizeDistribution:
    """Histogram of flow sizes: ``counts[i]`` flows have size ``i``."""

    counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "FlowSizeDistribution":
        counts: dict[int, int] = {}
        for s in sizes:
            counts[s] = counts.get(s, 0) + 1
        return cls(counts)

    @property
    def total_flows(self) -> int:
        return sum(self.counts.values())

    @property
    def largest(self) -> int:
        return max(self.counts) if self.counts else 0

    def count(self, size: int) -> int:
        return self.counts.get(size, 0)


def estimate_fsd(sketch, keys: Iterable[Hashable]) -> FlowSizeDistribution:
    return FlowSizeDistribution.from_sizes(_query_keys(sketch, _as_batch(list(keys))))


def true_fsd(oracle: ExactCounter) -> FlowSizeDistribution:
    return FlowSizeDistribution.from_sizes(c for _, c in oracle.flows())


def metric_wmre(
    estimated: FlowSizeDistribution, actual: FlowSizeDistribution
) -> float:
    """Weighted mean relative error between two flow-size histograms.

    ``sum_i |n_i - n_hat_i| / sum_i (n_i + n_hat_i) / 2`` over all sizes
    present in either histogram.
    """
    sizes = set(estimated.counts) | set(actual.counts)
    if not sizes:
        raise ValueError("both distributions are empty")
    num = 0
    den = 0.0
    for i in sizes:
        a = actual.count(i)
        e = estimated.count(i)
        num += abs(a - e)
        den += (a + e) / 2.0
    return num / den


def estimate_entropy(fsd: FlowSizeDistribution) -> float:
    """Size-weighted entropy of a flow-size histogram.

    ``-sum_i i * (n_i / N) * ln(n_i / N)`` with ``N`` the total number of
    flows; empty size classes contribute nothing.
    """
    n_flows = fsd.total_flows
    if n_flows == 0:
        raise ValueError("empty distribution")
    acc = 0.0
    for size, count in fsd.counts.items():
        if count == 0:
            continue
        p = count / n_flows
        acc -= size * p * math.log(p)
    return acc


def metric_re(estimated: float, actual: float) -> float:
    """Relative error ``|1 - estimated/actual|``.

    When ``actual`` is zero the ratio is undefined; the absolute difference
    is returned instead (callers should label such values distinctly).
    """
    if actual == 0.0:
        return abs(estimated - actual)
    return abs(1.0 - estimated / actual)
