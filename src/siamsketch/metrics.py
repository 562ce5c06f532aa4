"""Accuracy metrics and the security applications evaluated over a sketch.

Sketches are not invertible, so the applications query a key universe that
the caller gives (``run_experiment``: the benign flow keys, from one
``np.unique``). Each key becomes its flow id once (``hashing.u64_keys``) and
the sketch answers the batch in one ``_query_array`` call. Detection
thresholds are inclusive. Keys given as a numpy array come back as Python ints.

The error metrics take lists or numpy arrays alike and give the same value
for both; for integers it is the one the per-flow Python arithmetic gives,
bit for bit. Integers whose magnitudes all stay below 2**30 are computed in
int64, so every difference and every square is exact (larger integers are
computed on Python ints). Converting such an int64 to float64 is exact too,
and float64 division is correctly rounded, as Python's ``int / int`` is. The
per-flow terms are then summed with ``math.fsum``, which is correctly
rounded and so independent of order.

``FlowSizeDistribution.from_sizes`` keeps its size classes in the order each
size first occurs, as a dict filled flow by flow does: ``metric_wmre`` and
``estimate_entropy`` add floats in that order, so the order is part of the
value they return.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from .hashing import u64_keys
from .oracle import ExactCounter

# Integers of smaller magnitude are computed in int64: their differences
# stay below 2**31 and the squares of those below 2**62.
_INT64_SAFE = 1 << 30


def _exact_arrays(*values) -> tuple[np.ndarray, ...]:
    """``values`` as arrays whose element-wise arithmetic matches Python's:
    integers of magnitude below 2**30 as int64, floats as they are, and
    everything as Python numbers (object arrays) should any input hold larger
    integers or Python objects already."""
    arrays = [v if isinstance(v, np.ndarray) else _sequence_array(v) for v in values]
    ints = [a.dtype.kind in "biu" for a in arrays]
    if any(
        a.dtype == object or (i and a.size and not (-_INT64_SAFE < a.min() and a.max() < _INT64_SAFE))
        for a, i in zip(arrays, ints)
    ):
        return tuple(a.astype(object) for a in arrays)
    return tuple(a.astype(np.int64, copy=False) if i else a for a, i in zip(arrays, ints))


def _sequence_array(values: Sequence) -> np.ndarray:
    """A sequence as an array, or as Python numbers (an object array) where
    numpy would turn integers into floats: it does for a mix of ints and
    floats, and for ints on both sides of 2**63."""
    a = np.asarray(values)
    if a.dtype.kind == "f" and any(isinstance(v, (int, np.integer)) for v in values):
        return np.array(values, dtype=object)
    return a


def _flow_arrays(truths, estimates) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_exact_arrays` of one value per flow, checked to be non-empty
    and of equal length."""
    t, e = _exact_arrays(truths, estimates)
    if len(t) != len(e):
        raise ValueError("length mismatch")
    if not len(t):
        raise ValueError("empty input")
    return t, e


def _as_batch(keys: Iterable[Hashable]) -> tuple[list | np.ndarray, np.ndarray]:
    """(the keys, as the numpy array they came in or as a list; their flow
    ids, the uint64 array ``_query_array`` takes)."""
    if not isinstance(keys, np.ndarray):
        keys = list(keys)
    return keys, u64_keys(keys)


def _selected(keys: list | np.ndarray, mask: np.ndarray) -> set:
    """The keys where ``mask`` holds: Python ints for a numpy array of keys,
    the given objects for a list."""
    if isinstance(keys, np.ndarray):
        return set(keys[mask].tolist())
    return set(itertools.compress(keys, mask.tolist()))


def metric_are(truths: Sequence[float], estimates: Sequence[float]) -> float:
    """Average relative error: mean of ``|f - f_hat| / f``."""
    t, e = _flow_arrays(truths, estimates)
    if (t <= 0).any():
        raise ValueError("truths must be positive")
    return math.fsum((abs(t - e) / t).tolist()) / len(t)


def metric_rmse(truths: Sequence[float], estimates: Sequence[float]) -> float:
    """Root of the mean squared error."""
    t, e = _flow_arrays(truths, estimates)
    d = t - e
    return math.sqrt(math.fsum((d * d).tolist()) / len(t))


def _scores(hit: int, detected: int, truth: int) -> tuple[float, float]:
    """(F1, recall) of ``hit`` correct detections among ``detected`` against
    ``truth`` true items. Recall is 1 when nothing is true; F1 is 0 then, and
    whenever nothing correct is detected."""
    precision = hit / detected if detected else 0.0
    recall = hit / truth if truth else 1.0
    if precision == 0.0:
        return 0.0, recall
    return 2.0 * precision * recall / (precision + recall), recall


def _mask_scores(detected: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """:func:`_scores` of two boolean masks over one key array."""
    return _scores(
        int(np.count_nonzero(detected & truth)),
        int(np.count_nonzero(detected)),
        int(np.count_nonzero(truth)),
    )


def metric_f1(detected: set, truth: set) -> float:
    """F1 of a detected set against the true set; 0 when both are undefined."""
    return _scores(len(detected & truth), len(detected), len(truth))[0]


def recall_of(detected: set, truth: set) -> float:
    """Share of the true set that is detected; 1 when the true set is empty."""
    return _scores(len(detected & truth), len(detected), len(truth))[1]


def detect_heavy_hitters(sketch, keys: Iterable[Hashable], threshold: int) -> set:
    """Keys whose sketch value reaches ``threshold`` (inclusive)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    keys, batch = _as_batch(keys)
    return _selected(keys, sketch._query_array(batch) >= threshold)


def true_heavy_hitters(oracle: ExactCounter, threshold: int) -> set:
    return {k for k, c in oracle.flows() if c >= threshold}


def _changed(before: np.ndarray, after: np.ndarray, threshold: int) -> np.ndarray:
    """Mask of the places where ``after`` differs from ``before`` by at least
    ``threshold``."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    before, after = _exact_arrays(before, after)
    return abs(after - before) >= threshold


def detect_changes(
    sketch_t1, sketch_t2, keys: Iterable[Hashable], threshold: int
) -> set:
    """Keys whose value changed by at least ``threshold`` across two windows."""
    if type(sketch_t1) is not type(sketch_t2) or sketch_t1.config != sketch_t2.config:
        raise ValueError("window sketches must share scheme and config")
    keys, batch = _as_batch(keys)
    return _selected(
        keys, _changed(sketch_t1._query_array(batch), sketch_t2._query_array(batch), threshold)
    )


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
    def from_sizes(cls, sizes: Iterable[int] | np.ndarray) -> "FlowSizeDistribution":
        """Histogram of a sequence or array of sizes, its sizes (Python
        numbers) in the order each first occurs."""
        if not isinstance(sizes, np.ndarray):
            sizes = _sequence_array(list(sizes))
        uniq, inverse, counts = np.unique(sizes, return_inverse=True, return_counts=True)
        first = np.full(len(uniq), len(sizes), dtype=np.intp)
        np.minimum.at(first, inverse, np.arange(len(sizes)))
        order = np.argsort(first)
        return cls(dict(zip(uniq[order].tolist(), counts[order].tolist())))

    @property
    def total_flows(self) -> int:
        return sum(self.counts.values())

    @property
    def largest(self) -> int:
        return max(self.counts) if self.counts else 0

    def count(self, size: int) -> int:
        return self.counts.get(size, 0)


def estimate_fsd(sketch, keys: Iterable[Hashable]) -> FlowSizeDistribution:
    return FlowSizeDistribution.from_sizes(sketch._query_array(_as_batch(keys)[1]))


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
