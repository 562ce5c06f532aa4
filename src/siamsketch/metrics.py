"""Accuracy metrics and the security applications evaluated over a sketch.

Every application works on arrays over one flow universe that the caller
holds (``run_experiment``: the benign flow keys, from one ``np.unique``): the
sketch's estimates and the exact counts, one value per flow. Heavy hitters
and changes are boolean masks over that universe, scored by counting.
Detection thresholds are inclusive.

The error metrics take lists or numpy arrays alike and give the same value
for both; for integers it is the one the per-flow Python arithmetic gives,
bit for bit. Integers whose magnitudes all stay below 2**30 are computed in
int64, so every difference and every square is exact (larger integers are
computed on Python ints). Converting such an int64 to float64 is exact too,
and float64 division is correctly rounded, as Python's ``int / int`` is. The
per-flow terms are then summed exactly and rounded once, so the sum is
independent of order. ``metric_are`` sums its float64 terms with the kernel
library's ``sum_buckets`` (:func:`_exact_sum`), which returns the value
``math.fsum`` returns, bit for bit; ``math.fsum`` itself still sums them
without the library, for terms that are not float64 (Python objects, from
integers past 2**30, or float32), and when a term is negative, -0.0, NaN or
infinite. ``metric_rmse`` sums int64 squares in int64 when the largest
square is at most 2**53 and ``n`` times it stays below 2**63: every square
is then an exact float and the sum cannot wrap, so ``float`` of the integer
sum is the correctly rounded sum that ``math.fsum`` of the squares returns.
Other inputs are summed by ``fsum``.

A flow-size distribution is a histogram dict, size -> number of flows
(``estimate_fsd``, ``true_fsd``). It keeps its size classes in the order each
size first occurs, as a dict filled flow by flow does: ``estimate_entropy``
adds floats in that order, so the order is part of the value it returns. An
integer array of ``n`` sizes, none negative and none above
``_COUNTED_SPAN * n``, is counted by ``np.bincount``; any other input (floats,
negatives, Python objects, larger sizes such as Count-Min's 2**32 - 1) is
sorted by ``np.unique``. Both give the same dict in the same order.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import _kernel

# Integers of smaller magnitude are computed in int64: their differences
# stay below 2**31 and the squares of those below 2**62.
_INT64_SAFE = 1 << 30

# Sizes up to this many times their number are counted, not sorted: counting
# walks one table slot per possible size. On 20k and 185k uint64 sizes it beat
# np.unique up to two to four times their number and lost beyond.
_COUNTED_SPAN = 3


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


def _exact_sum(terms: np.ndarray) -> float:
    """``math.fsum`` of an array of terms, bit for bit: the correctly rounded
    sum, or OverflowError when it is past the largest float.

    For float64 terms, none negative, -0.0 or not finite, the kernel
    library's ``sum_buckets`` adds every significand into the integer bucket
    of its exponent in one pass; the buckets form the exact sum as one
    integer count of ``2**-1074``, and Python's ``int / int``, correctly
    rounded as ``fsum`` is, rounds it once. Other terms, or any terms without
    the library, go to ``fsum``."""
    lib = _kernel.load()
    if lib is not None and terms.dtype == np.float64:
        terms = np.ascontiguousarray(terms)
        buckets = np.empty((2047, 2), dtype=np.uint64)
        if lib.sum_buckets(terms.ctypes.data, len(terms), buckets.ctypes.data) == len(terms):
            used = np.flatnonzero(buckets.any(axis=1))
            total = 0
            for e, (lo, hi) in zip(used.tolist(), buckets[used].tolist()):
                total += ((hi << 64) | lo) << (e - 1)
            return total / (1 << 1074)
    return math.fsum(terms.tolist())


def metric_are(truths: Sequence[float], estimates: Sequence[float]) -> float:
    """Average relative error: mean of ``|f - f_hat| / f``."""
    t, e = _flow_arrays(truths, estimates)
    if (t <= 0).any():
        raise ValueError("truths must be positive")
    return _exact_sum(abs(t - e) / t) / len(t)


def metric_rmse(truths: Sequence[float], estimates: Sequence[float]) -> float:
    """Root of the mean squared error."""
    t, e = _flow_arrays(truths, estimates)
    d = t - e
    sq = d * d
    if sq.dtype == np.int64:
        top = int(sq.max())
        if top <= 1 << 53 and len(sq) * top < 1 << 63:
            return math.sqrt(float(int(sq.sum())) / len(t))
    return math.sqrt(math.fsum(sq.tolist()) / len(t))


def _scores(detected: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(F1, recall) of a boolean mask of detected flows against a boolean mask
    of the true ones, both over one key array. Recall is 1 when nothing is
    true; F1 is 0 then, and whenever nothing correct is detected."""
    detected, truth = np.asarray(detected), np.asarray(truth)
    if detected.dtype != bool or truth.dtype != bool:
        raise TypeError("detected and truth must be boolean masks")
    if detected.shape != truth.shape:
        raise ValueError("mask shapes differ")
    hit = int(np.count_nonzero(detected & truth))
    n_detected = int(np.count_nonzero(detected))
    n_true = int(np.count_nonzero(truth))
    precision = hit / n_detected if n_detected else 0.0
    recall = hit / n_true if n_true else 1.0
    if precision == 0.0:
        return 0.0, recall
    return 2.0 * precision * recall / (precision + recall), recall


def metric_f1(detected: np.ndarray, truth: np.ndarray) -> float:
    """F1 of the detected flows against the true ones; 0 when both are
    undefined."""
    return _scores(detected, truth)[0]


def recall_of(detected: np.ndarray, truth: np.ndarray) -> float:
    """Share of the true flows that is detected; 1 when none is true."""
    return _scores(detected, truth)[1]


def true_heavy_hitters(truths: np.ndarray, threshold: int) -> np.ndarray:
    """Mask of the flows whose exact count reaches ``threshold``."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return np.asarray(truths) >= threshold


def detect_changes(before: np.ndarray, after: np.ndarray, threshold: int) -> np.ndarray:
    """Mask of the flows whose value in ``after`` differs from the one in
    ``before`` by at least ``threshold``."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    before, after = _exact_arrays(before, after)
    if len(before) != len(after):
        raise ValueError("length mismatch")
    return abs(after - before) >= threshold


def threshold_from_fraction(fraction: float, total_packets: int) -> int:
    """Resolve a detection threshold given as a fraction of the stream."""
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    scaled = fraction * total_packets
    if not math.isfinite(scaled):
        raise ValueError("fraction must be finite")
    return max(1, round(scaled))


def _histogram(sizes: Iterable[int] | np.ndarray) -> dict[int, int]:
    """Histogram dict of a sequence or array of sizes, size -> number of
    flows, its sizes (Python numbers) in the order each first occurs.

    ``n`` integers (a signed or unsigned integer dtype), none negative and
    the largest at most ``_COUNTED_SPAN * n``, are counted: a size's class is
    the size itself, ``np.bincount`` counts the classes and ``np.minimum.at``
    finds where each first occurs. Any other input is sorted into its classes
    by ``np.unique``."""
    if not isinstance(sizes, np.ndarray):
        sizes = _sequence_array(list(sizes))
    n = len(sizes)
    if sizes.dtype.kind in "iu" and n and sizes.min() >= 0 and sizes.max() <= _COUNTED_SPAN * n:
        inverse = sizes.astype(np.intp, copy=False)
        counts = np.bincount(inverse)
        values = present = np.flatnonzero(counts)
    else:
        values, inverse, counts = np.unique(sizes, return_inverse=True, return_counts=True)
        present = slice(None)
    first = np.full(len(counts), n, dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(n))
    order = np.argsort(first[present])
    return dict(zip(values[order].tolist(), counts[present][order].tolist()))


def estimate_fsd(estimates: np.ndarray) -> dict[int, int]:
    """Histogram dict of a sketch's estimates: size -> number of flows."""
    return _histogram(estimates)


def true_fsd(truths: np.ndarray) -> dict[int, int]:
    """Histogram dict of the exact flow sizes."""
    return _histogram(truths)


def metric_wmre(estimated: dict[int, int], actual: dict[int, int]) -> float:
    """Weighted mean relative error between two flow-size histograms.

    ``sum_i |n_i - n_hat_i| / sum_i (n_i + n_hat_i) / 2`` over all sizes
    present in either histogram. The numerator is an integer sum; the
    denominator is half the sum of the two histograms' flow totals, which is
    the float sum of its half-integer terms exactly while the totals stay
    below 2**53.
    """
    sizes = estimated.keys() | actual.keys()
    if not sizes:
        raise ValueError("both distributions are empty")
    num = sum(abs(actual.get(i, 0) - estimated.get(i, 0)) for i in sizes)
    return num / ((sum(actual.values()) + sum(estimated.values())) / 2.0)


def estimate_entropy(fsd: dict[int, int]) -> float:
    """Size-weighted entropy of a flow-size histogram.

    ``-sum_i i * (n_i / N) * ln(n_i / N)`` with ``N`` the total number of
    flows; empty size classes contribute nothing.
    """
    n_flows = sum(fsd.values())
    if n_flows == 0:
        raise ValueError("empty distribution")
    acc = 0.0
    for size, count in fsd.items():
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
