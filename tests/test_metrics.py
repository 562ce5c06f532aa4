import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siamsketch import _kernel, metrics
from siamsketch import (
    CountMinConfig,
    CountMinSketch,
    SiameseSketch,
    SketchConfig,
    detect_changes,
    estimate_entropy,
    estimate_fsd,
    metric_are,
    metric_f1,
    metric_re,
    metric_rmse,
    metric_wmre,
    threshold_from_fraction,
    true_fsd,
    true_heavy_hitters,
)
from siamsketch.metrics import recall_of

from conftest import collision_free_keys
from reference_impls import ref_are, ref_entropy, ref_f1, ref_re, ref_rmse, ref_wmre


# -- formula cases ------------------------------------------------------------


def test_are_cases():
    assert metric_are([10, 20], [10, 20]) == 0.0
    assert metric_are([10, 20], [11, 18]) == pytest.approx(0.1)
    assert metric_are([4], [6]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        metric_are([], [])
    with pytest.raises(ValueError):
        metric_are([0], [1])
    with pytest.raises(ValueError):
        metric_are([1, 2], [1])


def test_rmse_cases():
    assert metric_rmse([5, 6], [5, 6]) == 0.0
    assert metric_rmse([10, 10], [13, 6]) == pytest.approx(math.sqrt(12.5))
    truths = list(range(1, 20))
    assert metric_rmse(truths, [t + 7 for t in truths]) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        metric_rmse([], [])


@pytest.mark.parametrize(
    "top, n, integer_sum",
    [
        (94_906_265, 5, True),  # the largest square at most 2**53
        (94_906_266, 5, False),  # the smallest square above it
        (2**26, 2047, True),  # n * top**2 = 2**63 - 2**52
        (2**26, 2048, False),  # n * top**2 = 2**63
    ],
)
def test_rmse_integer_sum_at_its_guards(top, n, integer_sum):
    # int64 squares are summed as integers while the largest is at most
    # 2**53 and n times it is below 2**63; either path gives the value of
    # fsum over the per-flow squares, rounded sums past 2**53 included
    rng = np.random.default_rng(top + n)
    truths = rng.integers(1, 1000, size=n)
    diffs = rng.integers(-top, top + 1, size=n)
    diffs[n // 2] = top
    estimates = truths + diffs
    tl, el = truths.tolist(), estimates.tolist()
    want = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(tl, el)) / n)
    with patch.object(math, "fsum", wraps=math.fsum) as fsum:
        assert metric_rmse(truths, estimates) == want
        assert metric_rmse(tl, el) == want
    assert fsum.called is not integer_sum


_TERMS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.0**-1022, exclude_max=True),  # subnormals
    st.floats(2.0**1000, allow_infinity=False),  # near the largest float
    st.floats(0.0, allow_infinity=False),
)
# each sends the sum to fsum
_FALLBACK_TERMS = st.one_of(
    st.sampled_from([-0.0, math.nan, math.inf]),
    st.floats(max_value=-(2.0**-1074)),
)


@given(
    terms=st.lists(_TERMS, max_size=60),
    run=st.tuples(_TERMS, st.integers(0, 5000)),
    bad=st.none() | st.tuples(_FALLBACK_TERMS, st.integers(0, 10**6)),
)
@example(terms=[], run=(2.0 - 2.0**-52, 5000), bad=None)  # the low word wraps twice
@example(terms=[1.0], run=(1e-16, 5000), bad=None)
@example(terms=[np.finfo(float).max], run=(2.0**970, 1), bad=None)  # ties up to 2**1024
@example(terms=[np.finfo(float).max], run=(2.0**969, 2), bad=None)
@example(terms=[5e-324, 2.0**-1022], run=(2.0**-1022 - 5e-324, 3), bad=(-0.0, 1))
# with a negative term, fsum overflows in one order and not in the other
@example(
    terms=[1.006221326780516e308, 7.914718080817997e307], run=(0.0, 0), bad=(-4.9896007738368e291, 2)
)
@settings(max_examples=300, deadline=None)
def test_exact_sum_matches_fsum(terms, run, bad):
    # zeros, subnormals, terms near 2**1023 and long runs of one term, whose
    # significands carry from a bucket's low word into its high word: the
    # kernel's bucket sum returns fsum's float in either order, or raises
    # OverflowError as fsum does; a -0.0, negative, NaN or infinite term goes
    # to fsum itself, whose partials near the top of the float range depend
    # on the order of the terms, so each order is held to fsum of that order
    value, count = run
    a = np.concatenate([np.array(terms, dtype=np.float64), np.full(count, value)])
    if bad is not None:
        a = np.insert(a, bad[1] % (len(a) + 1), bad[0])

    def outcome(sum_of, values):
        try:
            return repr(sum_of(values))
        except OverflowError:
            return OverflowError

    kernel = bad is None and _kernel.load() is not None
    orders = [a, a[::-1]]
    wants = [outcome(math.fsum, (a if kernel else values).tolist()) for values in orders]
    with patch.object(math, "fsum", wraps=math.fsum) as fsum:
        for values, want in zip(orders, wants):
            assert outcome(metrics._exact_sum, values) == want
    assert fsum.called is not kernel


def _mask(*hits, n=6):
    """A boolean mask over ``n`` flows, set at ``hits``."""
    mask = np.zeros(n, dtype=bool)
    mask[list(hits)] = True
    return mask


def test_f1_cases():
    assert metric_f1(_mask(1, 2), _mask(1, 2)) == 1.0
    assert metric_f1(_mask(), _mask()) == 0.0
    assert metric_f1(_mask(1), _mask()) == 0.0
    assert metric_f1(_mask(1), _mask(2)) == 0.0
    assert metric_f1(_mask(1, 2, 3, 4), _mask(1, 2)) == pytest.approx(2 * (1 / 2) / (3 / 2))
    assert recall_of(_mask(), _mask()) == recall_of(_mask(1), _mask()) == 1.0
    assert recall_of(_mask(1, 5), _mask(1, 2, 3, 4)) == 0.25
    # an empty universe follows the same conventions
    empty = np.zeros(0, dtype=bool)
    assert (metric_f1(empty, empty), recall_of(empty, empty)) == (0.0, 1.0)
    for score in (metric_f1, recall_of):
        # a length-1 mask is refused, not broadcast over the other
        with pytest.raises(ValueError, match="shape"):
            score(_mask(0, n=1), _mask(0, 3))
        with pytest.raises(ValueError, match="shape"):
            score(_mask(n=4), _mask(n=5))
        # sets, or counts read as truth values, are not masks
        with pytest.raises(TypeError):
            score({1, 2}, {1, 2})
        with pytest.raises(TypeError):
            score(np.array([1, 0, 2]), _mask(0, n=3))


def test_mask_scores_match_the_set_scores():
    # F1 and recall of two masks over one key array equal those of the key
    # sets the masks select
    rng = np.random.default_rng(11)
    keys = np.arange(40)
    for _ in range(200):
        detected, truth = rng.random(40) < rng.random(), rng.random(40) < rng.random()
        d, t = set(keys[detected].tolist()), set(keys[truth].tolist())
        assert metric_f1(detected, truth) == pytest.approx(ref_f1(d, t), rel=1e-12)
        assert recall_of(detected, truth) == (len(d & t) / len(t) if t else 1.0)


def test_error_metrics_take_lists_and_arrays_alike():
    rng = np.random.default_rng(5)
    truths = rng.integers(1, 5000, size=400)
    estimates = np.maximum(truths + rng.integers(-40, 300, size=400), 0)
    # integer input gives exactly what per-flow Python arithmetic gives
    tl, el = truths.tolist(), estimates.tolist()
    assert metric_are(truths, estimates.astype(np.uint64)) == math.fsum(
        abs(a - b) / a for a, b in zip(tl, el)
    ) / len(tl)
    assert metric_rmse(truths, estimates.astype(np.uint64)) == math.sqrt(
        math.fsum((a - b) ** 2 for a, b in zip(tl, el)) / len(tl)
    )
    for t, e in ((truths, estimates), (truths.astype(float), estimates.astype(float))):
        forms = [
            (t.tolist(), e.tolist()),
            (t, e),
            (t.tolist(), e),
            (t, e.astype(np.uint64) if e.dtype.kind == "i" else e),
        ]
        want = (ref_are(t.tolist(), e.tolist()), ref_rmse(t.tolist(), e.tolist()))
        for ft, fe in forms:
            assert (metric_are(ft, fe), metric_rmse(ft, fe)) == pytest.approx(want, rel=1e-12)
        got = {(metric_are(ft, fe), metric_rmse(ft, fe)) for ft, fe in forms}
        assert len(got) == 1
    # values past int64's exact range are computed on Python ints
    big = [2**62, 2**63 + 5]
    assert metric_are(big, [2**62 + 1, 2**63]) == (1 / 2**62 + 5 / (2**63 + 5)) / 2
    assert metric_are(np.array(big, dtype=np.uint64), [2**62 + 1, 2**63]) == metric_are(
        big, [2**62 + 1, 2**63]
    )
    assert metric_rmse([0], [2**40]) == 2.0**40
    for args in (([], []), (np.array([]), np.array([]))):
        for metric in (metric_are, metric_rmse):
            with pytest.raises(ValueError, match="empty"):
                metric(*args)
    for metric in (metric_are, metric_rmse):
        with pytest.raises(ValueError, match="length"):
            metric(np.array([1, 2]), np.array([1]))
    with pytest.raises(ValueError, match="positive"):
        metric_are(np.array([1, 0]), np.array([1, 3]))
    # 185k flows shaped as many-flows' (most flows small, a few large, about
    # a third estimated exactly): the kernel's exact sum and the fsum that
    # runs without the library give one float
    flows = 185_024
    truths = np.minimum(rng.zipf(1.6, size=flows), 300_000)
    estimates = truths + rng.integers(0, 40, size=flows) * (rng.random(flows) < 0.7)
    tl, el = truths.tolist(), estimates.tolist()
    want = math.fsum(abs(a - b) / a for a, b in zip(tl, el)) / flows
    assert metric_are(truths, estimates) == want
    with patch.object(_kernel, "load", lambda: None):
        assert metric_are(truths, estimates) == want


def test_fsd_from_lists_and_arrays_alike():
    sizes = [3, 1, 3, 7, 1, 3, 2]
    want = {3: 3, 1: 2, 7: 1, 2: 1}
    for form in (sizes, np.array(sizes), np.array(sizes, dtype=np.uint64), iter(sizes)):
        fsd = metrics._histogram(form)
        assert fsd == want
        assert list(fsd) == [3, 1, 7, 2]  # first-seen order
        assert all(type(k) is int and type(c) is int for k, c in fsd.items())
    floats = metrics._histogram(np.array(sizes, dtype=float))
    assert floats == want and list(floats) == [3, 1, 7, 2]
    assert metrics._histogram(np.array([], dtype=np.int64)) == {}
    assert metrics._histogram([2**63 + 1, 5, 2**63 + 1]) == {2**63 + 1: 2, 5: 1}
    assert metrics._histogram([]) == {}


def _histogram_paths(sizes) -> tuple[dict[int, int], dict[int, int], bool]:
    """(``_histogram`` as it chooses, ``_histogram`` kept on its np.unique
    path, whether the first counted with np.bincount)."""
    with patch.object(np, "bincount", wraps=np.bincount) as bincount:
        chosen = metrics._histogram(sizes)
    with patch.object(metrics, "_COUNTED_SPAN", -1):
        sorted_ = metrics._histogram(sizes)
    return chosen, sorted_, bincount.called


@st.composite
def size_arrays(draw) -> np.ndarray:
    """Integer arrays around the counted path's bound: zeros, small sizes,
    a largest size at or just past ``_COUNTED_SPAN * n``, negatives, and
    values near the top of the dtype."""
    dtype = np.dtype(draw(st.sampled_from([np.int64, np.uint64, np.int32, np.uint8])))
    n = draw(st.integers(0, 40))
    top = int(np.iinfo(dtype).max)
    bound = min(metrics._COUNTED_SPAN * n, top)
    low = -3 if dtype.kind == "i" else 0
    value = st.one_of(st.integers(0, 4), st.integers(low, bound), st.integers(top - 2, top))
    sizes = draw(st.lists(value, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        sizes[draw(st.integers(0, n - 1))] = min(bound + draw(st.integers(0, 1)), top)
    return np.array(sizes, dtype=dtype)


@given(size_arrays())
@settings(max_examples=300, deadline=None)
@example(np.array([0, 0, 3, 0, 1], dtype=np.int64))
@example(np.array([2**64 - 1, 5, 2**64 - 2, 5], dtype=np.uint64))
@example(np.array([], dtype=np.uint64))
def test_counted_and_sorted_histograms_agree(sizes):
    chosen, sorted_, _ = _histogram_paths(sizes)
    by_flow: dict[int, int] = {}
    for size in sizes.tolist():
        by_flow[size] = by_flow.get(size, 0) + 1
    assert list(chosen.items()) == list(sorted_.items()) == list(by_flow.items())
    assert all(type(k) is int and type(c) is int for k, c in chosen.items())


def test_histogram_path_follows_the_rule():
    sizes = [3, 1, 3, 7, 1, 3, 2]
    n = 10
    bound = metrics._COUNTED_SPAN * n
    at_bound = np.array([bound] + [0] * (n - 1), dtype=np.uint64)
    cases = [
        (at_bound, True),
        (at_bound + np.uint64(1), False),
        (np.array([0] * n), True),
        (np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64), False),
        (np.array([], dtype=np.int64), False),
        ([], False),
        (np.array([1, -1, 2]), False),
        (np.array([1, 2], dtype=object), False),
        # the inputs of test_fsd_from_lists_and_arrays_alike
        (sizes, True),
        (np.array(sizes), True),
        (np.array(sizes, dtype=np.uint64), True),
        (np.array(sizes, dtype=float), False),
        ([2**63 + 1, 5, 2**63 + 1], False),
    ]
    for form, counted in cases:
        chosen, sorted_, used_bincount = _histogram_paths(form)
        assert used_bincount is counted, form
        assert list(chosen.items()) == list(sorted_.items())


def test_wmre_cases():
    a = {1: 2}
    b = {2: 2}
    assert metric_wmre(a, a) == 0.0
    assert metric_wmre(b, a) == pytest.approx(2.0)  # maximal disagreement
    with pytest.raises(ValueError):
        metric_wmre({}, {})


def test_entropy_cases():
    assert estimate_entropy({1: 1}) == 0.0
    assert estimate_entropy({1: 2}) == 0.0
    # three flows of sizes (1, 1, 2), evaluated straight from the formula
    expected = -(1 * (2 / 3) * math.log(2 / 3) + 2 * (1 / 3) * math.log(1 / 3))
    got = estimate_entropy({1: 2, 2: 1})
    assert got == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_entropy({})


def test_re_cases():
    assert metric_re(3.0, 3.0) == 0.0
    assert metric_re(4.5, 3.0) == pytest.approx(0.5)
    assert metric_re(0.25, 0.0) == 0.25  # absolute fallback when actual is 0
    assert metric_re(0.0, 0.0) == 0.0


def test_threshold_from_fraction():
    assert threshold_from_fraction(0.00004, 1_000_000) == 40
    assert threshold_from_fraction(0.00004, 100) == 1  # floor of 1
    with pytest.raises(ValueError):
        threshold_from_fraction(0.0, 100)
    # a threshold that is not a finite number of packets is refused, not
    # left to crash in round()
    for fraction in (math.inf, math.nan, 1e308):
        with pytest.raises(ValueError, match="finite"):
            threshold_from_fraction(fraction, 1_000_000)


# -- agreement with straight-line reimplementations ---------------------------


def test_metrics_match_reference_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        truths = rng.integers(1, 10_000, size=n).astype(float).tolist()
        estimates = (
            np.array(truths) + rng.integers(-50, 200, size=n).astype(float)
        ).tolist()
        assert metric_are(truths, estimates) == pytest.approx(
            ref_are(truths, estimates), rel=1e-12
        )
        assert metric_rmse(truths, estimates) == pytest.approx(
            ref_rmse(truths, estimates), rel=1e-12
        )
        detected, truth = rng.random(30) < 0.3, rng.random(30) < 0.3
        assert metric_f1(detected, truth) == pytest.approx(
            ref_f1(set(np.flatnonzero(detected)), set(np.flatnonzero(truth))), rel=1e-12
        )
        est_c = {int(s): int(c) for s, c in zip(rng.integers(1, 40, size=8), rng.integers(1, 9, size=8))}
        act_c = {int(s): int(c) for s, c in zip(rng.integers(1, 40, size=8), rng.integers(1, 9, size=8))}
        assert metric_wmre(est_c, act_c) == pytest.approx(ref_wmre(est_c, act_c), rel=1e-12)
        assert estimate_entropy(act_c) == pytest.approx(
            ref_entropy(act_c), rel=1e-12
        )
        e, a = float(rng.uniform(0, 5)), float(rng.uniform(0.1, 5))
        assert metric_re(e, a) == pytest.approx(ref_re(e, a), rel=1e-12)


# -- applications over sketches ------------------------------------------------


def _exact_sketch_with_flows(rng, count, low=1, high=50):
    """A sketch fed ``count`` flows that collide in no row, the flows' keys
    as a uint64 array and their exact counts as an int64 array."""
    sk = SiameseSketch(SketchConfig(rows=2, width=256, shared_bits=4, seeds=(1, 2)))
    oracle = Counter()
    for k in collision_free_keys(sk, count, rng):
        n = int(rng.integers(low, high))
        sk.encode_stream(np.full(n, k, dtype=np.uint64))
        oracle[k] += n
    keys = np.array(list(oracle), dtype=np.uint64)
    return sk, keys, np.array(list(oracle.values()), dtype=np.int64)


def test_heavy_hitters_match_brute_force():
    rng = np.random.default_rng(7)
    sk, keys, truths = _exact_sketch_with_flows(rng, 20)
    phi = 25
    heavy = true_heavy_hitters(truths, phi)
    assert heavy.tolist() == [c >= phi for c in truths.tolist()]
    assert 0 < heavy.sum() < len(keys)
    detected = np.array(sk.query_many(keys)) >= phi
    assert (detected == heavy).all()
    assert metric_f1(detected, heavy) == recall_of(detected, heavy) == 1.0


def test_heavy_hitter_threshold_inclusive():
    assert true_heavy_hitters(np.array([10, 9]), 10).tolist() == [True, False]
    assert true_heavy_hitters(np.array([10, 9]), 11).tolist() == [False, False]
    assert true_heavy_hitters([10], 10).tolist() == [True]
    for phi in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            true_heavy_hitters(np.array([10]), phi)


def test_count_min_recall_is_one():
    rng = np.random.default_rng(12)
    keys = rng.integers(0, 1 << 64, size=300, dtype=np.uint64)
    stream = rng.choice(keys, size=30_000)
    universe, truths = np.unique(stream, return_counts=True)
    cm = CountMinSketch(CountMinConfig(rows=3, width=64))
    cm.encode_stream(stream)
    estimates = np.array(cm.query_many(universe))
    for phi in (1, 10, 100, 500):
        assert recall_of(estimates >= phi, true_heavy_hitters(truths, phi)) == 1.0


def test_change_detection():
    rng = np.random.default_rng(8)
    cfg = SketchConfig(rows=2, width=256, shared_bits=4, seeds=(1, 2))
    s1, s2 = SiameseSketch(cfg), SiameseSketch(cfg)
    o1, o2 = Counter(), Counter()
    probe = SiameseSketch(cfg)
    keys = collision_free_keys(probe, 30, rng)
    for k in keys:
        a, b = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        if a:
            s1.encode_stream(np.full(a, k, dtype=np.uint64))
        if b:
            s2.encode_stream(np.full(b, k, dtype=np.uint64))
        o1[k] += a
        o2[k] += b
    phi = 20
    detected = detect_changes(np.array(s1.query_many(keys)), np.array(s2.query_many(keys)), phi)
    truth = [abs(o2[k] - o1[k]) >= phi for k in keys]
    assert detected.tolist() == truth
    assert 0 < sum(truth) < len(keys)
    exact = detect_changes([o1[k] for k in keys], [o2[k] for k in keys], phi)
    assert metric_f1(detected, exact) == 1.0


def test_change_detection_boundary_and_identity():
    cfg = SketchConfig(rows=1, width=8, seeds=(5,))
    s1, s2 = SiameseSketch(cfg), SiameseSketch(cfg)
    s2.encode_stream(np.full(9, 3, dtype=np.uint64))
    before, after = np.array(s1.query_many([3])), np.array(s2.query_many([3]))
    assert detect_changes(before, after, 9).tolist() == [True]  # grows by exactly phi
    assert detect_changes(after, before, 9).tolist() == [True]  # and shrinks by it
    assert detect_changes(before, after, 10).tolist() == [False]
    assert detect_changes(after, after, 1).tolist() == [False]
    # uint64 estimates are subtracted as signed integers, never wrapped
    five, two = np.array([5], dtype=np.uint64), np.array([2], dtype=np.uint64)
    assert detect_changes(five, two, 4).tolist() == [False]
    assert detect_changes(np.zeros(0), np.zeros(0), 1).tolist() == []
    with pytest.raises(ValueError, match="length"):
        detect_changes(np.array([1, 2]), np.array([1]), 1)
    for phi in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            detect_changes(before, after, phi)


def test_fsd_mass_conservation_and_exactness():
    rng = np.random.default_rng(9)
    sk, keys, truths = _exact_sketch_with_flows(rng, 25)
    est = estimate_fsd(np.array(sk.query_many(keys)))
    act = true_fsd(truths)
    assert sum(est.values()) == sum(act.values()) == len(keys)
    assert est == act  # collision-free: identical histograms, in first-seen order
    assert list(est) == list(act)
    assert metric_wmre(est, act) == 0.0
    assert estimate_entropy(est) == pytest.approx(estimate_entropy(act))
