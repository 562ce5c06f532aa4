import math

import numpy as np
import pytest

from siamsketch import (
    CountMinConfig,
    CountMinSketch,
    ExactCounter,
    FlowSizeDistribution,
    SiameseSketch,
    SketchConfig,
    detect_changes,
    detect_heavy_hitters,
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

from conftest import collision_free_keys, key_bytes
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


def test_f1_cases():
    assert metric_f1({1, 2}, {1, 2}) == 1.0
    assert metric_f1(set(), set()) == 0.0
    assert metric_f1({1}, {2}) == 0.0
    assert metric_f1({1, 2, 3, 4}, {1, 2}) == pytest.approx(2 * (1 / 2) / (3 / 2))


def test_wmre_cases():
    a = FlowSizeDistribution({1: 2})
    b = FlowSizeDistribution({2: 2})
    assert metric_wmre(a, a) == 0.0
    assert metric_wmre(b, a) == pytest.approx(2.0)  # maximal disagreement
    with pytest.raises(ValueError):
        metric_wmre(FlowSizeDistribution(), FlowSizeDistribution())


def test_entropy_cases():
    assert estimate_entropy(FlowSizeDistribution({1: 1})) == 0.0
    assert estimate_entropy(FlowSizeDistribution({1: 2})) == 0.0
    # three flows of sizes (1, 1, 2), evaluated straight from the formula
    expected = -(1 * (2 / 3) * math.log(2 / 3) + 2 * (1 / 3) * math.log(1 / 3))
    got = estimate_entropy(FlowSizeDistribution({1: 2, 2: 1}))
    assert got == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_entropy(FlowSizeDistribution())


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
        detected = set(rng.integers(0, 30, size=10).tolist())
        truth_set = set(rng.integers(0, 30, size=10).tolist())
        assert metric_f1(detected, truth_set) == pytest.approx(
            ref_f1(detected, truth_set), rel=1e-12
        )
        est_c = {int(s): int(c) for s, c in zip(rng.integers(1, 40, size=8), rng.integers(1, 9, size=8))}
        act_c = {int(s): int(c) for s, c in zip(rng.integers(1, 40, size=8), rng.integers(1, 9, size=8))}
        assert metric_wmre(
            FlowSizeDistribution(est_c), FlowSizeDistribution(act_c)
        ) == pytest.approx(ref_wmre(est_c, act_c), rel=1e-12)
        assert estimate_entropy(FlowSizeDistribution(act_c)) == pytest.approx(
            ref_entropy(act_c), rel=1e-12
        )
        e, a = float(rng.uniform(0, 5)), float(rng.uniform(0.1, 5))
        assert metric_re(e, a) == pytest.approx(ref_re(e, a), rel=1e-12)


# -- applications over sketches ------------------------------------------------


def _exact_sketch_with_flows(rng, count, low=1, high=50):
    sk = SiameseSketch(SketchConfig(rows=2, width=256, shared_bits=4, seeds=(1, 2)))
    oracle = ExactCounter()
    for k in collision_free_keys(sk, count, rng):
        n = int(rng.integers(low, high))
        sk.encode_stream(np.full(n, k, dtype=np.uint64))
        oracle.observe(k, n)
    return sk, oracle


def test_heavy_hitters_match_brute_force():
    rng = np.random.default_rng(7)
    sk, oracle = _exact_sketch_with_flows(rng, 20)
    phi = 25
    detected = detect_heavy_hitters(sk, oracle.keys(), phi)
    assert detected == true_heavy_hitters(oracle, phi)
    assert metric_f1(detected, true_heavy_hitters(oracle, phi)) == 1.0


def test_heavy_hitter_threshold_inclusive():
    cm = CountMinSketch(CountMinConfig(rows=2, width=64, seeds=(1, 2)))
    cm.encode_stream(np.full(10, 42, dtype=np.uint64))
    assert detect_heavy_hitters(cm, [42], 10) == {42}
    assert detect_heavy_hitters(cm, [42], 11) == set()
    with pytest.raises(ValueError):
        detect_heavy_hitters(cm, [42], 0)


def test_count_min_recall_is_one():
    rng = np.random.default_rng(12)
    keys = rng.integers(0, 1 << 64, size=300, dtype=np.uint64)
    stream = rng.choice(keys, size=30_000)
    oracle = ExactCounter()
    oracle.observe_stream(stream)
    cm = CountMinSketch(CountMinConfig(rows=3, width=64))
    cm.encode_stream(stream)
    for phi in (1, 10, 100, 500):
        detected = detect_heavy_hitters(cm, oracle.keys(), phi)
        assert true_heavy_hitters(oracle, phi) <= detected


def test_change_detection():
    rng = np.random.default_rng(8)
    cfg = SketchConfig(rows=2, width=256, shared_bits=4, seeds=(1, 2))
    s1, s2 = SiameseSketch(cfg), SiameseSketch(cfg)
    o1, o2 = ExactCounter(), ExactCounter()
    probe = SiameseSketch(cfg)
    keys = collision_free_keys(probe, 30, rng)
    for k in keys:
        a, b = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        if a:
            s1.encode_stream(np.full(a, k, dtype=np.uint64))
        if b:
            s2.encode_stream(np.full(b, k, dtype=np.uint64))
        o1.observe(k, a)
        o2.observe(k, b)
    phi = 20
    detected = detect_changes(s1, s2, keys, phi)
    truth = {k for k in keys if abs(o2.truth(k) - o1.truth(k)) >= phi}
    assert detected == truth


def test_change_detection_boundary_and_identity():
    cfg = SketchConfig(rows=1, width=8, seeds=(5,))
    s1, s2 = SiameseSketch(cfg), SiameseSketch(cfg)
    s2.encode_stream(np.full(9, 3, dtype=np.uint64))
    assert detect_changes(s1, s2, [3], 9) == {3}  # grows by exactly phi
    assert detect_changes(s1, s1, [3], 1) == set()


def test_apps_treat_int_bytes_and_numpy_keys_alike():
    # Python ints take one batched query; bytes and numpy scalars are queried
    # per key, and both must give the same answers
    rng = np.random.default_rng(4)
    cfg = SketchConfig(rows=2, width=16, counter_bits=4, shared_bits=2, seeds=(1, 2))
    s1, s2 = SiameseSketch(cfg), SiameseSketch(cfg)
    pool = rng.integers(0, 1 << 64, size=30, dtype=np.uint64)
    ints = pool.tolist()
    s1.encode_stream(rng.choice(pool, size=3000))
    s2.encode_stream(rng.choice(pool[:10], size=3000))
    forms = (ints, [key_bytes(k) for k in ints], [np.uint64(k) for k in ints], pool)
    for keys in forms:
        back = dict(zip(keys, ints))
        assert estimate_fsd(s1, keys) == estimate_fsd(s1, ints)
        assert {back[k] for k in detect_heavy_hitters(s1, keys, 150)} == detect_heavy_hitters(
            s1, ints, 150
        )
        assert {back[k] for k in detect_changes(s1, s2, keys, 60)} == detect_changes(
            s1, s2, ints, 60
        )
    # an array universe is queried as it is and the detected keys come back as
    # Python ints
    assert all(type(k) is int for k in detect_changes(s1, s2, pool, 60))


def test_change_detection_config_mismatch():
    a = SiameseSketch(SketchConfig(rows=1, width=8, seeds=(5,)))
    b = SiameseSketch(SketchConfig(rows=1, width=12, seeds=(5,)))
    with pytest.raises(ValueError):
        detect_changes(a, b, [], 1)
    c = CountMinSketch(CountMinConfig(rows=1, width=8, seeds=(5,)))
    with pytest.raises(ValueError):
        detect_changes(a, c, [], 1)


def test_fsd_mass_conservation_and_exactness():
    rng = np.random.default_rng(9)
    sk, oracle = _exact_sketch_with_flows(rng, 25)
    est = estimate_fsd(sk, oracle.keys())
    act = true_fsd(oracle)
    assert est.total_flows == oracle.distinct
    assert metric_wmre(est, act) == 0.0  # collision-free: identical histograms
    assert estimate_entropy(est) == pytest.approx(estimate_entropy(act))
