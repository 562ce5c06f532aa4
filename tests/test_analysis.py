import itertools
import math

import numpy as np
import pytest
from scipy import stats

from siamsketch import (
    PairExperiment,
    SiameseSketch,
    SketchConfig,
    coupon_expect,
    harmonic,
    hyper_mean,
    hyper_pmf,
    hyper_var,
    make_order,
    simulate_pair,
    wrap_tally_batch,
)
from siamsketch.sketch import group_code

from conftest import keys_for_slots

EULER_GAMMA = 0.5772156649015329


def test_harmonic_small():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5


def test_harmonic_asymptotic():
    n = 10**6
    assert abs(harmonic(n) - (math.log(n) + EULER_GAMMA)) < 1e-6


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


def test_coupon_expect_closed_forms():
    assert coupon_expect(2, 2) == pytest.approx(3.0)
    assert coupon_expect(3, 3) == pytest.approx(5.5)
    assert coupon_expect(123, 0) == 0.0
    assert coupon_expect(1, 1) == pytest.approx(1.0)
    # full collection equals w * H(w)
    assert coupon_expect(500, 500) == pytest.approx(500 * harmonic(500), rel=1e-12)


def test_coupon_expect_worked_value():
    assert 1.07e5 <= coupon_expect(155_000, 77_500) <= 1.09e5


def test_coupon_expect_errors():
    with pytest.raises(ValueError):
        coupon_expect(10, 11)
    with pytest.raises(ValueError):
        coupon_expect(0, 0)


# -- hypergeometric law -------------------------------------------------------


def test_pmf_direct_value():
    # C(2,1)*C(2,1)/C(4,2) = 4/6
    assert hyper_pmf(2, 2, 2, 1) == pytest.approx(2 / 3, abs=1e-15)
    assert hyper_pmf(2, 2, 2, 0) == pytest.approx(1 / 6, abs=1e-15)


def test_pmf_out_of_support_is_zero():
    assert hyper_pmf(3, 3, 2, -1) == 0.0
    assert hyper_pmf(3, 3, 2, 3) == 0.0
    assert hyper_pmf(3, 0, 2, 1) == 0.0  # support forces i == draws


def test_pmf_normalizes_and_matches_alternative_form():
    def alt(s1, s2, n, i):
        # C(n,i) C(s1+s2-n, s1-i) / C(s1+s2, s1)
        if i < max(0, n - s2) or i > min(n, s1):
            return 0.0
        return (
            math.comb(n, i)
            * math.comb(s1 + s2 - n, s1 - i)
            / math.comb(s1 + s2, s1)
        )

    for s1 in range(0, 9):
        for s2 in range(0, 9):
            for n in range(0, s1 + s2 + 1):
                total = sum(hyper_pmf(s1, s2, n, i) for i in range(0, n + 1))
                assert total == pytest.approx(1.0, abs=1e-12)
                for i in range(0, n + 1):
                    assert hyper_pmf(s1, s2, n, i) == pytest.approx(
                        alt(s1, s2, n, i), abs=1e-12
                    )


def test_pmf_large_population_matches_scipy():
    s1, s2, n = 700, 900, 100  # above the exact-arithmetic threshold
    ours = [hyper_pmf(s1, s2, n, i) for i in range(0, n + 1)]
    ref = stats.hypergeom(s1 + s2, s1, n).pmf(np.arange(0, n + 1))
    assert np.allclose(ours, ref, rtol=1e-9, atol=1e-15)


def test_mean_var_match_scipy():
    for s1, s2, n in ((2, 2, 2), (10, 5, 7), (400, 300, 90)):
        dist = stats.hypergeom(s1 + s2, s1, n)
        assert hyper_mean(s1, s2, n) == pytest.approx(dist.mean(), rel=1e-12)
        assert hyper_var(s1, s2, n) == pytest.approx(dist.var(), rel=1e-12)


def test_mean_symmetry():
    assert hyper_mean(7, 7, 5) == pytest.approx(2.5)


# -- pair machine -------------------------------------------------------------


def test_no_neighbour_is_exact():
    exp = PairExperiment(target=100, background=23, neighbor=0, shared_bits=4)
    out = simulate_pair(exp, seed=0)
    assert out.est_shared == out.est_unmerged == 123
    assert out.est_merged == 123


def test_illustrative_order_reproduces_decode():
    exp = PairExperiment(target=33, background=0, neighbor=657, shared_bits=4)
    order = [0] * 16 + [1] * 256 + [0] * 17 + [1] * 401
    out = simulate_pair(exp, order=order)
    assert out.est_shared == 34
    assert out.est_shared_peer == 658
    assert out.est_merged == 690


def test_wrap_tallies_sum_to_total_wraps():
    rng = np.random.default_rng(0)
    for seed in range(20):
        exp = PairExperiment(
            target=int(rng.integers(0, 200)),
            background=int(rng.integers(0, 200)),
            neighbor=int(rng.integers(0, 200)),
            shared_bits=int(rng.choice([2, 4, 6])),
        )
        out = simulate_pair(exp, seed=seed)
        assert out.wraps_side1 + out.wraps_side2 == exp.wraps
        assert 0 <= out.residual < (1 << exp.shared_bits)
        assert out.residual == exp.residual


def test_shared_never_exceeds_merged_exhaustive_small():
    # every interleaving of every split with at most 10 packets
    for k in (2, 4):
        for total in range(0, 11):
            for labels in itertools.product((0, 1), repeat=total):
                n1 = total - sum(labels)
                exp = PairExperiment(
                    target=n1, background=0, neighbor=total - n1, shared_bits=k
                )
                out = simulate_pair(exp, order=list(labels))
                assert out.est_shared <= out.est_merged
                assert out.est_shared_peer <= out.est_merged


def test_order_validation():
    exp = PairExperiment(target=2, background=0, neighbor=1, shared_bits=2)
    with pytest.raises(ValueError):
        simulate_pair(exp, order=[0, 0])  # wrong length
    with pytest.raises(ValueError):
        simulate_pair(exp, order=[0, 0, 0])  # wrong multiset
    with pytest.raises(ValueError):
        simulate_pair(exp)  # neither order nor seed


def test_experiment_validation():
    with pytest.raises(ValueError):
        PairExperiment(target=-1, background=0, neighbor=0)
    with pytest.raises(ValueError):
        PairExperiment(target=1, background=0, neighbor=0, shared_bits=0)


def test_batch_matches_scalar_machine():
    # the fixed-position identity behind the batch must equal the stepped
    # machine on explicit orders
    rng = np.random.default_rng(5)
    for trial in range(30):
        exp = PairExperiment(
            target=int(rng.integers(1, 80)),
            background=int(rng.integers(0, 80)),
            neighbor=int(rng.integers(0, 80)),
            shared_bits=int(rng.choice([2, 4])),
        )
        order = make_order(exp, seed=trial)
        out = simulate_pair(exp, order=order)
        positions = (np.arange(1, exp.wraps + 1) << exp.shared_bits) - 1
        from_positions = int((np.asarray(order)[positions] == 0).sum()) if len(positions) else 0
        assert out.wraps_side1 == from_positions


def test_batch_statistics_match_law():
    exp = PairExperiment(target=150, background=50, neighbor=100, shared_bits=4)
    tallies = wrap_tally_batch(exp, 40_000, seed=2).astype(float)
    mean_th = hyper_mean(exp.side1, exp.neighbor, exp.wraps)
    var_th = hyper_var(exp.side1, exp.neighbor, exp.wraps)
    assert tallies.mean() == pytest.approx(mean_th, abs=4 * math.sqrt(var_th / 40_000))
    assert tallies.var(ddof=1) == pytest.approx(var_th, rel=0.1)


@pytest.mark.parametrize("bits, shared", [(8, 4), (8, 2), (8, 6), (4, 2), (16, 8)])
def test_engine_shared_pair_matches_the_replay_model(bits, shared):
    # the engine against a model it does not share: a fresh shared pair (slots
    # 0 and 1, group code 3) fed make_order's interleaving must decode to
    # simulate_pair's estimates, by the kernel and by per-packet _encode,
    # while neither member's wrap tally reaches its prefix maximum
    cfg = SketchConfig(rows=1, width=4, counter_bits=bits, shared_bits=shared, seeds=(bits,))
    k0, k1 = keys_for_slots(SiameseSketch(cfg), 0, [0, 1])
    prefix_max = ((1 << bits) - 1) >> (shared // 2)
    rng = np.random.default_rng(bits * 100 + shared)
    checked = 0
    for case in range(100):
        total = int(rng.integers(1, min(prefix_max << shared, 3000) + 1))
        side1 = int(rng.integers(0, total + 1))
        exp = PairExperiment(target=side1, background=0, neighbor=total - side1, shared_bits=shared)
        order = make_order(exp, seed=case)
        model = simulate_pair(exp, order)
        if max(model.wraps_side1, model.wraps_side2) >= prefix_max:
            continue
        checked += 1
        keys = np.where(order == 0, np.uint64(k0), np.uint64(k1))
        kernel, scalar = SiameseSketch(cfg), SiameseSketch(cfg)
        for sk in (kernel, scalar):
            sk._states[0][0] = group_code(1, 0)
        kernel.encode_stream(keys)
        for key in keys.tolist():
            scalar.encode_u64(key)
        for sk in (kernel, scalar):
            assert sk.group_state(0, 0) == group_code(1, 0)
            assert (sk.query_u64(k0), sk.query_u64(k1)) == (
                model.est_shared,
                model.est_shared_peer,
            )
    assert checked >= 90


def test_engine_wrap_tallies_fit_the_hypergeometric_law():
    # over many fixed interleavings, side 1's wrap tally, read back from the
    # engine's decode of a fresh shared pair, must follow hyper_pmf; the
    # tallies must also reject the law with the sides swapped, as a swapped
    # winner-take-all credit would give
    bits, shared, trials, alpha = 8, 4, 2000, 0.001
    cfg = SketchConfig(rows=1, width=4, counter_bits=bits, shared_bits=shared, seeds=(bits,))
    k0, k1 = keys_for_slots(SiameseSketch(cfg), 0, [0, 1])
    exp = PairExperiment(target=150, background=0, neighbor=100, shared_bits=shared)
    assert exp.wraps < ((1 << bits) - 1) >> (shared // 2)  # no tally saturates
    tallies = np.empty(trials, dtype=np.int64)
    for seed in range(trials):
        order = make_order(exp, seed=seed)
        sk = SiameseSketch(cfg)
        sk._states[0][0] = group_code(1, 0)
        sk.encode_stream(np.where(order == 0, np.uint64(k0), np.uint64(k1)))
        assert sk.group_state(0, 0) == group_code(1, 0)
        tallies[seed] = sk.query_u64(k0) >> shared
    support = np.arange(exp.wraps + 1)
    observed = np.bincount(tallies, minlength=len(support))

    def binned(side1, side2):
        """(observed, expected) trials per tally under the law of these
        sides, the tails with fewer than 5 expected pooled into the end bins."""
        expected = trials * np.array([hyper_pmf(side1, side2, exp.wraps, i) for i in support])
        lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]
        starts = np.r_[0, lo + 1 : hi + 1]
        return np.add.reduceat(observed, starts), np.add.reduceat(expected, starts)

    fit = binned(exp.side1, exp.neighbor)
    assert len(fit[0]) >= 5
    assert stats.chisquare(*fit).pvalue > alpha
    assert stats.chisquare(*binned(exp.neighbor, exp.side1)).pvalue < alpha
