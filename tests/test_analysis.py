import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from siamsketch import (
    SiameseSketch,
    SketchConfig,
    coupon_expect,
    gen_attack,
    hyper_mean,
    hyper_pmf,
    hyper_var,
    plan_attack,
)
from siamsketch.hashing import index_batch

from conftest import keys_for_slots
from reference_impls import group_code, ref_order, ref_pair

EULER_GAMMA = 0.5772156649015329


def test_harmonic_asymptotic():
    # full collection costs w * H(w), and H(w) tends to ln w + gamma
    n = 10**6
    assert abs(coupon_expect(n, n) / n - (math.log(n) + EULER_GAMMA)) < 1e-6


def test_coupon_expect_closed_forms():
    assert coupon_expect(2, 2) == pytest.approx(3.0)
    assert coupon_expect(3, 3) == pytest.approx(5.5)
    assert coupon_expect(123, 0) == 0.0
    assert coupon_expect(1, 1) == pytest.approx(1.0)
    # full collection equals w * H(w)
    h500 = sum(Fraction(1, i) for i in range(1, 501))
    assert coupon_expect(500, 500) == pytest.approx(float(500 * h500), rel=1e-12)


@pytest.mark.parametrize(
    "width, targets",
    [
        (2**20 + 1, 2**20 + 1),  # the first targets past the term sum, H(0)
        (2**21, 2**20 + 1),  # H(width - targets) as its term sum
        (2**22, 2**22),
        (2**23, 2**22),  # both harmonic numbers by the expansion
        (2**62, 2**22),  # -log1p of a ratio near 1e-12
    ],
)
def test_coupon_expect_expansion_matches_the_term_sum(width, targets):
    # above 2**20 targets the harmonic expansion replaces the term sum
    terms = 1.0 / np.arange(width - targets + 1, width + 1, dtype=np.uint64).astype(np.float64)
    assert coupon_expect(width, targets) == pytest.approx(width * math.fsum(terms), rel=1e-12)


def test_coupon_expect_at_the_widest_width():
    # 2**64 targets take constant time and stay finite
    assert math.isfinite(coupon_expect(2**64, 2**64))
    assert coupon_expect(2**64, 2**64) == pytest.approx(2**64 * (64 * math.log(2) + EULER_GAMMA))


def test_coupon_expect_worked_value():
    assert 1.07e5 <= coupon_expect(155_000, 77_500) <= 1.09e5


def test_coupon_expect_errors():
    with pytest.raises(ValueError):
        coupon_expect(10, 11)
    with pytest.raises(ValueError):
        coupon_expect(0, 0)
    with pytest.raises(ValueError):
        coupon_expect(10, -1)


@pytest.mark.parametrize("width", [1024, 4096])
def test_attack_law_at_sketch_scale(width):
    # gen_attack(plan_attack(w, 0.5)) alone into a 3-row 8/4 sc-lsb sketch:
    # each row's flows hit about plan.targets distinct slots, and a group
    # stays in code 0 only if none of its four slots is hit (256 packets
    # overflow any 8-bit slot), so about (1 - 0.5)**4 of the groups do.
    # Hit and untouched indicators are negatively correlated, so the
    # binomial law's standard deviation bounds both shares' spread.
    plan = plan_attack(width, 0.5)
    trace = gen_attack(plan, seed=width)
    sk = SiameseSketch(SketchConfig(rows=3, width=width, counter_bits=8, shared_bits=4))
    sk.encode_stream(trace.as_u64())
    flows = np.unique(trace.as_u64())
    assert len(flows) == plan.flows
    p, groups = plan.targets / width, width // 4
    q = (1 - 0.5) ** 4
    for r, seed in enumerate(sk.config.seeds):
        hit = len(np.unique(index_batch(flows, seed, width))) / width
        assert abs(hit - p) <= 4 * math.sqrt(p * (1 - p) / width)
        untouched = sum(sk.group_state(r, g) == 0 for g in range(groups)) / groups
        assert abs(untouched - q) <= 4 * math.sqrt(q * (1 - q) / groups)


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


@pytest.mark.parametrize("s1, s2, n", [(1, 1, 5), (-1, 3, 1), (3, -1, 1), (2, 2, -1)])
def test_hyper_rejects_impossible_inputs(s1, s2, n):
    for law in (lambda: hyper_pmf(s1, s2, n, 0), lambda: hyper_mean(s1, s2, n),
                lambda: hyper_var(s1, s2, n)):
        with pytest.raises(ValueError):
            law()


# -- pair model (tests/reference_impls.py) ------------------------------------


def decode(wraps, joint, shared_bits):
    return (wraps << shared_bits) | joint


def test_no_neighbour_is_exact():
    w0, w1, joint = ref_pair(ref_order(123, 0, seed=0), 4)
    assert decode(w0, joint, 4) == 123
    assert w1 == 0


def test_illustrative_order_reproduces_decode():
    order = [0] * 16 + [1] * 256 + [0] * 17 + [1] * 401
    w0, w1, joint = ref_pair(order, 4)
    assert decode(w0, joint, 4) == 34
    assert decode(w1, joint, 4) == 658


def test_wrap_tallies_sum_to_total_wraps():
    rng = np.random.default_rng(0)
    for seed in range(20):
        side0, side1 = (int(n) for n in rng.integers(0, 400, size=2))
        k = int(rng.choice([2, 4, 6]))
        w0, w1, joint = ref_pair(ref_order(side0, side1, seed), k)
        assert w0 + w1 == (side0 + side1) >> k
        assert joint == (side0 + side1) % (1 << k)


def test_shared_never_exceeds_merged_exhaustive_small():
    # every interleaving of every split with at most 10 packets
    for k in (2, 4):
        for total in range(0, 11):
            for labels in itertools.product((0, 1), repeat=total):
                w0, w1, joint = ref_pair(labels, k)
                assert decode(w0, joint, k) <= total
                assert decode(w1, joint, k) <= total


@pytest.mark.parametrize("bits, shared", [(8, 4), (8, 2), (8, 6), (4, 2), (16, 8)])
def test_engine_shared_pair_matches_the_replay_model(bits, shared):
    # the engine against a model it does not share: a fresh shared pair (slots
    # 0 and 1, group code 3) fed ref_order's interleaving must decode to
    # ref_pair's estimates, by the kernel and by per-packet _encode,
    # while neither member's wrap tally reaches its prefix maximum
    cfg = SketchConfig(rows=1, width=4, counter_bits=bits, shared_bits=shared, seeds=(bits,))
    k0, k1 = keys_for_slots(SiameseSketch(cfg), 0, [0, 1])
    prefix_max = ((1 << bits) - 1) >> (shared // 2)
    rng = np.random.default_rng(bits * 100 + shared)
    checked = 0
    for case in range(100):
        total = int(rng.integers(1, min(prefix_max << shared, 3000) + 1))
        side1 = int(rng.integers(0, total + 1))
        order = ref_order(side1, total - side1, seed=case)
        w0, w1, joint = ref_pair(order, shared)
        if max(w0, w1) >= prefix_max:
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
                decode(w0, joint, shared),
                decode(w1, joint, shared),
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
    side1, side2 = 150, 100
    wraps = (side1 + side2) >> shared
    assert wraps < ((1 << bits) - 1) >> (shared // 2)  # no tally saturates
    tallies = np.empty(trials, dtype=np.int64)
    for seed in range(trials):
        order = ref_order(side1, side2, seed=seed)
        sk = SiameseSketch(cfg)
        sk._states[0][0] = group_code(1, 0)
        sk.encode_stream(np.where(order == 0, np.uint64(k0), np.uint64(k1)))
        assert sk.group_state(0, 0) == group_code(1, 0)
        tallies[seed] = sk.query_u64(k0) >> shared
    support = np.arange(wraps + 1)
    observed = np.bincount(tallies, minlength=len(support))

    def binned(side1, side2):
        """(observed, expected) trials per tally under the law of these
        sides, the tails with fewer than 5 expected pooled into the end bins."""
        expected = trials * np.array([hyper_pmf(side1, side2, wraps, i) for i in support])
        lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]
        starts = np.r_[0, lo + 1 : hi + 1]
        return np.add.reduceat(observed, starts), np.add.reduceat(expected, starts)

    fit = binned(side1, side2)
    assert len(fit[0]) >= 5
    assert stats.chisquare(*fit).pvalue > alpha
    assert stats.chisquare(*binned(side2, side1)).pvalue < alpha
