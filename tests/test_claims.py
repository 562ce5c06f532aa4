"""The paper's headline result as a test, at equal memory.

The paper reports sc-lsb 47 % more accurate than the instant-merge state of
the art under a pollution attack. Here that is the average relative error of
flow sizes (the ``size`` app's ``are``) on a Zipf 1.0 stream of 20k flows and
500k packets, 3 rows of 4096 8-bit counters with 4 shared bits (sum mode),
with and without a slot-saturation attack on half of the slots. Under attack,
sc-lsb's ARE must be at most 0.53 times instant's; on the benign stream it
must be below instant's. Over seeds 1-10 the attack ratio was 0.37 to 0.39
and the benign ratio 0.92 to 0.94, so the bounds hold with a wide margin
without being tuned to one seed.

"X % more accurate" is read as ``1 - sc/instant`` (ROADMAP item 3): 47 %
more accurate is an ARE ratio of at most 0.53. The other reading,
``instant/sc - 1``, would allow a ratio up to 1/1.47, about 0.68.
"""

import pytest

from siamsketch import ExperimentSpec, ZipfConfig, gen_attack, gen_zipf, plan_attack, run_experiment

ATTACK_RATIO_BOUND = 0.53  # the paper's "47 % more accurate"


def are_by_scheme(seed: int, attacked: bool) -> dict[str, float]:
    benign = gen_zipf(ZipfConfig(skew=1.0, flows=20_000, packets=500_000, seed=seed))
    attack = {}
    if attacked:
        attack = dict(attack=gen_attack(plan_attack(4096, 0.5), seed + 100), attack_fraction=0.5)
    spec = ExperimentSpec(
        schemes=("sc-lsb", "instant"),
        rows=3,
        width=4096,
        counter_bits=8,
        shared_bits=4,
        merge_mode="sum",
        benign=benign,
        apps=("size",),
        seed=seed,
        **attack,
    )
    rows = run_experiment(spec).metric_rows
    return {r["scheme"]: float(r["value"]) for r in rows if r["metric"] == "are"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sc_lsb_beats_instant_merge_under_attack(seed):
    are = are_by_scheme(seed, attacked=True)
    assert are["sc-lsb"] <= ATTACK_RATIO_BOUND * are["instant"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sc_lsb_beats_instant_merge_on_benign_traffic(seed):
    are = are_by_scheme(seed, attacked=False)
    assert are["sc-lsb"] < are["instant"]
