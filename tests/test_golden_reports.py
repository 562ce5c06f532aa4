"""Golden digests of whole experiment reports.

``run_experiment`` turns sketches into the numbers the evaluation reports:
ARE and RMSE, heavy-hitter F1 and recall, FSD WMRE, entropy error and change
F1, plus the counter census at every snapshot interval. These digests pin the
exact report, every ``repr`` of every float included, for small specs that
cover each scheme, both merge modes, two counter shapes, both interleave
modes, no attack, an attack-only stream, app subsets, and thresholds that
leave no heavy hitter or no threshold at all. A change to how the report is
computed must leave every digest in place. The constants were recorded once.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from siamsketch import ExperimentSpec, Trace, ZipfConfig, gen_attack, gen_zipf, plan_attack, run_experiment


@functools.cache
def benign() -> Trace:
    return gen_zipf(ZipfConfig(skew=1.0, flows=2000, packets=30_000, seed=3))


@functools.cache
def attack() -> Trace:
    return gen_attack(plan_attack(256, 0.5), seed=9)


def spec(**kwargs) -> ExperimentSpec:
    fields = dict(
        width=256,
        benign=benign(),
        snapshot_interval=10_000,
        threshold=40,
        seed=3,
        experiment_id="golden",
    )
    fields.update(kwargs)
    return ExperimentSpec(**fields)


# case -> (spec fields, leading 16 hex digits of the sha256 over the JSON of
# metric_rows and counter_rows).
CASES = {
    "8-4-sum-shuffle": (
        dict(attack=attack(), attack_fraction=0.5),
        "beaeb17d9e1a9497",
    ),
    "8-4-max-append": (
        dict(merge_mode="max", attack=attack(), attack_fraction=0.5, interleave="append"),
        "93d2d92a55c1bb05",
    ),
    "4-2-sum-benign": (
        dict(counter_bits=4, shared_bits=2),
        "061a60d2ca166ea2",
    ),
    "4-2-max-shuffle": (
        dict(counter_bits=4, shared_bits=2, merge_mode="max", attack=attack(), attack_fraction=0.5),
        "650cfffb2eec6048",
    ),
    "attack-only": (
        dict(benign=None, attack=attack()),
        "9e752bfda768500a",
    ),
    "default-threshold": (
        dict(threshold=None, memory_bytes=1024, width=None),
        "9c0dd4e453a5ceed",
    ),
    "no-threshold": (
        dict(threshold=None, threshold_fraction=None),
        "9e51eab87deee143",
    ),
    "threshold-above-every-flow": (
        dict(threshold=10**9, attack=attack(), attack_fraction=0.5),
        "7bfe7ff7807716c3",
    ),
    "apps-size": (
        dict(apps=("size",), schemes=("count-min", "sc-lsb")),
        "0fc1774dbe7dc78f",
    ),
    "apps-heavy-hitter-entropy": (
        dict(apps=("heavy-hitter", "entropy"), schemes=("instant",)),
        "e4f4af03cbb73ec4",
    ),
    "apps-fsd-change": (
        dict(apps=("fsd", "change"), attack=attack(), attack_fraction=0.5),
        "73440db55e9fa159",
    ),
    "singleton-flows": (
        dict(benign=Trace(np.arange(1, 3001, dtype=np.uint64) * 7919), threshold=2),
        "96dc5701e92a9144",
    ),
}


def digest(fields: dict) -> str:
    result = run_experiment(spec(**fields))
    blob = json.dumps([result.metric_rows, result.counter_rows], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_digest(case):
    fields, expected = CASES[case]
    assert digest(fields) == expected


def test_cases_reach_every_report_path():
    # the threshold above every flow scores an empty true heavy-hitter set,
    # the singleton stream has zero true entropy, and the attack-only stream
    # has no benign flow to score
    above = run_experiment(spec(**CASES["threshold-above-every-flow"][0])).metric_rows
    assert {r["value"] for r in above if r["metric"] == "recall_heavy_hitter"} == {"1.0"}
    singles = run_experiment(spec(**CASES["singleton-flows"][0])).metric_rows
    assert any(r["metric"] == "entropy_re_abs" for r in singles)
    only = run_experiment(spec(**CASES["attack-only"][0]))
    assert only.metric_rows == [] and only.counter_rows
