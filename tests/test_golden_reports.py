"""Golden digests of whole experiment reports.

``run_experiment`` turns sketches into the numbers the evaluation reports:
ARE and RMSE, heavy-hitter F1 and recall, FSD WMRE, entropy error and change
F1, plus the counter census at every snapshot interval. These digests pin the
exact report, every ``repr`` of every float included, for small specs that
cover each scheme, both merge modes, two counter shapes, both interleave
modes, no attack, an attack-only stream, app subsets, and thresholds that
leave no heavy hitter or no threshold at all. The change app's first window
is cut at half the stream; streams of odd length and of one packet, a half
on a snapshot, a snapshot interval above the stream length and apps without
``change`` pin where that cut falls. A change to how the report is computed
must leave every digest in place. The constants were recorded once.

Two more digests pin the reports of the benchmark's workloads at their full
shapes (``perfbench/workloads.py``), seed 5: ``many-flows`` scores about
185k flows and ``attack`` a 1.23M-packet mix, so the evaluation's paths for
large inputs (counted flow-size histograms, integer RMSE sums, change truth
from the held benign counts) are pinned at the sizes the benchmark times.
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
    # The change app's first window is the main sketch at half the stream:
    # the cases below put that cut between snapshots, on one, before the
    # first packet, and leave it out.
    "odd-length": (
        dict(benign=Trace(benign().keys[:29_999]), attack=attack(), attack_fraction=0.5),
        "238d4bbcd37b3b3d",
    ),
    "one-packet": (
        dict(benign=Trace(np.array([12345], dtype=np.uint64)), threshold=1),
        "f466deb60d7a749b",
    ),
    "half-on-snapshot": (
        dict(snapshot_interval=5_000, counter_bits=4, shared_bits=2),
        "ab80d3e56d44f23f",
    ),
    "snapshot-above-stream": (
        dict(snapshot_interval=10**6, merge_mode="max", attack=attack(), attack_fraction=0.5),
        "11c95339ecc0ec48",
    ),
    "apps-without-change": (
        dict(apps=("size", "heavy-hitter", "fsd", "entropy"), attack=attack(), attack_fraction=0.5),
        "48271e5378946c31",
    ),
}


def digest(fields: dict) -> str:
    return report_digest(spec(**fields))


def report_digest(experiment: ExperimentSpec) -> str:
    result = run_experiment(experiment)
    blob = json.dumps([result.metric_rows, result.counter_rows], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_digest(case):
    fields, expected = CASES[case]
    assert digest(fields) == expected


# workload -> (Zipf fields, attack fraction, digest). The traces are built
# as perfbench's build_inputs builds them from the seed: the attack plan
# covers the 4096-slot rows with 256 packets a flow, drawn from seed + 1.
FULL_SHAPES = {
    "many-flows": (dict(skew=0.6, flows=500_000, packets=300_000), None, "f58b052d6af6abd5"),
    "attack": (dict(skew=1.0, flows=20_000, packets=500_000), 0.5, "12ac308d9d1e2a43"),
}


@pytest.mark.parametrize("workload", sorted(FULL_SHAPES))
def test_full_shape_report_matches_golden_digest(workload):
    zipf, fraction, expected = FULL_SHAPES[workload]
    seed = 5
    attack = None
    if fraction is not None:
        attack = gen_attack(plan_attack(4096, fraction, packets_per_flow=256), seed + 1)
    experiment = ExperimentSpec(
        schemes=("sc-lsb", "instant", "count-min"),
        rows=3,
        width=4096,
        counter_bits=8,
        shared_bits=4,
        merge_mode="sum",
        benign=gen_zipf(ZipfConfig(seed=seed, **zipf)),
        attack=attack,
        attack_fraction=fraction,
        seed=seed,
        experiment_id=f"{workload}-{seed}",
    )
    assert report_digest(experiment) == expected


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
    # the one-packet stream scores change from an empty first window, and
    # the census is taken at every snapshot and at the end, never at half
    one = run_experiment(spec(**CASES["one-packet"][0]))
    assert [r["value"] for r in one.metric_rows if r["metric"] == "f1_change"] == ["1.0"] * 3
    assert {r["packets"] for r in one.counter_rows} == {1}
    snaps = run_experiment(spec(**CASES["half-on-snapshot"][0])).counter_rows
    assert sorted({r["packets"] for r in snaps}) == list(range(5_000, 30_001, 5_000))
    odd = run_experiment(spec(**CASES["odd-length"][0])).counter_rows
    assert sorted({r["packets"] for r in odd})[-1] % 2 == 1
