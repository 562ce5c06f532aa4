"""Named workloads: trace parameters, sketch shape, and why each exists.

Every workload feeds the program only traces generated here from the
workload seed. The sketch shape is fixed: 3 rows, 4096 slots, 8-bit counters
with 4 shared bits, sum fusing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROWS = 3
WIDTH = 4096
COUNTER_BITS = 8
SHARED_BITS = 4
SCHEMES = ("sc-lsb", "instant", "count-min")


@dataclass(frozen=True)
class Workload:
    name: str
    skew: float
    flows: int
    packets: int
    attack_fraction: float | None = None
    packets_per_flow: int = 256


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("attack", skew=1.0, flows=20_000, packets=500_000, attack_fraction=0.5),
        Workload("many-flows", skew=0.6, flows=500_000, packets=300_000),
    )
}


@dataclass
class Inputs:
    """Generated traces and the packet stream every scheme encodes."""

    benign: object
    attack: object | None
    stream: np.ndarray


def build_inputs(ss, wl: Workload, seed: int) -> Inputs:
    """Generate the workload's traces from its seed.

    The stream is interleaved exactly as ``run_experiment`` interleaves the
    same two traces under the same seed.
    """
    benign = ss.gen_zipf(
        ss.ZipfConfig(skew=wl.skew, flows=wl.flows, packets=wl.packets, seed=seed)
    )
    if wl.attack_fraction is None:
        return Inputs(benign, None, benign.as_u64())
    plan = ss.plan_attack(WIDTH, wl.attack_fraction, packets_per_flow=wl.packets_per_flow)
    attack = ss.gen_attack(plan, seed + 1)
    return Inputs(benign, attack, ss.interleave_traces(benign, attack, seed).as_u64())


def experiment_spec(ss, wl: Workload, inputs: Inputs, seed: int):
    return ss.ExperimentSpec(
        schemes=SCHEMES,
        rows=ROWS,
        width=WIDTH,
        counter_bits=COUNTER_BITS,
        shared_bits=SHARED_BITS,
        merge_mode="sum",
        benign=inputs.benign,
        attack=inputs.attack,
        attack_fraction=wl.attack_fraction,
        seed=seed,
        experiment_id=f"{wl.name}-{seed}",
    )
