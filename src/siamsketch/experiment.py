"""Experiment engine: drive schemes over a stream, measure, report.

An experiment fixes a memory budget, builds every requested scheme at equal
memory (state-tracking bits charged against the dynamic schemes), drives all
of them over the same packet stream with the same row seeds, snapshots the
logical-counter census at a fixed packet interval, and evaluates the
requested applications against exact benign ground truth.

Metrics are computed over the benign flow universe: attack packets pollute
the sketches but are not themselves measurement targets. Reports are fully
deterministic for a fixed spec and seed; wall-clock timing only appears in
benchmark output, never in metric reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import (
    CountMinConfig,
    CountMinSketch,
    InstantMergeSketch,
    count_min_width_for,
    equal_memory_widths,
)
from .hashing import derive_seeds, u64_keys
from .metrics import (
    FlowSizeDistribution,
    detect_changes,
    detect_heavy_hitters,
    estimate_entropy,
    metric_are,
    metric_f1,
    metric_re,
    metric_rmse,
    metric_wmre,
    recall_of,
    threshold_from_fraction,
    true_fsd,
    true_heavy_hitters,
)
from .oracle import ExactCounter
from .sketch import SiameseSketch, SketchConfig
from .traffic import Trace, concat_traces, interleave_traces, read_trace

SCHEMES = ("sc-lsb", "instant", "count-min")

INTERLEAVE_SHUFFLE = "shuffle"
INTERLEAVE_APPEND = "append"

ALL_APPS = ("size", "heavy-hitter", "change", "fsd", "entropy")

METRIC_COLUMNS = (
    "experiment_id",
    "scheme",
    "memory_bytes",
    "packets",
    "attack_fraction",
    "interleave",
    "metric",
    "value",
    "seed",
    "config_hash",
)

COUNTER_COLUMNS = ("experiment_id", "scheme", "packets", "row", "counters")


@dataclass
class ExperimentSpec:
    """One experiment cell; every field is reflected in the report."""

    schemes: tuple[str, ...] = SCHEMES
    rows: int = 3
    width: int | None = 4096
    memory_bytes: int | None = None
    counter_bits: int = 8
    shared_bits: int = 4
    merge_mode: str = "sum"
    benign: Trace | str | None = None
    attack: Trace | str | None = None
    attack_fraction: float | None = None
    interleave: str = INTERLEAVE_SHUFFLE
    snapshot_interval: int = 100_000
    apps: tuple[str, ...] = ALL_APPS
    threshold: int | None = None
    threshold_fraction: float | None = 0.00004
    seed: int = 0
    experiment_id: str = ""

    def __post_init__(self) -> None:
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if self.width is None and self.memory_bytes is None:
            raise ValueError("either width or memory_bytes is required")
        if self.snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        if self.interleave not in (INTERLEAVE_SHUFFLE, INTERLEAVE_APPEND):
            raise ValueError(f"unknown interleave mode {self.interleave!r}")
        bad = set(self.apps) - set(ALL_APPS)
        if bad:
            raise ValueError(f"unknown apps: {sorted(bad)}")


@dataclass
class ExperimentResult:
    metric_rows: list[dict] = field(default_factory=list)
    counter_rows: list[dict] = field(default_factory=list)

    def save(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "metrics_csv": out / "metrics.csv",
            "metrics_json": out / "metrics.json",
            "counters_csv": out / "counters.csv",
        }
        _write_csv(paths["metrics_csv"], METRIC_COLUMNS, self.metric_rows)
        paths["metrics_json"].write_text(
            json.dumps(self.metric_rows, indent=2, sort_keys=True) + "\n"
        )
        _write_csv(paths["counters_csv"], COUNTER_COLUMNS, self.counter_rows)
        return paths


def _write_csv(path: Path, columns: Sequence[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fp:
        writer = csv.DictWriter(fp, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def resolve_widths(spec: ExperimentSpec) -> tuple[int, int]:
    """(dynamic width, Count-Min width) under the spec's budget."""
    if spec.memory_bytes is not None:
        return equal_memory_widths(spec.memory_bytes, spec.rows, spec.counter_bits)
    return spec.width, count_min_width_for(spec.width, spec.counter_bits)


def build_sketch(scheme: str, spec: ExperimentSpec):
    dyn_width, cm_width = resolve_widths(spec)
    seeds = derive_seeds(spec.seed, spec.rows)
    if scheme == "count-min":
        return CountMinSketch(CountMinConfig(rows=spec.rows, width=cm_width, seeds=seeds))
    config = SketchConfig(
        rows=spec.rows,
        width=dyn_width,
        counter_bits=spec.counter_bits,
        shared_bits=spec.shared_bits,
        merge_mode=spec.merge_mode,
        seeds=seeds,
    )
    if scheme == "sc-lsb":
        return SiameseSketch(config)
    return InstantMergeSketch(config)


def config_hash(spec: ExperimentSpec) -> str:
    payload = {
        k: v
        for k, v in asdict(spec).items()
        if k not in ("benign", "attack", "experiment_id")
    }
    payload["benign"] = _trace_tag(spec.benign)
    payload["attack"] = _trace_tag(spec.attack)
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _trace_tag(trace) -> str:
    if trace is None:
        return ""
    if isinstance(trace, (str, Path)):
        return str(trace)
    return f"inline:{len(trace)}"


def _load(trace) -> Trace | None:
    if trace is None or isinstance(trace, Trace):
        return trace
    return read_trace(trace)


def assemble_stream(spec: ExperimentSpec) -> tuple[Trace, Trace | None]:
    """(mixed stream, benign part). The benign part feeds the oracle."""
    benign = _load(spec.benign)
    attack = _load(spec.attack)
    if benign is None and attack is None:
        raise ValueError("experiment needs at least one trace")
    if benign is None:
        return attack, None
    if attack is None or len(attack) == 0:
        return benign, benign
    if spec.interleave == INTERLEAVE_APPEND:
        return concat_traces(benign, attack), benign
    return interleave_traces(benign, attack, spec.seed), benign


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    stream, benign = assemble_stream(spec)
    keys = stream.as_u64()
    oracle = ExactCounter()
    if benign is not None:
        oracle.observe_stream(benign.as_u64())

    chash = config_hash(spec)
    exp_id = spec.experiment_id or f"exp-{chash}"
    frac = "" if spec.attack_fraction is None else repr(spec.attack_fraction)
    result = ExperimentResult()

    threshold = spec.threshold
    if threshold is None and spec.threshold_fraction is not None:
        base = oracle.total if oracle.total else len(stream)
        threshold = threshold_from_fraction(spec.threshold_fraction, base)

    flow_keys, truths = [], []
    for k, c in oracle.flows():
        flow_keys.append(k)
        truths.append(c)
    flow_batch = u64_keys(flow_keys)
    if "heavy-hitter" in spec.apps and threshold:
        truth_set = true_heavy_hitters(oracle, threshold)
    if "fsd" in spec.apps or "entropy" in spec.apps:
        act_fsd = true_fsd(oracle)
    if "change" in spec.apps and threshold:
        change = _change_truth(keys, threshold)

    for scheme in spec.schemes:
        sketch = build_sketch(scheme, spec)
        for start in range(0, len(keys), spec.snapshot_interval):
            sketch.encode_stream(keys[start : start + spec.snapshot_interval])
            for row, count in enumerate(sketch.counter_count()):
                result.counter_rows.append(
                    {
                        "experiment_id": exp_id,
                        "scheme": scheme,
                        "packets": min(start + spec.snapshot_interval, len(keys)),
                        "row": row,
                        "counters": count,
                    }
                )

        def emit(metric: str, value) -> None:
            result.metric_rows.append(
                {
                    "experiment_id": exp_id,
                    "scheme": scheme,
                    "memory_bytes": sketch.memory_bits() // 8,
                    "packets": len(keys),
                    "attack_fraction": frac,
                    "interleave": spec.interleave,
                    "metric": metric,
                    "value": repr(float(value)),
                    "seed": spec.seed,
                    "config_hash": chash,
                }
            )

        if not flow_keys:
            continue
        estimates = sketch.query_many(flow_batch)
        if "size" in spec.apps:
            emit("are", metric_are(truths, estimates))
            emit("rmse", metric_rmse(truths, estimates))
        if "heavy-hitter" in spec.apps and threshold:
            detected = {
                k for k, e in zip(flow_keys, estimates) if e >= threshold
            }
            emit("f1_heavy_hitter", metric_f1(detected, truth_set))
            emit("recall_heavy_hitter", recall_of(detected, truth_set))
        if "fsd" in spec.apps or "entropy" in spec.apps:
            est_fsd = FlowSizeDistribution.from_sizes(estimates)
            if "fsd" in spec.apps:
                emit("wmre", metric_wmre(est_fsd, act_fsd))
            if "entropy" in spec.apps:
                est_h = estimate_entropy(est_fsd)
                act_h = estimate_entropy(act_fsd)
                emit("entropy_re" if act_h else "entropy_re_abs", metric_re(est_h, act_h))
        if "change" in spec.apps and threshold:
            universe, truth = change
            windows = [build_sketch(scheme, spec) for _ in range(2)]
            half = len(keys) // 2
            windows[0].encode_stream(keys[:half])
            windows[1].encode_stream(keys[half:])
            detected = detect_changes(*windows, universe, threshold)
            emit("f1_change", metric_f1(detected, truth))
    return result


def _change_truth(keys: np.ndarray, threshold: int) -> tuple[np.ndarray, set[int]]:
    """(every key of the stream as a uint64 array, the keys whose exact count
    changes by at least ``threshold`` between the stream's two halves)."""
    universe, inverse = np.unique(keys, return_inverse=True)
    half = len(keys) // 2
    before = np.bincount(inverse[:half], minlength=len(universe))
    after = np.bincount(inverse[half:], minlength=len(universe))
    changed = universe[np.abs(after - before) >= threshold]
    return universe, set(changed.tolist())


# -- throughput ---------------------------------------------------------------


@dataclass
class BenchResult:
    scheme: str
    runs: int
    packets: int
    mean_mpps: float
    std_mpps: float
    mean_seconds: float


def bench_throughput(
    spec: ExperimentSpec, trace: Trace, runs: int = 50, warmup: int = 2
) -> list[BenchResult]:
    """Mean packets-per-second per scheme over repeated full-stream encodes.

    Each run re-encodes the warmed, in-memory stream into a fresh sketch so
    every run does identical work.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    keys = trace.as_u64()
    results = []
    for scheme in spec.schemes:
        for _ in range(warmup):
            build_sketch(scheme, spec).encode_stream(keys)
        mpps = []
        for _ in range(runs):
            sketch = build_sketch(scheme, spec)
            t0 = time.perf_counter()
            sketch.encode_stream(keys)
            elapsed = time.perf_counter() - t0
            mpps.append(len(keys) / elapsed / 1e6)
        arr = np.asarray(mpps)
        results.append(
            BenchResult(
                scheme=scheme,
                runs=runs,
                packets=len(keys),
                mean_mpps=float(arr.mean()),
                std_mpps=float(arr.std()),
                mean_seconds=float(len(keys) / 1e6 / arr.mean()),
            )
        )
    return results
