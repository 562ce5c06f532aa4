"""Layered benchmark for siamsketch.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload attack --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
is a separate run that records spans around the calls into each module and
reports the per-layer metrics. End-to-end timings are normalised to a fixed
speed of the machine (see ``hostspeed``); the printed table also gives each
timing's median before normalisation. Both runs check the program's
outputs. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names, units and directions
come from ``BENCHMARK.json``. Samples, spans and provenance are written to
``.bench_out/`` in the checkout.

The program is imported from ``src/`` of the same checkout and driven only
through its public functions, in one single-threaded process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from checks import (
    Checks,
    check_never_under,
    check_repeatable,
    check_scalar_spec,
    check_snapshot,
    check_totals,
    strided,
)
from hostspeed import Meter
from tracing import LAYER_METRICS, Tracer, span_metrics
from workloads import SCHEMES, WORKLOADS, build_inputs, experiment_spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
SAMPLE_S = 0.2  # target length of one timed sample
SAMPLES_ENOUGH = 15  # an operation with this many samples stops running
TRACE_CHECKPOINTS = 20  # traced snapshot round trips
SPEC_PREFIX = 100_000  # packets encoded both batched and per packet
REPEAT_PREFIX = 20_000  # packets of the small experiment that runs twice
CHECK_KEYS = 20_000  # query keys per comparison check
CENSUS_CHUNK = 8192


def import_program():
    """Import ``siamsketch`` from this checkout's ``src/``, and nothing else."""
    package = SRC / "siamsketch"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import siamsketch

    if Path(siamsketch.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported siamsketch from {siamsketch.__file__}")
    return siamsketch


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance(ss) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "siamsketch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_revision() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git``; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Workbench:
    """One workload at one seed: its inputs, exact counts and output checks."""

    def __init__(self, ss, wl, seed: int) -> None:
        self.ss = ss
        self.wl = wl
        self.seed = seed
        # Set up several times so setup_s is a median, as the other timings are.
        self.setup_meters: list[Meter] = []
        while (
            len(self.setup_meters) < SETUP_MIN_REPS
            or sum(m.raw_s for m in self.setup_meters) < SETUP_MIN_S
        ):
            self.setup_meters.append(Meter())
            self.inputs = self.setup_meters[-1](build_inputs, ss, wl, seed)
        self.spec = experiment_spec(ss, wl, self.inputs, seed)
        oracle = ss.ExactCounter()
        oracle.observe_stream(self.inputs.benign.as_u64())
        self.universe = [k for k, _ in oracle.flows()]
        self.truths = [c for _, c in oracle.flows()]
        self.checks = Checks()

    @property
    def packets(self) -> int:
        return len(self.inputs.stream)

    def build(self, scheme: str):
        return self.ss.experiment.build_sketch(scheme, self.spec)

    def check_before(self) -> None:
        """Checks (a) and (d) on a stream prefix, before anything is timed.

        (a) also runs at 4-bit counters, the only width whose streams of this
        size reach the group-wide shared and quad states.
        """
        prefix = self.inputs.stream[:SPEC_PREFIX]
        keys = strided(sorted(set(prefix.tolist())), CHECK_KEYS)
        for spec in (self.spec, replace(self.spec, counter_bits=4, shared_bits=2)):
            check_scalar_spec(self.checks, self.ss, spec, prefix, keys)
        small = replace(
            self.spec, benign=self.ss.Trace(self.inputs.stream[:REPEAT_PREFIX]), attack=None
        )
        rows = [self.ss.run_experiment(small).metric_rows for _ in range(2)]
        check_repeatable(self.checks, "prefix", rows)

    def check_outputs(self, sketches: dict, answers: dict, row_sets: list) -> None:
        check_totals(self.checks, sketches, self.packets)
        check_never_under(self.checks, self.truths, answers["count-min"])
        check_repeatable(self.checks, "full", row_sets)
        check_snapshot(self.checks, self.ss, sketches, strided(self.universe, CHECK_KEYS))


def run_end_to_end(bench: Workbench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off; returns (values, samples).

    A sample times one or more calls of an operation: ``run_experiment``, a
    full-stream ``encode_stream`` into a fresh sketch, a ``query_many`` over
    the flow universe, or a snapshot round trip. An operation's first sample
    is one call; later samples repeat the call to last about ``SAMPLE_S``, so
    that each holds enough speed readings. A ``Meter`` normalises each
    sample's time to the reference speed (see ``hostspeed``), and each metric
    is the median of its operation's samples.

    Every operation runs once; then, of the operations that have fewer than
    ``SAMPLES_ENOUGH`` samples and whose last sample still fits in the
    ``seconds`` left, the one furthest below its share of the time spent runs
    next. Samples of each operation thus spread over the run.
    """
    ss = bench.ss
    row_sets, sketches, answers = [], {}, {}

    def experiment(meter, _reps):  # one call is always longer than a sample
        row_sets.append(meter(ss.run_experiment, bench.spec).metric_rows)

    def encoder(scheme):
        def op(meter, reps):
            fresh = [bench.build(scheme) for _ in range(reps)]
            meter(encode_all, fresh, bench.inputs.stream)
            sketches[scheme] = fresh[-1]

        return op

    def querier(scheme):
        def op(meter, reps):
            answers[scheme] = meter(query_repeat, sketches[scheme], bench.universe, reps)

        return op

    def checkpointer(meter, reps):
        meter(checkpoint, ss, sketches["sc-lsb"], reps)

    # (metric, operation, share of the measuring time, value from the
    # normalised seconds of one call); encodes precede the queries and
    # checkpoints that read their sketches.
    ops = [("experiment_s", experiment, 0.34, lambda t: t)]
    ops += [
        (f"encode_mpps.{s}", encoder(s), 0.1, lambda t: bench.packets / t / 1e6)
        for s in SCHEMES
    ]
    ops += [
        (f"query_mqps.{s}", querier(s), 0.1, lambda t: len(bench.universe) / t / 1e6)
        for s in SCHEMES
    ]
    ops += [("checkpoint_ms", checkpointer, 0.06, lambda t: t * 1e3)]
    taken: list[list[tuple[Meter, int]]] = [[] for _ in ops]
    spent, last, reps = [0.0] * len(ops), [0.0] * len(ops), [1] * len(ops)
    t_start = time.perf_counter()
    while True:
        left = seconds - (time.perf_counter() - t_start)
        fits = [
            j
            for j in range(len(ops))
            if not spent[j] or (last[j] <= left and len(taken[j]) < SAMPLES_ENOUGH)
        ]
        if not fits:
            break
        i = min(fits, key=lambda j: spent[j] / ops[j][2])
        meter = Meter()
        last[i], _ = timed(ops[i][1], meter, reps[i])
        taken[i].append((meter, reps[i]))
        if not spent[i]:
            reps[i] = max(1, round(SAMPLE_S / meter.raw_s))
            last[i] *= reps[i]
        spent[i] += last[i]
    bench.check_outputs(sketches, answers, row_sets)

    ops.insert(0, ("setup_s", None, None, lambda t: t))
    taken.insert(0, [(m, 1) for m in bench.setup_meters])
    samples = {
        name: [
            {
                "reps": n,
                "raw_s": m.raw_s,
                "speed": m.speed,
                "value": value(m.seconds / n),
                "raw_value": value(m.raw_s / n),
            }
            for m, n in sample
        ]
        for (name, *_, value), sample in zip(ops, taken)
    }
    values = {name: statistics.median(s["value"] for s in sam) for name, sam in samples.items()}
    values.update(
        (f"are.{r['scheme']}", float(r["value"])) for r in row_sets[0] if r["metric"] == "are"
    )
    values["peak_rss_mb"] = peak_rss_mb()
    values["pass_rate"] = 1.0 - bench.checks.error_rate
    return values, samples


def encode_all(sketches, stream) -> None:
    for sketch in sketches:
        sketch.encode_stream(stream)


def query_repeat(sketch, keys, reps: int) -> list:
    for _ in range(reps):
        answers = sketch.query_many(keys)
    return answers


def checkpoint(ss, sketch, reps: int) -> None:
    for _ in range(reps):
        ss.load_bytes(ss.dump_bytes(sketch))


def run_traced(bench: Workbench) -> tuple[dict, Tracer]:
    """Per-layer metrics from a traced ``run_experiment``, traced set-up and
    checkpoints, and counts from a chunked census encode.

    The first ``run_experiment`` call in a process is slower than later ones,
    so a warm-up call precedes the traced and the untraced call that
    ``trace.overhead_s`` compares.
    """
    ss = bench.ss
    warmup = ss.run_experiment(bench.spec)
    tracer = Tracer()
    with tracer.installed(ss):
        build_inputs(ss, bench.wl, bench.seed)
        traced_s, traced = timed(ss.run_experiment, bench.spec)
    untraced_s, untraced = timed(ss.run_experiment, bench.spec)
    census_sketch, values = census_encode(bench)
    sketches = {"sc-lsb": census_sketch}
    for scheme in SCHEMES[1:]:
        sketches[scheme] = bench.build(scheme)
        encode_all([sketches[scheme]], bench.inputs.stream)
    with tracer.installed(ss):
        checkpoint(ss, sketches["sc-lsb"], TRACE_CHECKPOINTS)
    answers = {"count-min": sketches["count-min"].query_many(bench.universe)}
    bench.check_outputs(sketches, answers, [r.metric_rows for r in (warmup, traced, untraced)])

    values.update(span_metrics(tracer.totals()))
    values["oracle.flows"] = len(bench.universe)
    values["snapshot.bytes"] = len(ss.dump_bytes(sketches["sc-lsb"]))
    values["trace.overhead_s"] = traced_s - untraced_s
    return values, tracer


def census_encode(bench: Workbench):
    """Encode sc-lsb in chunks, reading the group-state census before each
    chunk; returns the sketch and the ``sketch.*`` counts."""
    ss = bench.ss
    sketch = bench.build("sc-lsb")
    cfg = sketch.config
    groups = cfg.width // 4
    stream = bench.inputs.stream
    offpath = 0
    for start in range(0, len(stream), CENSUS_CHUNK):
        chunk = stream[start : start + CENSUS_CHUNK]
        for row, seed in enumerate(cfg.seeds):
            moved = np.array([sketch.group_state(row, g) != 0 for g in range(groups)])
            offpath += int(np.count_nonzero(moved[ss.index_batch(chunk, seed, cfg.width) >> 2]))
        sketch.encode_stream(chunk)
    census = np.zeros(11, dtype=np.int64)
    for row in range(cfg.rows):
        census += np.bincount([sketch.group_state(row, g) for g in range(groups)], minlength=11)
    rows = range(cfg.rows)
    counts = {f"sketch.census.{code}": int(n) for code, n in enumerate(census)}
    counts["sketch.offpath_share"] = offpath / (len(stream) * cfg.rows)
    counts["sketch.lsb_discard"] = sum(sketch.lsb_discard(r) for r in rows)
    counts["sketch.counters"] = sum(sketch.counter_count())
    counts["sketch.total_gap"] = sum(
        len(stream) - sketch.row_total(r) - sketch.lsb_discard(r) for r in rows
    )
    return sketch, counts


def report(benchmark: dict, trace: bool, values: dict, samples: dict, checks: Checks) -> dict:
    """Print one line per metric, then return the result object."""
    specs = benchmark["per_layer" if trace else "end_to_end"]
    absent = [m["name"] for m in specs if m["name"] not in values]
    if absent:
        raise SystemExit(f"error: no value for metrics {absent}")
    print(f"{'metric':<30} {'value':>14} {'unit':<8} {'better':<7} {'samples':>7} {'raw':>14}")
    for m in specs:
        taken = samples.get(m["name"], [])
        raw = f"{statistics.median(s['raw_value'] for s in taken):>14.6g}" if taken else ""
        print(
            f"{m['name']:<30} {values[m['name']]:>14.6g} {m['unit']:<8} {m['better']:<7} "
            f"{len(taken) or 1:>7} {raw}"
        )
    print(
        f"checks: {checks.attempted} attempted, {len(checks.failures)} failed, "
        f"error_rate {checks.error_rate:g}"
        + (f" ({', '.join(checks.failures)})" if checks.failures else "")
    )
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in specs
        },
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload at one seed and return the result object."""
    ss = import_program()
    benchmark = load_benchmark()
    bench = Workbench(ss, workload, seed)
    bench.check_before()
    record = {
        "workload": asdict(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(ss),
    }
    if trace:
        values, tracer = run_traced(bench)
        samples = {}
        record["layer_map"] = {m: targets for m, (targets, _, _) in LAYER_METRICS.items()}
        record["missing_spans"] = tracer.missing
        record["span_totals"] = tracer.totals()
        record["spans"] = tracer.dump()
        if tracer.missing:
            print(f"missing spans: {', '.join(tracer.missing)}")
    else:
        values, samples = run_end_to_end(bench, seconds)
        record["samples"] = samples
    record["checks"] = bench.checks.outcomes
    print(f"workload {workload.name} seed {seed} trace {int(trace)}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    result = report(benchmark, trace, values, samples, bench.checks)
    record["result"] = result
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = "spans" if trace else "e2e"
    (out_dir / f"{workload.name}-seed{seed}-{kind}.json").write_text(json.dumps(record) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
