"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import time
import unittest
from dataclasses import replace
from unittest import mock

import hostspeed
import run
import tracing
from checks import Checks
from workloads import SCHEMES, WORKLOADS

TINY = {
    "attack": dict(flows=500, packets=5_000, packets_per_flow=2),
    "many-flows": dict(flows=5_000, packets=3_000),
}
OUT = run.OUT_DIR / "selftest"


def tiny(name: str):
    return replace(WORKLOADS[name], **TINY[name])


@contextlib.contextmanager
def quick():
    """Repeat only the minimum number of times: tiny runs are fast."""
    with mock.patch.object(run, "SETUP_MIN_S", 0.0):
        yield


def run_quiet(name: str, trace: bool) -> tuple[dict, str]:
    out = io.StringIO()
    with quick(), contextlib.redirect_stdout(out):
        result = run.run_workload(tiny(name), seed=3, seconds=0, trace=trace, out_dir=OUT)
    return result, out.getvalue()


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.benchmark = run.load_benchmark()

    def test_workloads_and_layers_match_the_code(self):
        self.assertEqual([w["name"] for w in self.benchmark["workloads"]], list(WORKLOADS))
        e2e = {m["name"] for m in self.benchmark["end_to_end"]}
        self.assertEqual([m["name"] for m in self.benchmark["per_layer"]], list(tracing.LAYER_METRICS))
        for metric, (targets, _, _) in tracing.LAYER_METRICS.items():
            self.assertTrue(targets and set(targets) <= e2e, metric)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.benchmark["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class TinyRunTest(unittest.TestCase):
    def assert_reports_every_metric(self, kind: str, result: dict, text: str):
        specs = run.load_benchmark()[kind]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        lines = {line.split()[0]: line.split() for line in text.splitlines() if line.strip()}
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertEqual(lines[m["name"]][2:4], [m["unit"], m["better"]], m["name"])
        self.assertEqual(json.loads(json.dumps(result)), result)

    def test_end_to_end_on_every_workload(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, text = run_quiet(name, trace=False)
                self.assertTrue(result["correct"], text)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assert_reports_every_metric("end_to_end", result, text)
                self.assertEqual(result["metrics"]["pass_rate"]["value"], 1.0)

    def test_traced_run(self):
        result, text = run_quiet("attack", trace=True)
        self.assertTrue(result["correct"], text)
        self.assert_reports_every_metric("per_layer", result, text)
        record = json.loads((OUT / "attack-seed3-spans.json").read_text())
        self.assertEqual(record["missing_spans"], [])
        names = set(record["span_totals"])
        for expected in ("traffic.gen_attack", "hashing.index_batch", "snapshot.dump_bytes"):
            self.assertIn(expected, names)
        for scheme in SCHEMES:
            self.assertIn(tracing.sketch_span("encode_stream", scheme), names)
        metrics = result["metrics"]
        self.assertGreater(metrics["sketch.encode_s"]["value"], metrics["sketch.update_s"]["value"])
        self.assertEqual(sum(metrics[f"sketch.census.{c}"]["value"] for c in range(11)), 3 * 1024)


class CheckTest(unittest.TestCase):
    def test_wrong_answer_is_counted(self):
        ss = run.import_program()
        with quick(), contextlib.redirect_stdout(io.StringIO()):
            bench = run.Workbench(ss, tiny("many-flows"), seed=3)
        sketches = {s: bench.build(s) for s in SCHEMES}
        run.encode_all(sketches.values(), bench.inputs.stream)
        answers = {s: sk.query_many(bench.universe) for s, sk in sketches.items()}
        rows = ss.run_experiment(bench.spec).metric_rows
        bench.check_outputs(sketches, answers, [rows, rows])
        self.assertEqual(bench.checks.failures, [])
        answers["count-min"][0] = bench.truths[0] - 1
        bench.check_outputs(sketches, answers, [rows, rows])
        self.assertEqual(bench.checks.failures, ["count-min.never-under"])
        self.assertAlmostEqual(bench.checks.error_rate, 1 / bench.checks.attempted)
        benchmark = run.load_benchmark()
        values = {m["name"]: 1.0 for m in benchmark["end_to_end"]}
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.report(benchmark, False, values, {}, bench.checks)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_empty_tally_is_not_a_pass(self):
        self.assertEqual(Checks().error_rate, 1.0)


class MeterTest(unittest.TestCase):
    def test_reference_time_is_taken_off_and_normalised(self):
        meter = hostspeed.Meter()
        t0 = time.perf_counter()
        meter(time.sleep, 0.2)
        wall = time.perf_counter() - t0
        self.assertGreaterEqual(len(meter.ref_s), 5)
        self.assertLess(meter.raw_s, wall)
        self.assertAlmostEqual(meter.raw_s, 0.2, delta=0.05)
        self.assertAlmostEqual(meter.seconds * meter.speed, meter.raw_s)
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class TracerTest(unittest.TestCase):
    def test_missing_entry_point_is_reported_not_raised(self):
        ss = run.import_program()
        original = ss.gen_zipf
        targets = tracing.FUNCTION_TARGETS + (("traffic", "no_such_entry_point"),)
        methods = tracing.METHOD_TARGETS + (("baselines", "NoSuchSketch", "encode_stream"),)
        tracer = tracing.Tracer()
        with mock.patch.object(tracing, "FUNCTION_TARGETS", targets), mock.patch.object(
            tracing, "METHOD_TARGETS", methods
        ):
            with tracer.installed(ss):
                self.assertIsNot(ss.gen_zipf, original)
                ss.gen_zipf(ss.ZipfConfig(skew=1.0, flows=10, packets=10, seed=1))
        self.assertIs(ss.gen_zipf, original)
        self.assertEqual(
            tracer.missing,
            ["traffic.no_such_entry_point", "baselines.NoSuchSketch.encode_stream"],
        )
        self.assertEqual(tracer.totals()["traffic.gen_zipf"]["calls"], 1)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        tracer.spans = [
            tracing.Span("outer", 0.0, 10.0, None, 0),
            tracing.Span("inner", 1.0, 4.0, 0, 0),
            tracing.Span("inner", 5.0, 6.0, 0, 0),
        ]
        totals = tracer.totals()
        self.assertEqual(totals["outer"]["self_s"], 6.0)
        self.assertEqual(totals["outer"]["incl_s"], 10.0)
        self.assertEqual(totals["inner"]["calls"], 2)


if __name__ == "__main__":
    unittest.main()
