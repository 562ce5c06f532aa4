"""Spans around the program's public entry points, installed from outside.

The tracer replaces each target function, in every ``siamsketch`` module that
holds a reference to it, with a wrapper that records a span (name, start,
end, parent). Sketch methods are wrapped per class and name their spans by
the instance's scheme, so a span keeps its name when a scheme moves to
another class. A target that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, function) pairs; the span is named "<module>.<function>".
FUNCTION_TARGETS = (
    ("traffic", "gen_zipf"),
    ("traffic", "gen_attack"),
    ("traffic", "interleave_traces"),
    ("hashing", "index_batch"),
    ("snapshot", "dump_bytes"),
    ("snapshot", "load_bytes"),
    ("metrics", "metric_are"),
    ("metrics", "metric_rmse"),
    ("metrics", "true_heavy_hitters"),
    ("metrics", "recall_of"),
    ("metrics", "metric_f1"),
    ("metrics", "estimate_fsd"),
    ("metrics", "true_fsd"),
    ("metrics", "metric_wmre"),
    ("metrics", "estimate_entropy"),
    ("metrics", "metric_re"),
    ("metrics", "detect_changes"),
    ("experiment", "run_experiment"),
)

# (module, class, method). Sketch spans are "<layer>.<method>:<scheme>".
METHOD_TARGETS = (
    ("oracle", "ExactCounter", "observe_stream"),
    ("sketch", "SiameseSketch", "encode_stream"),
    ("sketch", "SiameseSketch", "query_many"),
    ("baselines", "InstantMergeSketch", "encode_stream"),
    ("baselines", "InstantMergeSketch", "query_many"),
    ("baselines", "CountMinSketch", "encode_stream"),
    ("baselines", "CountMinSketch", "query_many"),
)

SKETCH_METHODS = ("encode_stream", "query_many")


def sketch_span(method: str, scheme: str) -> str:
    layer = "sketch" if scheme == "sc-lsb" else "baselines"
    return f"{layer}.{method}:{scheme}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    items: int


class Tracer:
    """In-memory span recorder; spans are written out by the caller."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args)
            items = len(args[0]) if name == "hashing.index_batch" else 0
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, items)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self, ss):
        """Wrap every target while the block runs; restore them after."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == ss.__name__ or name.startswith(ss.__name__ + "."))
        ]
        undo = []
        try:
            for mod_name, fn_name in FUNCTION_TARGETS:
                owner = getattr(ss, mod_name, None)
                fn = getattr(owner, fn_name, None)
                if fn is None:
                    self._note_missing(f"{mod_name}.{fn_name}")
                    continue
                wrapped = self.wrap(fn, lambda _args, n=f"{mod_name}.{fn_name}": n)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            undo.append((m, attr, fn))
            for mod_name, cls_name, meth in METHOD_TARGETS:
                cls = getattr(getattr(ss, mod_name, None), cls_name, None)
                fn = getattr(cls, meth, None)
                if fn is None:
                    self._note_missing(f"{mod_name}.{cls_name}.{meth}")
                    continue
                if meth in SKETCH_METHODS:
                    name_of = lambda args, m=meth: sketch_span(m, args[0].scheme)
                else:
                    name_of = lambda _args, n=f"{mod_name}.{meth}": n
                undo.append((cls, meth, cls.__dict__.get(meth)))
                setattr(cls, meth, self.wrap(fn, name_of))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def _note_missing(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive time, self time, items."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            t = out.setdefault(span.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "items": 0})
            t["calls"] += 1
            t["incl_s"] += span.end - span.start
            t["self_s"] += span.end - span.start - children
            t["items"] += span.items
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "items": s.items}
            for s in self.spans
        ]


# Per-layer metric -> (end-to-end metrics it should move, derivation, span names).
# "self" sums span self time, "incl" sums inclusive time, "ms_per_call" is the
# mean inclusive time per call in ms, "mpps" is keys hashed per second of self
# time. "direct" metrics are not derived from spans: run.py reads them through
# public inspection calls, or from its own timings (trace.overhead_s).
LAYER_METRICS = {
    "traffic.gen_zipf_s": (("setup_s",), "self", ("traffic.gen_zipf",)),
    "traffic.gen_attack_s": (("setup_s",), "self", ("traffic.gen_attack",)),
    "traffic.interleave_s": (("setup_s",), "self", ("traffic.interleave_traces",)),
    "oracle.observe_s": (("experiment_s",), "self", ("oracle.observe_stream",)),
    "oracle.flows": (("experiment_s",), "direct", ()),
    "hashing.index_batch_s": (
        ("encode_mpps.count-min", "encode_mpps.sc-lsb", "encode_mpps.instant"),
        "self",
        ("hashing.index_batch",),
    ),
    "hashing.index_batch_mpps": (
        ("encode_mpps.count-min", "encode_mpps.sc-lsb", "encode_mpps.instant"),
        "mpps",
        ("hashing.index_batch",),
    ),
    "sketch.encode_s": (
        ("encode_mpps.sc-lsb", "experiment_s"),
        "incl",
        (sketch_span("encode_stream", "sc-lsb"),),
    ),
    "sketch.update_s": (
        ("encode_mpps.sc-lsb", "experiment_s"),
        "self",
        (sketch_span("encode_stream", "sc-lsb"),),
    ),
    "sketch.query_s": (
        ("query_mqps.sc-lsb", "experiment_s"),
        "self",
        (sketch_span("query_many", "sc-lsb"),),
    ),
    "sketch.offpath_share": (("encode_mpps.sc-lsb",), "direct", ()),
    **{
        f"sketch.census.{code}": (("encode_mpps.sc-lsb", "query_mqps.sc-lsb"), "direct", ())
        for code in range(11)
    },
    "sketch.lsb_discard": (("are.sc-lsb",), "direct", ()),
    "sketch.counters": (("encode_mpps.sc-lsb", "query_mqps.sc-lsb"), "direct", ()),
    "sketch.total_gap": (("are.sc-lsb",), "direct", ()),
    **{
        f"baselines.encode_s.{scheme}": (
            (f"encode_mpps.{scheme}",),
            "incl",
            (sketch_span("encode_stream", scheme),),
        )
        for scheme in ("instant", "count-min")
    },
    **{
        f"baselines.query_s.{scheme}": (
            (f"query_mqps.{scheme}",),
            "self",
            (sketch_span("query_many", scheme),),
        )
        for scheme in ("instant", "count-min")
    },
    "snapshot.dump_ms": (("checkpoint_ms",), "ms_per_call", ("snapshot.dump_bytes",)),
    "snapshot.load_ms": (("checkpoint_ms",), "ms_per_call", ("snapshot.load_bytes",)),
    "snapshot.bytes": (("checkpoint_ms",), "direct", ()),
    "metrics.size_s": (("experiment_s",), "self", ("metrics.metric_are", "metrics.metric_rmse")),
    # metric_f1 also scores the change app; its cost is charged here.
    "metrics.heavy_hitter_s": (
        ("experiment_s",),
        "self",
        ("metrics.true_heavy_hitters", "metrics.recall_of", "metrics.metric_f1"),
    ),
    "metrics.fsd_s": (
        ("experiment_s",),
        "self",
        ("metrics.estimate_fsd", "metrics.true_fsd", "metrics.metric_wmre"),
    ),
    "metrics.entropy_s": (
        ("experiment_s",),
        "self",
        ("metrics.estimate_entropy", "metrics.metric_re"),
    ),
    "metrics.change_s": (("experiment_s",), "self", ("metrics.detect_changes",)),
    "experiment.self_s": (("experiment_s",), "self", ("experiment.run_experiment",)),
    "trace.overhead_s": (("experiment_s",), "direct", ()),
}


def span_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics derived from span totals; absent spans give 0."""
    out = {}
    for metric, (_, how, names) in LAYER_METRICS.items():
        if how == "direct":
            continue
        rows = [totals[n] for n in names if n in totals]
        calls = sum(r["calls"] for r in rows)
        self_s = sum(r["self_s"] for r in rows)
        incl_s = sum(r["incl_s"] for r in rows)
        if how == "self":
            out[metric] = self_s
        elif how == "incl":
            out[metric] = incl_s
        elif how == "ms_per_call":
            out[metric] = incl_s / calls * 1e3 if calls else 0.0
        else:
            items = sum(r["items"] for r in rows)
            out[metric] = items / self_s / 1e6 if self_s else 0.0
    return out
