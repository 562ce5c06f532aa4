"""Experiment engine: drive schemes over a stream, measure, report.

An experiment fixes a memory budget, builds every requested scheme at equal
memory (state-tracking bits charged against the dynamic schemes), drives all
of them over the same packet stream with the same row seeds, snapshots the
logical-counter census at a fixed packet interval, and evaluates the
requested applications against exact benign ground truth. The widths and
seeds resolve to one dynamic config, which sc-lsb and instant share, and one
Count-Min config (``scheme_configs``). Both are built for every spec,
whatever schemes it runs, when the spec is built, so a shape no config
accepts is refused by ``ExperimentSpec(...)``, before any trace is read.

Metrics are computed over the benign flow universe: attack packets pollute
the sketches but are not themselves measurement targets. Reports are fully
deterministic for a fixed spec and seed; wall-clock timing only appears in
benchmark output, never in metric reports.

The evaluation works on numpy arrays over that universe. Ground truth is one
``np.unique(..., return_counts=True)`` of the benign keys: a sorted flow-key
array and the exact count of each, in the order an ``ExactCounter`` fed the
same array lists its flows, and no per-flow dict is built. Each scheme's
estimates are one uint64 array from ``_query_array``. Every app is scored
through the public functions of ``metrics``: ``metric_are`` and
``metric_rmse`` (size); ``true_heavy_hitters``, ``metric_f1`` and
``recall_of`` (heavy hitter); ``estimate_fsd``, ``true_fsd`` and
``metric_wmre`` (FSD); ``estimate_entropy`` and ``metric_re`` (entropy);
``detect_changes`` and ``metric_f1`` (change). Heavy hitters and changes are
boolean masks over one key array, scored by counting. The change app's truth
counts each half of the stream; on a benign-only stream only the first half
is counted, and the second half's counts are the ground truth's minus the
first's (``_change_truth``). A mixed stream keeps counting both halves:
adding the attack trace's counts to the ground truth sorts the whole attack
trace, and that measured no faster than sorting the second half.

Each packet is placed once per (width, row seeds) and counted once per
window it belongs to. The stream is cut into segments at every snapshot
interval (where the census is taken), at ``half = len(stream) // 2`` and at
every multiple of ``hashing.ENCODE_CHUNK``. Each segment is wrapped once in a
``hashing.KeyBatch`` and fed to every scheme's main sketch in ``spec.schemes``
order. The batch keeps the slots of each width it is asked for, so sc-lsb
and instant, which share a width and the row seeds (``scheme_configs``),
place it once between them, and Count-Min, at its own width, once more. The
change app compares two windows, the stream's halves: the first is a copy of
the main sketch taken at ``half``, the second a fresh sketch fed the same
batches from ``half`` on. Encoding is sequential and does not depend on where
a stream is cut, so the copy is exactly a fresh sketch fed the first half,
and no cut changes a sketch's state. Counter rows are collected per scheme,
so the counter report lists one scheme after another as before.

Query placement is not shared: each ``_query_array`` places its keys
inside the kernel library's query pass, which reads each key's slot in
every row's decoded table and keeps only the minimum, so no slot array is
held (without the library it places per row with ``index_batch`` and keeps
nothing). Keeping the slots of the flow universe and of the change
universe for the next sketch raised the benchmark's peak resident memory on
184k flows from about 89 to 100 MB.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
from dataclasses import dataclass, field, fields
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
from .hashing import ENCODE_CHUNK, MASK64, ROWS, KeyBatch, derive_seeds
from .metrics import (
    detect_changes,
    estimate_entropy,
    estimate_fsd,
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
from .rules import Choice, Int, Items, Real, SpecError, Text, checked
from .sketch import SiameseSketch, SketchConfig
from .traffic import Trace, concat_traces, interleave_traces, read_trace

# the scheme table: each scheme's name, in report order, and its class
SCHEME_CLASSES = {cls.scheme: cls for cls in (SiameseSketch, InstantMergeSketch, CountMinSketch)}
SCHEMES = tuple(SCHEME_CLASSES)

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


# a trace given inline, or the path of its file
_TRACE = Text("a Trace or a path", (Trace, Path))


@checked
@dataclass
class ExperimentSpec:
    """One experiment cell; every field is reflected in the report.

    Each field declares its rule: its kind, its range and whether it may be
    None (``RULES`` holds them all). The shape fields have the rules of
    ``SketchConfig``'s, and ``run`` reads each flag as its field's rule
    says. The rules that tie fields together (width or memory_bytes, the
    memory budget, ``shared_bits < counter_bits``) are checked by the
    configs that ``scheme_configs`` builds, for every spec, whatever schemes
    it runs.
    """

    # A list of names (a string would be read letter by letter) is stored as
    # a tuple, so that JSON, Python and a flag give one spec and one hash; a
    # repeated scheme would feed its sketch every segment twice. A numpy int
    # would overflow in the seed hash, change the config hash and fail the
    # JSON report, so it is stored as a Python int. An int path would be
    # opened as a file descriptor (0 reads stdin). None means no threshold;
    # zero or less would detect every flow.
    schemes: tuple[str, ...] = Items(Choice(SCHEMES), required=True, unique=True).field(SCHEMES)
    rows: int = ROWS.field(3)
    width: int | None = SketchConfig.RULES["width"].field(4096, none=True)
    memory_bytes: int | None = Int().field(None)
    counter_bits: int = SketchConfig.RULES["counter_bits"].field(8)
    shared_bits: int = SketchConfig.RULES["shared_bits"].field(4)
    merge_mode: str = SketchConfig.RULES["merge_mode"].field("sum")
    benign: Trace | str | Path | None = _TRACE.field(None)
    attack: Trace | str | Path | None = _TRACE.field(None)
    attack_fraction: float | None = Real(0, 1).field(None)
    interleave: str = Choice((INTERLEAVE_SHUFFLE, INTERLEAVE_APPEND)).field(INTERLEAVE_SHUFFLE)
    snapshot_interval: int = Int(1).field(100_000)
    apps: tuple[str, ...] = Items(Choice(ALL_APPS)).field(ALL_APPS)
    threshold: int | None = Int(1).field(None)
    threshold_fraction: float | None = Real(0, 1, open_lo=True).field(0.00004, none=True)
    seed: int = Int(0, MASK64).field(0)
    experiment_id: str = Text().field("")

    def __post_init__(self) -> None:
        self.RULES.apply(self)
        scheme_configs(self)


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


def scheme_configs(spec: ExperimentSpec) -> dict[str, SketchConfig | CountMinConfig]:
    """The config of every scheme under the spec's budget, whatever schemes
    it runs: one ``SketchConfig``, which sc-lsb and instant share, and one
    ``CountMinConfig`` at the same memory, with the same row seeds. A config
    checks its fields when it is built, so a width or a field no scheme can
    take raises ``SpecError`` here, before any sketch allocates a row."""
    if spec.memory_bytes is not None:
        width, cm_width = equal_memory_widths(spec.memory_bytes, spec.rows, spec.counter_bits)
    elif spec.width is not None:
        width, cm_width = spec.width, count_min_width_for(spec.width, spec.counter_bits)
    else:
        raise SpecError("width", "either width or memory_bytes is required")
    seeds = derive_seeds(spec.seed, spec.rows)
    dynamic = SketchConfig(rows=spec.rows, width=width, counter_bits=spec.counter_bits,
                           shared_bits=spec.shared_bits, merge_mode=spec.merge_mode, seeds=seeds)
    count_min = CountMinConfig(rows=spec.rows, width=cm_width, seeds=seeds)
    return {scheme: count_min if scheme == CountMinSketch.scheme else dynamic for scheme in SCHEMES}


def build_sketch(scheme: str, spec: ExperimentSpec):
    """A fresh sketch of ``scheme`` as ``run_experiment`` builds it."""
    return SCHEME_CLASSES[scheme](scheme_configs(spec)[scheme])


def config_hash(spec: ExperimentSpec) -> str:
    # Read the fields directly: ``dataclasses.asdict`` would deep-copy the
    # inline traces only for them to be dropped.
    payload = {
        f.name: getattr(spec, f.name)
        for f in fields(spec)
        if f.name not in ("benign", "attack", "experiment_id")
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


def _load(trace: Trace | str | Path | None) -> Trace | None:
    """The trace, read if given by path; :func:`read_trace` folds a file's
    wide keys, so every trace here holds flow ids."""
    if trace is None or isinstance(trace, Trace):
        return trace
    return read_trace(trace)


def assemble_stream(spec: ExperimentSpec) -> tuple[Trace, Trace | None]:
    """(mixed stream, benign part). The benign part feeds the oracle."""
    benign = _load(spec.benign)
    attack = _load(spec.attack)
    # no trace, or traces of no packets, would report nothing and exit 0
    if not sum(len(trace) for trace in (benign, attack) if trace is not None):
        raise SpecError("benign", "benign and attack: a run needs at least one packet")
    if benign is None:
        return attack, None
    if attack is None or len(attack) == 0:
        return benign, benign
    if spec.interleave == INTERLEAVE_APPEND:
        return concat_traces(benign, attack), benign
    return interleave_traces(benign, attack, spec.seed), benign


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    configs = scheme_configs(spec)
    stream, benign = assemble_stream(spec)
    keys = stream.keys
    if benign is None:
        flow_keys, truths = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    else:
        flow_keys, truths = np.unique(benign.keys, return_counts=True)

    chash = config_hash(spec)
    exp_id = spec.experiment_id or f"exp-{chash}"
    frac = "" if spec.attack_fraction is None else repr(spec.attack_fraction)
    result = ExperimentResult()

    threshold = spec.threshold
    if threshold is None and spec.threshold_fraction is not None:
        base = int(truths.sum()) or len(stream)
        threshold = threshold_from_fraction(spec.threshold_fraction, base)

    if "heavy-hitter" in spec.apps and threshold:
        heavy = true_heavy_hitters(truths, threshold)
    if "fsd" in spec.apps or "entropy" in spec.apps:
        act_fsd = true_fsd(truths)
    # the change app's two windows are the stream's halves (module docstring)
    half = len(keys) // 2
    need_windows = bool("change" in spec.apps and threshold and len(flow_keys))
    if need_windows:
        held = (flow_keys, truths) if stream is benign else None
        universe, changed = _change_truth(keys, threshold, held)

    # every scheme counts each segment before the next is cut (module docstring)
    sketches = {scheme: SCHEME_CLASSES[scheme](configs[scheme]) for scheme in spec.schemes}
    second_windows = (
        {scheme: SCHEME_CLASSES[scheme](configs[scheme]) for scheme in spec.schemes}
        if need_windows
        else {}
    )
    counter_rows = {scheme: [] for scheme in spec.schemes}
    interval = spec.snapshot_interval
    cuts = sorted(
        {*range(interval, len(keys), interval), *range(ENCODE_CHUNK, len(keys), ENCODE_CHUNK),
         len(keys), half}
    )
    start = 0
    for stop in cuts:
        if stop > start:
            batch = KeyBatch(keys[start:stop])
            for scheme, sketch in sketches.items():
                sketch.encode_stream(batch)
                if start >= half and need_windows:
                    second_windows[scheme].encode_stream(batch)
        start = stop
        if stop == half and need_windows:
            first_windows = copy.deepcopy(sketches)
        if stop and (stop % interval == 0 or stop == len(keys)):
            for scheme, sketch in sketches.items():
                for row, count in enumerate(sketch.counter_count()):
                    counter_rows[scheme].append(
                        {
                            "experiment_id": exp_id,
                            "scheme": scheme,
                            "packets": stop,
                            "row": row,
                            "counters": count,
                        }
                    )

    batch = None  # the last segment's slots are not needed by the queries
    for scheme, sketch in sketches.items():
        result.counter_rows += counter_rows[scheme]

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

        if not len(flow_keys):
            continue
        estimates = sketch._query_array(flow_keys)
        if "size" in spec.apps:
            emit("are", metric_are(truths, estimates))
            emit("rmse", metric_rmse(truths, estimates))
        if "heavy-hitter" in spec.apps and threshold:
            detected = estimates >= threshold
            emit("f1_heavy_hitter", metric_f1(detected, heavy))
            emit("recall_heavy_hitter", recall_of(detected, heavy))
        if "fsd" in spec.apps or "entropy" in spec.apps:
            est_fsd = estimate_fsd(estimates)
            if "fsd" in spec.apps:
                emit("wmre", metric_wmre(est_fsd, act_fsd))
            if "entropy" in spec.apps:
                est_h = estimate_entropy(est_fsd)
                act_h = estimate_entropy(act_fsd)
                emit("entropy_re" if act_h else "entropy_re_abs", metric_re(est_h, act_h))
        if need_windows:
            windows = (first_windows[scheme], second_windows[scheme])
            before, after = (w._query_array(universe) for w in windows)
            emit("f1_change", metric_f1(detect_changes(before, after, threshold), changed))
    return result


def _change_truth(
    keys: np.ndarray, threshold: int, held: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray]:
    """(every key of the stream, sorted, as a uint64 array; a mask over it of
    the keys whose exact count changes by at least ``threshold`` between the
    stream's two halves). ``held`` is the whole stream's sorted keys and
    their counts when the caller already has them: the benign ground truth,
    when the stream is the benign trace alone. Then only the first half is
    counted and the second half's counts are the totals minus the first's.
    Otherwise each half is counted on its own and the counts are placed on
    the sorted union. Either way the whole stream is never sorted."""
    half = len(keys) // 2
    # return_counts keeps np.unique on its sorting path: without it, numpy
    # 2.4 takes a hash path that was about 18x slower on 150k uint64 keys.
    k0, c0 = np.unique(keys[:half], return_counts=True)
    if held is None:
        k1, c1 = np.unique(keys[half:], return_counts=True)
        universe = np.unique(np.concatenate((k0, k1)), return_counts=True)[0]
        before, after = _counts_on(universe, k0, c0), _counts_on(universe, k1, c1)
    else:
        universe, totals = held
        before = _counts_on(universe, k0, c0)
        after = totals - before
    return universe, detect_changes(before, after, threshold)


def _counts_on(universe: np.ndarray, keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``counts`` of the sorted ``keys`` placed on the sorted ``universe``
    that holds them all, 0 at every other key."""
    out = np.zeros(len(universe), dtype=np.int64)
    out[np.searchsorted(universe, keys)] = counts
    return out
