import copy
import csv
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamsketch import (
    ExperimentSpec,
    Trace,
    ZipfConfig,
    gen_attack,
    gen_zipf,
    plan_attack,
    run_experiment,
)
from siamsketch import experiment, hashing
from siamsketch.experiment import assemble_stream, build_sketch, config_hash, resolve_widths
from siamsketch.snapshot import dump_bytes


def _small_spec(**kwargs):
    defaults = dict(
        width=256,
        benign=gen_zipf(ZipfConfig(skew=1.0, flows=500, packets=20_000, seed=3)),
        snapshot_interval=5000,
        seed=3,
        experiment_id="t",
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(schemes=("bogus",))
    with pytest.raises(ValueError):
        ExperimentSpec(width=None, memory_bytes=None)
    with pytest.raises(ValueError):
        ExperimentSpec(snapshot_interval=0)
    with pytest.raises(ValueError):
        ExperimentSpec(apps=("nope",))
    with pytest.raises(ValueError):
        ExperimentSpec(interleave="sorted")


def test_spec_rejects_thresholds_that_are_not_positive():
    # a threshold of zero or less would report every flow as heavy and every
    # flow as changed; None keeps meaning "no threshold"
    for bad in (dict(threshold=-5), dict(threshold=0), dict(threshold_fraction=0.0),
                dict(threshold_fraction=-0.1), dict(threshold=0, threshold_fraction=None)):
        with pytest.raises(ValueError, match="threshold"):
            ExperimentSpec(apps=("heavy-hitter",), **bad)
    ExperimentSpec(threshold=None, threshold_fraction=None)
    ExperimentSpec(threshold=1, threshold_fraction=None)


def _wide_keys(seed, packets=6000):
    """A Zipf stream of 13-byte keys, each rank's 8-byte key followed by five
    more bytes, as a 5-tuple's port and protocol bytes follow its addresses."""
    keys = gen_zipf(ZipfConfig(skew=1.0, flows=400, packets=packets, seed=seed)).as_u64()
    tail = b"\x01\xbb\x06\x00\x00"
    return [k.to_bytes(8, "little") + tail for k in keys.tolist()]


def _wide_trace(seed, packets=6000):
    """The trace of ``_wide_keys``: their flow ids, each key folded once."""
    return Trace(_wide_keys(seed, packets))


def test_wide_key_traces_run_deterministically():
    benign = _wide_trace(3)
    # no attack, a wide attack trace, and gen_attack's 8-byte keys
    for attack in (None, _wide_trace(4, packets=3000), gen_attack(plan_attack(64, 0.5), seed=9)):
        extra = {} if attack is None else dict(attack=attack, attack_fraction=0.33)
        spec = _small_spec(benign=benign, apps=("size", "heavy-hitter", "change", "fsd"), **extra)
        first, second = run_experiment(spec), run_experiment(spec)
        assert first.metric_rows == second.metric_rows
        assert first.counter_rows == second.counter_rows
        assert {r["metric"] for r in first.metric_rows} >= {"are", "f1_heavy_hitter", "f1_change"}
        if attack is None:
            continue
        # the flow ids of the mix are the folds of the two traces' keys
        stream, folded = assemble_stream(spec)
        assert len(stream) == len(benign) + len(attack)
        assert np.array_equal(folded.as_u64(), benign.as_u64())
        both = np.concatenate([benign.as_u64(), attack.as_u64()])
        assert np.array_equal(np.sort(stream.as_u64()), np.sort(both))


def test_wide_benign_trace_is_folded_once(monkeypatch, tmp_path):
    # each wide key is folded once, where its trace is built or read; the
    # interleave and the ground truth read the folds, and the run folds none
    folds = []
    real = hashing.flow_id
    monkeypatch.setattr(hashing, "flow_id", lambda key: folds.append(key) or real(key))
    benign, attack = _wide_trace(3, packets=2000), _wide_trace(4, packets=10)
    assert len(folds) == len(benign) + len(attack)
    folds.clear()
    built = run_experiment(_small_spec(benign=benign, attack=attack, attack_fraction=0.5))
    assert folds == []
    # given by path, the file's records are folded once, when it is read,
    # to the same flow ids
    path = tmp_path / "wide.sktr"
    records = _wide_keys(3, packets=2000)
    path.write_bytes(struct.pack("<4sHH", b"SKTR", 1, 13) + b"".join(records))
    folds.clear()
    read = run_experiment(_small_spec(benign=str(path), attack=attack, attack_fraction=0.5))
    assert len(folds) == len(records)
    def values(res):
        return [(r["scheme"], r["metric"], r["value"]) for r in res.metric_rows]

    assert values(read) == values(built)


def test_each_segment_is_placed_once_per_width(monkeypatch):
    # sc-lsb, instant and their second change windows share one width and
    # the row seeds, Count-Min has its own width: two placements per packet
    # and row, whatever the number of sketches that count it. Queries place
    # their keys in the kernel's query pass (or, without it, through
    # index_batch, which is not counted as encode here): each scheme queries
    # its main sketch and both change windows once.
    benign = gen_zipf(ZipfConfig(skew=1.0, flows=2000, packets=50_000, seed=3))
    attack = gen_attack(plan_attack(256, 0.5), seed=9)
    spec = _small_spec(benign=benign, attack=attack, attack_fraction=0.5, snapshot_interval=20_000)
    stream, _ = assemble_stream(spec)
    assert len(stream) > hashing.ENCODE_CHUNK  # segments are also cut at the chunk size
    placed = {"encode": 0, "query": 0}
    caller = ["encode"]
    queries = []
    real_index, real_query = hashing.index_batch, hashing.RowSketch._query_array

    def index_batch(keys, seed, width):
        placed[caller[0]] += len(keys)
        return real_index(keys, seed, width)

    def query_array(self, keys):
        queries.append(self.scheme)
        caller[0] = "query"
        try:
            return real_query(self, keys)
        finally:
            caller[0] = "encode"

    monkeypatch.setattr(hashing, "index_batch", index_batch)
    monkeypatch.setattr(hashing.RowSketch, "_query_array", query_array)
    result = run_experiment(spec)
    assert {r["metric"] for r in result.metric_rows} >= {"are", "f1_change", "wmre"}
    assert placed["encode"] == 2 * spec.rows * len(stream)
    assert sorted(queries) == sorted(spec.schemes * 3)


def test_resolve_widths_equal_memory():
    spec = ExperimentSpec(memory_bytes=512 * 1024, width=None)
    dyn, cm = resolve_widths(spec)
    assert dyn % 4 == 0
    dyn_bits = spec.rows * dyn * 9
    cm_bits = spec.rows * cm * 32
    assert abs(dyn_bits - cm_bits) / dyn_bits < 0.01


def test_memory_column_consistent():
    spec = _small_spec()
    result = run_experiment(spec)
    by_scheme = {}
    for row in result.metric_rows:
        by_scheme.setdefault(row["scheme"], row["memory_bytes"])
    dyn = by_scheme["sc-lsb"]
    assert by_scheme["instant"] == dyn
    assert abs(by_scheme["count-min"] - dyn) / dyn < 0.01


def test_run_produces_expected_rows():
    spec = _small_spec()
    result = run_experiment(spec)
    metrics = {(r["scheme"], r["metric"]) for r in result.metric_rows}
    for scheme in ("sc-lsb", "instant", "count-min"):
        for metric in ("are", "rmse", "f1_heavy_hitter", "recall_heavy_hitter",
                       "wmre", "f1_change"):
            assert (scheme, metric) in metrics
        assert (scheme, "entropy_re") in metrics or (scheme, "entropy_re_abs") in metrics
    # counter snapshots at every interval boundary, for every row
    packets = {r["packets"] for r in result.counter_rows if r["scheme"] == "sc-lsb"}
    assert packets == {5000, 10000, 15000, 20000}
    every = {r["row"] for r in result.counter_rows}
    assert every == {0, 1, 2}


def test_counter_rows_constant_for_count_min():
    result = run_experiment(_small_spec(schemes=("count-min",)))
    counts = {r["counters"] for r in result.counter_rows}
    assert len(counts) == 1


def test_attack_mixing_changes_metrics():
    benign = gen_zipf(ZipfConfig(skew=1.0, flows=500, packets=20_000, seed=3))
    plan = plan_attack(256, 0.5)
    attack = gen_attack(plan, seed=9)
    clean = run_experiment(_small_spec(schemes=("sc-lsb",)))
    polluted = run_experiment(
        _small_spec(schemes=("sc-lsb",), benign=benign, attack=attack,
                    attack_fraction=0.5)
    )
    def are_of(res):
        return float(next(r["value"] for r in res.metric_rows if r["metric"] == "are"))
    assert are_of(polluted) > are_of(clean)
    assert polluted.metric_rows[0]["attack_fraction"] == repr(0.5)


def test_interleave_modes():
    benign = Trace(np.arange(100, dtype=np.uint64))
    attack = Trace(np.arange(1000, 1100, dtype=np.uint64))
    app = _small_spec(benign=benign, attack=attack, interleave="append")
    stream, _ = assemble_stream(app)
    assert np.array_equal(stream.as_u64()[:100], benign.as_u64())
    shuf = _small_spec(benign=benign, attack=attack, interleave="shuffle")
    stream2, _ = assemble_stream(shuf)
    assert not np.array_equal(stream2.as_u64()[:100], benign.as_u64())
    assert np.array_equal(np.sort(stream2.as_u64()), np.sort(stream.as_u64()))


def test_stream_required():
    with pytest.raises(ValueError):
        assemble_stream(ExperimentSpec(width=16, benign=None, attack=None))


def test_determinism_same_spec_same_rows():
    a = run_experiment(_small_spec())
    b = run_experiment(_small_spec())
    assert a.metric_rows == b.metric_rows
    assert a.counter_rows == b.counter_rows


def test_save_layout(tmp_path):
    result = run_experiment(_small_spec())
    paths = result.save(tmp_path / "out")
    with open(paths["metrics_csv"]) as fp:
        rows = list(csv.DictReader(fp))
    assert rows and set(rows[0]) == {
        "experiment_id", "scheme", "memory_bytes", "packets", "attack_fraction",
        "interleave", "metric", "value", "seed", "config_hash",
    }
    data = json.loads(paths["metrics_json"].read_text())
    assert len(data) == len(rows)


def test_config_hash_sensitivity():
    a = config_hash(_small_spec())
    assert a == config_hash(_small_spec())
    assert a != config_hash(_small_spec(seed=4))
    assert a != config_hash(_small_spec(shared_bits=6))


def test_config_hash_is_pinned():
    # recorded before the hash stopped going through dataclasses.asdict
    assert config_hash(_small_spec()) == "cd28cc0d30e9"


def test_config_hash_does_not_copy_traces():
    keys = np.arange(1_000_000, dtype=np.uint64)
    spec = ExperimentSpec(
        width=4096, benign=Trace(keys), attack=Trace(keys[::-1].copy()), attack_fraction=0.5, seed=7
    )
    tracemalloc.start()
    try:
        value = config_hash(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == "a6b782320927"
    assert peak < 1 << 20  # each inline trace holds 8 MB of keys


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("scheme", ["sc-lsb", "instant", "count-min"])
def test_window_copied_mid_stream_equals_fresh_encode(scheme, data):
    # run_experiment takes the change app's first window as a copy of the
    # main sketch at a cut point, then goes on encoding the main sketch
    bits = data.draw(st.sampled_from([4, 8]))
    mode = data.draw(st.sampled_from(["sum", "max"]))
    spec = ExperimentSpec(width=16, counter_bits=bits, shared_bits=bits // 2, merge_mode=mode, seed=5)
    pool = np.arange(1, 25, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    keys = pool[data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=800))]
    cuts = data.draw(st.lists(st.integers(0, len(keys)), max_size=4))
    kind = data.draw(st.sampled_from(["start", "end", "cut", "any"]))
    if kind == "start":
        h = 0
    elif kind == "end":
        h = len(keys)
    elif kind == "cut" and cuts:
        h = data.draw(st.sampled_from(cuts))
    else:
        h = data.draw(st.integers(0, len(keys)))

    sketch = build_sketch(scheme, spec)
    start = 0
    for stop in sorted({*cuts, h, len(keys)}):
        if stop > start:
            sketch.encode_stream(keys[start:stop])
        start = stop
        if stop == h:
            window = copy.deepcopy(sketch)

    def fresh(part):
        sk = build_sketch(scheme, spec)
        sk.encode_stream(part)
        return dump_bytes(sk)

    assert dump_bytes(window) == fresh(keys[:h])
    assert dump_bytes(sketch) == fresh(keys)


@pytest.mark.parametrize(
    "schemes", [("count-min", "sc-lsb"), ("count-min", "instant"), ("sc-lsb", "count-min")]
)
def test_width_refused_by_one_scheme_builds_no_sketch(monkeypatch, schemes):
    # Count-Min's width derived from 4294967300 (1,207,959,553) is valid and
    # the dynamic width is not: had Count-Min been built first, it would have
    # asked for about 14.5 GB of rows before the error
    built = []
    for name in ("SiameseSketch", "InstantMergeSketch", "CountMinSketch"):
        monkeypatch.setattr(experiment, name, lambda config, name=name: built.append(name))
    with pytest.raises(ValueError, match="width"):
        run_experiment(_small_spec(schemes=schemes, width=4294967300))
    assert built == []


def test_build_sketch_shares_row_seeds():
    spec = _small_spec()
    sc = build_sketch("sc-lsb", spec)
    im = build_sketch("instant", spec)
    cm = build_sketch("count-min", spec)
    assert sc.config.seeds == im.config.seeds == cm.config.seeds
