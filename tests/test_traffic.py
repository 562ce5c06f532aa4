import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamsketch import (
    ExactCounter,
    Trace,
    TraceError,
    ZipfConfig,
    concat_traces,
    gen_attack,
    gen_zipf,
    interleave_traces,
    plan_attack,
    read_text_trace,
    read_trace,
    write_text_trace,
    write_trace,
)
from siamsketch.hashing import index_batch
from siamsketch.traffic import ROUND_ROBIN

from conftest import kernel_unbuildable


# -- zipf ---------------------------------------------------------------------


def test_zipf_deterministic():
    cfg = ZipfConfig(skew=1.0, flows=1000, packets=20_000, seed=9)
    a, b = gen_zipf(cfg), gen_zipf(cfg)
    assert np.array_equal(a.as_u64(), b.as_u64())
    c = gen_zipf(ZipfConfig(skew=1.0, flows=1000, packets=20_000, seed=10))
    assert not np.array_equal(a.as_u64(), c.as_u64())


def test_zipf_zero_skew_is_uniform():
    cfg = ZipfConfig(skew=0.0, flows=200, packets=200_000, seed=3)
    tr = gen_zipf(cfg)
    o = ExactCounter()
    o.observe_stream(tr.as_u64())
    counts = np.array([c for _, c in o.flows()], dtype=float)
    expected = cfg.packets / cfg.flows
    assert o.distinct == cfg.flows
    # every flow within 5 sigma of the uniform expectation
    assert np.abs(counts - expected).max() < 5 * np.sqrt(expected)


def test_zipf_rank_frequency_slope():
    tr = gen_zipf(ZipfConfig(skew=1.0, flows=10_000, packets=1_000_000, seed=11))
    o = ExactCounter()
    o.observe_stream(tr.as_u64())
    top = sorted((c for _, c in o.flows()), reverse=True)[:300]
    ranks = np.arange(1, len(top) + 1)
    slope = np.polyfit(np.log(ranks), np.log(top), 1)[0]
    assert abs(slope + 1.0) < 0.05


def test_zipf_rank_one_most_frequent():
    from siamsketch.traffic import flow_key

    cfg = ZipfConfig(skew=1.2, flows=500, packets=100_000, seed=4)
    tr = gen_zipf(cfg)
    o = ExactCounter()
    o.observe_stream(tr.as_u64())
    best_key = max(o.flows(), key=lambda kv: kv[1])[0]
    assert best_key == flow_key(1, cfg.seed)


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfConfig(skew=-0.1, flows=10, packets=10, seed=0)
    with pytest.raises(ValueError):
        ZipfConfig(skew=1.0, flows=0, packets=10, seed=0)
    # a NaN skew passed ``skew < 0`` and gave a stream of one distinct key
    for skew in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="skew"):
            ZipfConfig(skew=skew, flows=100, packets=10, seed=0)
    for key_len in (0, 9, 13):
        with pytest.raises(ValueError, match="key_len"):
            ZipfConfig(skew=1.0, flows=100, packets=10, seed=0, key_len=key_len)


@pytest.mark.parametrize("key_len", range(1, 9))
def test_zipf_short_keys_round_trip(tmp_path, key_len):
    # rank keys are cut to their low key_len bytes, as read_trace pads them
    tr = gen_zipf(ZipfConfig(skew=1.0, flows=300, packets=2000, seed=4, key_len=key_len))
    assert tr.key_len == key_len
    assert int(tr.as_u64().max()) < 1 << 8 * key_len
    path = tmp_path / "z.sktr"
    write_trace(path, tr)
    assert read_trace(path) == tr


# Leading 16 hex digits of the sha256 of ``gen_zipf(cfg).as_u64().tobytes()``,
# recorded when rank keys were still hashed one ``flow_key`` call at a time.
# The first two are the benchmark's benign streams (``many-flows``, and the
# Zipf part of ``attack``) at seed 5.
ZIPF_DIGESTS = {
    "many-flows": (
        ZipfConfig(skew=0.6, flows=500_000, packets=300_000, seed=5),
        "de03ab4886d0aeb1",
    ),
    "attack": (
        ZipfConfig(skew=1.0, flows=20_000, packets=500_000, seed=5),
        "633ee4a56c939a8e",
    ),
    "one-flow": (ZipfConfig(skew=1.0, flows=1, packets=1000, seed=3), "160492f4e564fd51"),
    "uniform": (ZipfConfig(skew=0.0, flows=5000, packets=50_000, seed=7), "e8a5b278339c4390"),
    "seed-above-2**64": (
        ZipfConfig(skew=1.5, flows=3000, packets=40_000, seed=2**70 + 9),
        "40d8275a09fbae17",
    ),
}


@pytest.mark.parametrize(
    "name, fallback",
    # the scalar fallback hashes key by key, so only the small streams run there
    [(name, False) for name in ZIPF_DIGESTS]
    + [(name, True) for name, (cfg, _) in ZIPF_DIGESTS.items() if cfg.flows <= 5000],
)
def test_zipf_stream_matches_golden_digest(name, fallback):
    cfg, digest = ZIPF_DIGESTS[name]
    with kernel_unbuildable(fallback):
        keys = gen_zipf(cfg).as_u64()
    assert hashlib.sha256(keys.tobytes()).hexdigest()[:16] == digest


# -- attack planning ----------------------------------------------------------


def test_plan_attack_worked_value():
    plan = plan_attack(155_000, 0.5)
    assert plan.targets == 77_500
    assert 1.07e5 <= plan.expected_flows <= 1.09e5


def test_plan_attack_closed_forms():
    assert plan_attack(2, 1.0).expected_flows == pytest.approx(3.0)
    zero = plan_attack(4096, 0.0)
    assert zero.targets == 0 and zero.flows == 0 and zero.packets == 0


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 5000), fraction=st.floats(0, 1))
def test_plan_attack_expectation_dominates_targets(width, fraction):
    plan = plan_attack(width, fraction)
    assert plan.expected_flows >= plan.targets - 1e-9


def test_plan_attack_validation():
    with pytest.raises(ValueError):
        plan_attack(0, 0.5)
    with pytest.raises(ValueError):
        plan_attack(10, 1.5)
    with pytest.raises(ValueError):
        plan_attack(10, 0.5, packets_per_flow=0)
    with pytest.raises(ValueError):
        plan_attack(10, 0.5, interleave="random")


def test_gen_attack_stream_shape():
    plan = plan_attack(512, 0.3, packets_per_flow=7)
    tr = gen_attack(plan, seed=1)
    assert len(tr) == plan.flows * 7
    assert len(np.unique(tr.as_u64())) == plan.flows


def test_gen_attack_interleave_same_multiset():
    seq = gen_attack(plan_attack(256, 0.4), seed=5)
    rr = gen_attack(plan_attack(256, 0.4, interleave=ROUND_ROBIN), seed=5)
    assert np.array_equal(np.sort(seq.as_u64()), np.sort(rr.as_u64()))
    assert not np.array_equal(seq.as_u64(), rr.as_u64())


def test_attack_slot_coverage_concentrates():
    # hit fraction concentrates around the planned coverage across seeds
    width = 1024
    plan = plan_attack(width, 0.5)
    fractions = []
    for seed in range(30):
        flows = np.unique(gen_attack(plan, seed).as_u64())
        hit = len(np.unique(index_batch(flows, seed=99, width=width)))
        fractions.append(hit / width)
    assert all(abs(f - 0.5) < 0.05 for f in fractions)


# -- mixing -------------------------------------------------------------------


def test_interleave_deterministic_and_order_preserving():
    a = Trace(np.arange(100, dtype=np.uint64))
    b = Trace(np.arange(1000, 1050, dtype=np.uint64))
    m1 = interleave_traces(a, b, seed=3)
    m2 = interleave_traces(a, b, seed=3)
    assert np.array_equal(m1.as_u64(), m2.as_u64())
    keys = m1.as_u64()
    assert np.array_equal(keys[keys < 1000], a.as_u64())
    assert np.array_equal(keys[keys >= 1000], b.as_u64())
    m3 = interleave_traces(a, b, seed=4)
    assert not np.array_equal(m1.as_u64(), m3.as_u64())


def test_concat():
    a = Trace(np.array([1, 2], dtype=np.uint64))
    b = Trace(np.array([3], dtype=np.uint64))
    assert concat_traces(a, b).as_u64().tolist() == [1, 2, 3]


@pytest.mark.parametrize(
    "len_a, len_b, mixed",
    [(4, 4, 4), (2, 6, 6), (6, 2, 6), (3, 8, 8), (13, 8, 8), (5, 13, 8), (13, 13, 8)],
)
def test_mixing_traces_of_different_key_len(len_a, len_b, mixed):
    # both sides are flow ids; the mix takes the wider key width, at most 8
    def trace(key_len, base):
        if key_len > 8:
            return Trace([bytes([base + i]) * key_len for i in range(3)], key_len)
        return Trace(np.arange(base, base + 3, dtype=np.uint64), key_len)

    a, b = trace(len_a, 1), trace(len_b, 100)
    ids = np.concatenate([a.as_u64(), b.as_u64()])
    for mix in (interleave_traces(a, b, seed=1), concat_traces(a, b)):
        assert mix.key_len == mixed
        assert np.array_equal(np.sort(mix.as_u64()), np.sort(ids))
    assert np.array_equal(concat_traces(a, b).as_u64(), ids)


# -- file formats -------------------------------------------------------------


def test_binary_round_trip(tmp_path):
    tr = gen_zipf(ZipfConfig(skew=0.8, flows=50, packets=5000, seed=2))
    path = tmp_path / "t.sktr"
    write_trace(path, tr)
    assert read_trace(path) == tr


def test_binary_round_trip_short_keys(tmp_path):
    tr = Trace(np.array([1, 2**31, 5], dtype=np.uint64), key_len=4)
    path = tmp_path / "t4.sktr"
    write_trace(path, tr)
    back = read_trace(path)
    assert back == tr and back.key_len == 4


def test_binary_round_trip_13_byte_keys(tmp_path):
    keys = [bytes(range(i, i + 13)) for i in range(6)]
    tr = Trace(keys, key_len=13)
    path = tmp_path / "t13.sktr"
    write_trace(path, tr)
    back = read_trace(path)
    assert back == tr
    assert list(back.iter_bytes()) == keys


def test_key_array_wider_than_key_len_is_rejected():
    # written, the first key would lose its high bytes and read back unequal
    with pytest.raises(ValueError, match="key_len=4"):
        Trace(np.array([2**40 + 5, 7], dtype=np.uint64), key_len=4)
    with pytest.raises(ValueError, match="key_len=1"):
        Trace(np.array([0, 256], dtype=np.uint64), key_len=1)
    # the widest key that fits is accepted, as is any uint64 at key_len 8
    assert len(Trace(np.array([2**32 - 1], dtype=np.uint64), key_len=4)) == 1
    assert len(Trace(np.array([2**64 - 1], dtype=np.uint64))) == 1
    assert len(Trace(np.empty(0, dtype=np.uint64), key_len=3)) == 0


def test_key_array_with_key_len_above_8_is_rejected():
    # written, each key would take 8 bytes against a 13-byte header
    with pytest.raises(ValueError, match="key_len <= 8"):
        Trace(np.array([5, 7], dtype=np.uint64), key_len=13)


def test_empty_trace_round_trip(tmp_path):
    tr = Trace(np.empty(0, dtype=np.uint64))
    path = tmp_path / "empty.sktr"
    write_trace(path, tr)
    assert len(read_trace(path)) == 0


def test_truncated_record_is_an_error(tmp_path):
    tr = Trace(np.array([7, 8], dtype=np.uint64))
    path = tmp_path / "trunc.sktr"
    write_trace(path, tr)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(TraceError) as err:
        read_trace(path)
    assert err.value.code == "truncated-record"


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.sktr"
    path.write_bytes(b"NOPE\x01\x00\x08\x00")
    with pytest.raises(TraceError) as err:
        read_trace(path)
    assert err.value.code == "bad-magic"
    path.write_bytes(b"SKTR\x63\x00\x08\x00")
    with pytest.raises(TraceError) as err:
        read_trace(path)
    assert err.value.code == "bad-version"


def test_header_truncation(tmp_path):
    path = tmp_path / "short.sktr"
    path.write_bytes(b"SK")
    with pytest.raises(TraceError) as err:
        read_trace(path)
    assert err.value.code == "bad-header"


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_text_round_trip(tmp_path_factory, keys):
    tr = Trace(np.array(keys, dtype=np.uint64))
    path = tmp_path_factory.mktemp("txt") / "t.keys"
    write_text_trace(path, tr)
    assert read_text_trace(path) == tr


def test_text_errors(tmp_path):
    path = tmp_path / "bad.keys"
    path.write_text("zz-not-hex\n")
    with pytest.raises(TraceError) as err:
        read_text_trace(path)
    assert err.value.code == "bad-text"
    path.write_text("0102\n")  # wrong length
    with pytest.raises(TraceError):
        read_text_trace(path, key_len=8)
