import ctypes
import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siamsketch import (
    ExactCounter,
    Trace,
    TraceError,
    ZipfConfig,
    _kernel,
    concat_traces,
    gen_attack,
    gen_zipf,
    interleave_traces,
    plan_attack,
    read_trace,
    traffic,
    write_trace,
)
from siamsketch.hashing import hash_u64, index_batch
from siamsketch.traffic import ROUND_ROBIN, flow_id, guide_search

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
    assert len(counts) == cfg.flows
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
    cfg = ZipfConfig(skew=1.2, flows=500, packets=100_000, seed=4)
    tr = gen_zipf(cfg)
    o = ExactCounter()
    o.observe_stream(tr.as_u64())
    best_key = max(o.flows(), key=lambda kv: kv[1])[0]
    assert best_key == hash_u64(1, cfg.seed ^ traffic._FLOW_SALT)


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfConfig(skew=-0.1, flows=10, packets=10, seed=0)
    with pytest.raises(ValueError):
        ZipfConfig(skew=1.0, flows=0, packets=10, seed=0)
    # a NaN skew passed ``skew < 0`` and gave a stream of one distinct key
    for skew in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="skew"):
            ZipfConfig(skew=skew, flows=100, packets=10, seed=0)
    # a float or a bool is no count, and a bool no skew: each names its field
    for bad in (dict(flows=2.5), dict(packets=10.0), dict(seed=1.0), dict(skew=True)):
        with pytest.raises(TypeError, match=next(iter(bad))):
            ZipfConfig(**{"skew": 1.0, "flows": 100, "packets": 10, "seed": 1, **bad})
    # a negative seed is refused naming it, not by numpy's generator; seeds
    # from 0 up stay valid (ZIPF_DIGESTS pins one above 2**64)
    with pytest.raises(ValueError, match="seed"):
        ZipfConfig(skew=1.0, flows=100, packets=10, seed=-1)
    ZipfConfig(skew=1.0, flows=100, packets=10, seed=2**70)
    # a numpy count is stored as a Python int and gives the same stream
    numpy_cfg = ZipfConfig(skew=1.0, flows=np.int64(100), packets=np.int64(10), seed=np.uint64(1))
    assert numpy_cfg == ZipfConfig(skew=1.0, flows=100, packets=10, seed=1)
    assert type(numpy_cfg.flows) is int
    assert gen_zipf(numpy_cfg) == gen_zipf(ZipfConfig(skew=1.0, flows=100, packets=10, seed=1))


# Leading 16 hex digits of the sha256 of ``gen_zipf(cfg).as_u64().tobytes()``,
# recorded when rank keys were still hashed one ``hash_u64`` call at a time.
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
    # recorded with np.searchsorted, before the guide table: the last guide
    # bucket of this skew-3 CDF brackets all but 233 of its 200k ranks, and
    # past rank 97 this skew-8 CDF is one plateau of ties at 1.0
    "skew-3": (ZipfConfig(skew=3.0, flows=200_000, packets=100_000, seed=5), "98af7aa976ae3d2f"),
    "skew-8": (ZipfConfig(skew=8.0, flows=500_000, packets=100_000, seed=5), "0c5cd6705d04f28c"),
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


@settings(max_examples=80, deadline=None)
@given(
    skew=st.sampled_from([0.0, 0.6, 1.0, 3.0, 8.0]),
    flows=st.integers(1, 200_000),
    # scaling by 2**-1000 or 2**-1060 underflows the tail weights to 0, so
    # the CDF ends in exact ties; at skew 8 the tail is absorbed into ties
    # anyway
    scale=st.sampled_from([0, -1000, -1060]),
    log_buckets=st.integers(0, 18),
    seed=st.integers(0, 2**32 - 1),
)
@example(skew=0.6, flows=5000, scale=0, log_buckets=0, seed=1)  # one bucket
@example(skew=1.0, flows=300, scale=0, log_buckets=12, seed=2)  # more buckets than ranks
@example(skew=8.0, flows=200_000, scale=0, log_buckets=17, seed=3)  # the skew-8 plateau
def test_guide_search_matches_searchsorted(skew, flows, scale, log_buckets, seed):
    # the kernel's ranks and the guide table it writes, against their
    # definitions
    lib = _kernel.load()
    if lib is None:
        pytest.skip("no kernel library")
    weights = np.arange(1, flows + 1, dtype=np.float64) ** -skew * 2.0**scale
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    m = 1 << log_buckets
    rng = np.random.default_rng(seed)
    draws = np.concatenate(
        [
            rng.random(2000),
            [0.0, np.nextafter(1.0, 0.0)],
            rng.integers(0, m, 200) / m,  # bucket edges
            cdf[cdf < 1.0][:200],  # draws equal to a CDF value
        ]
    )
    expected = np.searchsorted(cdf, draws, side="right")
    assert np.array_equal(guide_search(cdf, draws, m), expected)
    edges = np.empty(m + 1, dtype=np.int64)
    ranks = np.empty(len(draws), dtype=np.int64)
    first_bad = lib.guide_search(
        cdf.ctypes.data, flows, draws.ctypes.data, len(draws), m,
        edges.ctypes.data, ranks.ctypes.data,
    )
    assert first_bad == len(draws)
    # edges[k] counts the i with cdf[i] * m < k
    assert np.array_equal(edges, np.searchsorted(cdf * m, np.arange(m + 1), side="left"))
    assert np.array_equal(ranks, expected)


@pytest.mark.parametrize("fallback", [False, True])
def test_guide_search_refuses_what_would_read_outside_its_arrays(fallback):
    cdf = np.cumsum(np.arange(1, 101, dtype=np.float64) ** -1.0)
    cdf /= cdf[-1]
    with kernel_unbuildable(fallback):
        for bad in (1.0, -0.5, np.nan):
            with pytest.raises(ValueError, match=r"draws\[2\]"):
                guide_search(cdf, np.array([0.5, 0.0, bad, 0.25]), 64)
        for buckets in (0, 3, -4, True, 4.0):
            with pytest.raises(ValueError, match="buckets"):
                guide_search(cdf, np.array([0.5]), buckets)
        # an unsorted CDF gives wrong ranks, but each lies in [0, len(cdf)]
        draws = np.random.default_rng(1).random(10_000)
        for m in (1, 64, 4096):
            ranks = guide_search(np.random.default_rng(m).permutation(cdf), draws, m)
            assert 0 <= ranks.min() and ranks.max() <= len(cdf)


def test_gen_zipf_without_the_kernel_matches_it():
    # the fallback ranks are np.searchsorted's, the kernel's come from its
    # guide table: the streams are one
    cfg = ZipfConfig(skew=1.2, flows=3000, packets=20_000, seed=11)
    with kernel_unbuildable(False):
        with_kernel = gen_zipf(cfg)
    with kernel_unbuildable() as caught:
        without = gen_zipf(cfg)
    assert any("no C encode kernel" in str(w.message) for w in caught)
    assert with_kernel == without


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


def test_gen_attack_admits_a_plan_at_the_bound(monkeypatch):
    # a plan of at most MAX_ATTACK_PACKETS packets passes the bound and starts
    # generating, stopped here before its 32 GiB of keys; one packet a flow
    # more is refused
    class Generating(Exception):
        pass

    def stop(seed):
        raise Generating

    monkeypatch.setattr(traffic.np.random, "default_rng", stop)
    plan = plan_attack(4096, 0.5)
    most = traffic.MAX_ATTACK_PACKETS // plan.flows
    exact = replace(plan, flows=1 << 16, packets_per_flow=1 << 16)
    for under in (replace(plan, packets_per_flow=most), exact):
        assert under.packets <= traffic.MAX_ATTACK_PACKETS
        with pytest.raises(Generating):
            gen_attack(under, seed=1)
    for over in (replace(plan, packets_per_flow=most + 1), replace(exact, packets_per_flow=(1 << 16) + 1)):
        with pytest.raises(ValueError, match="packets_per_flow must be at most"):
            gen_attack(over, seed=1)


def test_gen_attack_and_interleave_refuse_a_bad_seed():
    # refused naming the seed, as ZipfConfig refuses it, not by numpy's
    # generator; seeds from 0 up, 2**64 and above included, stay valid
    plan = plan_attack(64, 0.5, packets_per_flow=2)
    a, b = Trace(np.arange(5, dtype=np.uint64)), Trace(np.arange(3, dtype=np.uint64) + 100)
    for make in (lambda seed: gen_attack(plan, seed), lambda seed: interleave_traces(a, b, seed)):
        with pytest.raises(ValueError, match="seed"):
            make(-1)
        for bad in (True, 1.0):
            with pytest.raises(TypeError, match="seed"):
                make(bad)
        assert make(2**70) == make(2**70)
        assert make(np.uint64(7)) == make(7)


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


def _mask_scatter(a: np.ndarray, b: np.ndarray, rng: np.random.Generator):
    """(the mix by its definition, the shuffled labels): ``rng.shuffle`` of
    ``len(a)`` labels 0 and ``len(b)`` labels 1, then ``a`` scattered to the
    0s and ``b`` to the 1s through boolean masks."""
    from_b = np.zeros(len(a) + len(b), dtype=np.bool_)
    from_b[len(a) :] = True
    rng.shuffle(from_b)
    expected = np.empty(len(from_b), dtype=np.uint64)
    expected[~from_b] = a
    expected[from_b] = b
    return expected, from_b


@settings(max_examples=30, deadline=None)
@given(len_a=st.integers(0, 150_000), len_b=st.integers(0, 150_000), seed=st.integers(0, 2**32 - 1))
def test_interleave_matches_the_mask_scatter(len_a, len_b, seed):
    # the kernel fills the mix in its shuffle pass; it must hold what the
    # fallback, the boolean-mask scatter of the shuffle, gives
    a = Trace(np.arange(len_a, dtype=np.uint64))
    b = Trace(np.arange(len_b, dtype=np.uint64) + 2**40)
    expected, _ = _mask_scatter(a.keys, b.keys, np.random.default_rng(seed))
    for fallback in (False, True):
        with kernel_unbuildable(fallback):
            assert np.array_equal(interleave_traces(a, b, seed).keys, expected)


@settings(max_examples=60, deadline=None)
@given(len_a=st.integers(0, 100_000), len_b=st.integers(0, 100_000), seed=st.integers(0, 2**32 - 1))
@example(len_a=0, len_b=0, seed=1)
@example(len_a=1, len_b=0, seed=1)
@example(len_a=0, len_b=1, seed=1)
@example(len_a=1, len_b=1, seed=1)
@example(len_a=2, len_b=0, seed=1)
@example(len_a=100_000, len_b=0, seed=2)
@example(len_a=0, len_b=100_000, seed=3)
def test_interleave_kernel_matches_numpy_shuffle(len_a, len_b, seed):
    # the kernel's own draws against numpy's: the same labels, the same mix
    # and the bit generator left in the same state
    lib = _kernel.load()
    if lib is None:
        pytest.skip("no kernel library")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 64, size=len_a, dtype=np.uint64)
    b = rng.integers(0, 1 << 64, size=len_b, dtype=np.uint64)
    reference = np.random.default_rng(seed + 1)
    expected, from_b = _mask_scatter(a, b, reference)
    drawn = np.random.default_rng(seed + 1)
    labels = np.empty(len_a + len_b, dtype=np.uint8)
    out = np.empty(len_a + len_b, dtype=np.uint64)
    bitgen = drawn.bit_generator.ctypes
    lib.interleave(
        a.ctypes.data, len_a, b.ctypes.data, len_b, bitgen.state_address,
        ctypes.cast(bitgen.next_uint32, ctypes.c_void_p), labels.ctypes.data, out.ctypes.data,
    )
    assert np.array_equal(out, expected)
    assert np.array_equal(labels.view(np.bool_), from_b)
    assert drawn.bit_generator.state == reference.bit_generator.state


def test_interleave_stream_matches_golden_digest():
    # the benchmark's attack stream at seed 5, recorded when the labels were
    # scattered through two boolean masks; the kernel and the fallback
    benign = gen_zipf(ZIPF_DIGESTS["attack"][0])
    attack = gen_attack(plan_attack(4096, 0.5), 6)
    for fallback in (False, True):
        with kernel_unbuildable(fallback):
            mixed = interleave_traces(benign, attack, 5)
        assert len(mixed) == 1_226_784
        assert hashlib.sha256(mixed.keys.tobytes()).hexdigest()[:16] == "89a10b0949d47539"


def test_concat():
    a = Trace(np.array([1, 2], dtype=np.uint64))
    b = Trace(np.array([3], dtype=np.uint64))
    assert concat_traces(a, b).as_u64().tolist() == [1, 2, 3]


def _write_raw_trace(path, key_len, records):
    """An ``SKTR`` file written by hand: the header, then the records."""
    path.write_bytes(struct.pack("<4sHH", b"SKTR", 1, key_len) + b"".join(records))


@pytest.mark.parametrize(
    "len_a, len_b, widest",
    [(4, 4, 4), (2, 6, 6), (6, 2, 6), (3, 8, 8), (13, 8, 8), (5, 13, 8), (13, 13, 8)],
)
def test_mixing_traces_of_different_key_len(tmp_path, len_a, len_b, widest):
    # traces read from files of any record width mix as flow ids: a short
    # record is zero-padded with every byte kept, so the widest id of the mix
    # takes ``widest`` bytes, and a 13-byte record is folded to 8
    def trace(key_len, base):
        records = [bytes([base + i]) * key_len for i in range(3)]
        path = tmp_path / f"{key_len}-{base}.sktr"
        _write_raw_trace(path, key_len, records)
        tr = read_trace(path)
        assert tr.keys.tolist() == [flow_id(r) for r in records]
        return tr

    a, b = trace(len_a, 1), trace(len_b, 100)
    ids = np.concatenate([a.as_u64(), b.as_u64()])
    for mix in (interleave_traces(a, b, seed=1), concat_traces(a, b)):
        assert np.array_equal(np.sort(mix.as_u64()), np.sort(ids))
        assert (int(mix.as_u64().max()).bit_length() + 7) // 8 == widest
    assert np.array_equal(concat_traces(a, b).as_u64(), ids)


# -- file formats -------------------------------------------------------------


def test_binary_round_trip(tmp_path):
    tr = gen_zipf(ZipfConfig(skew=0.8, flows=50, packets=5000, seed=2))
    path = tmp_path / "t.sktr"
    write_trace(path, tr)
    assert read_trace(path) == tr


def test_binary_round_trip_short_keys(tmp_path):
    # a file of records of 1 to 8 bytes reads back as their zero-padded ids,
    # and that trace is written at 8 bytes a key and read back unchanged
    for key_len in range(1, 9):
        records = [b"\xff" * key_len, bytes(key_len)]
        records += [bytes(range(i, i + key_len)) for i in range(4)]
        path = tmp_path / f"t{key_len}.sktr"
        _write_raw_trace(path, key_len, records)
        back = read_trace(path)
        assert back.keys.tolist() == [int.from_bytes(r, "little") for r in records]
        again = tmp_path / f"t{key_len}-again.sktr"
        write_trace(again, back)
        assert again.stat().st_size == 8 + 8 * len(records)
        assert read_trace(again) == back


def test_binary_round_trip_13_byte_keys(tmp_path):
    # a file of 13-byte records reads back as their folds, and that trace is
    # written and read back unchanged
    keys = [bytes(range(i, i + 13)) for i in range(6)]
    path = tmp_path / "t13.sktr"
    _write_raw_trace(path, 13, keys)
    back = read_trace(path)
    assert back.keys.tolist() == [flow_id(k) for k in keys]
    again = tmp_path / "t13-again.sktr"
    write_trace(again, back)
    assert read_trace(again) == back


def test_float_key_array_is_rejected():
    # a float array was once cast, so 1.5, 2.7 and 3.9 became flows 1, 2, 3
    with pytest.raises(TypeError):
        Trace(np.array([1.5, 2.7, 3.9]))


@pytest.mark.parametrize(
    "keys",
    [[2**70, -1], [2**64, 0], np.array([-1])],
    ids=["above-and-below", "2**64", "negative-array"],
)
def test_out_of_range_int_keys_are_rejected(keys):
    # they were masked to 64 bits, so 2**64 and 0 became one flow
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        Trace(keys)


def test_one_bytes_object_is_not_a_trace():
    # its bytes were once taken as keys: b"abc" was the flows 97, 98 and 99
    for keys in (b"abc", bytearray(b"abc"), b"12345678"):
        with pytest.raises(TypeError):
            Trace(keys)
    assert Trace([b"abc"]).keys.tolist() == [flow_id(b"abc")]


def test_bool_keys_are_rejected():
    # a list of bools was once held as flows 1 and 0, while a bool array and
    # numpy bools were refused
    for keys in ([True, False], [7, True], [np.True_], np.array([True])):
        with pytest.raises(TypeError):
            Trace(keys)


@pytest.mark.parametrize(
    "keys",
    [[b"abc", b"de", b""], [1, 2, 3], [0, 2**16 - 1], [b"\x07" * 13, b"x"]],
    ids=["bytes", "ints", "short-ints", "wide-bytes"],
)
def test_key_list_traces_round_trip(tmp_path, keys):
    # a list of bytes or of ints is held as flow ids, so the file holds 8
    # bytes per key and reads back equal; a bytes list once wrote its keys'
    # own lengths, and an int list could not be written at all
    tr = Trace(keys)
    path = tmp_path / "list.sktr"
    write_trace(path, tr)
    assert read_trace(path) == tr
    assert path.stat().st_size == 8 + 8 * len(keys)
    assert tr.keys.dtype == np.uint64
    assert tr.keys.tolist() == [flow_id(k) if isinstance(k, bytes) else k for k in keys]


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
    # a record must hold at least one byte
    _write_raw_trace(path, 0, [])
    with pytest.raises(TraceError) as err:
        read_trace(path)
    assert err.value.code == "bad-header"
