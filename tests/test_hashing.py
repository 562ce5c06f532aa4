from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from siamsketch import (
    CountMinConfig,
    CountMinSketch,
    InstantMergeSketch,
    SiameseSketch,
    SketchConfig,
    Trace,
    flow_id,
)
from siamsketch.hashing import (
    ENCODE_CHUNK,
    KeyBatch,
    derive_seeds,
    hash_batch,
    hash_u64,
    index_batch,
    mix64,
    place_u64,
    seed_state,
    u64_keys,
)
from siamsketch.sketch import GROUP_MERGED_WIDE, GROUP_SHARED_WIDE
from siamsketch.snapshot import dump_bytes

from conftest import kernel_unbuildable, plant_state


def test_width_one_always_zero():
    for k in (b"", b"\x00" * 8, b"\xff" * 8, (12345).to_bytes(8, "little"), b"\x07" * 13):
        assert place_u64(flow_id(k), seed_state(9), 1) == 0


def test_deterministic_per_seed_and_key():
    key = (424242).to_bytes(8, "little")
    first = place_u64(flow_id(key), seed_state(77), 4096)
    assert all(place_u64(flow_id(key), seed_state(77), 4096) == first for _ in range(10))
    wide = bytes(range(13))
    assert flow_id(wide) == flow_id(bytes(range(13)))


def test_index_range():
    rng = np.random.default_rng(0)
    state = seed_state(3)
    for k in rng.integers(0, 1 << 64, size=2000, dtype=np.uint64).tolist():
        assert 0 <= place_u64(k, state, 1000) < 1000  # non power of two


def test_bytes_and_u64_paths_agree():
    # a key of at most 8 bytes is its little-endian value, so it places as
    # the integer does
    for k in (0, 1, 255, 2**40 + 17, 2**64 - 1):
        kb = k.to_bytes(8, "little")
        assert flow_id(kb) == k
        assert flow_id(kb.rstrip(b"\x00")) == k
        assert place_u64(flow_id(kb), seed_state(5), 777) == place_u64(k, seed_state(5), 777)


def test_long_keys_fold():
    # keys longer than 8 bytes fold, with no seed, into one 64-bit flow id
    # that every row then hashes; a differing last byte, a trailing zero
    # byte and a differing length all give another id
    a = flow_id(b"0123456789abc")
    assert a == flow_id(b"0123456789abc")
    assert 0 <= a < 2**64
    others = {flow_id(k) for k in (b"0123456789abd", b"0123456789abc\x00", b"123456789abc")}
    assert a not in others and len(others) == 3
    assert a != int.from_bytes(b"01234567", "little")
    # the fold is mix64 over the length and then over each 8-byte word
    words = (int.from_bytes(b"01234567", "little"), int.from_bytes(b"89abc", "little"))
    assert a == mix64(mix64(mix64(13) ^ words[0]) ^ words[1])


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50),
    seed=st.integers(0, 2**32),
    width=st.integers(1, 100_000),
)
@example(keys=[1], seed=0, width=1)
@example(keys=[1], seed=0, width=100_000)
@example(keys=[1], seed=3, width=65_536)
@example(keys=[1], seed=3, width=99_991)
@example(keys=list(range(64)), seed=3, width=2**32 - 1)
def test_batch_matches_scalar(keys, seed, width):
    # with the kernel library's place and with the scalar fallback; the
    # extreme keys go into every draw. The reduction's carry from the low
    # half of the product changes about width / 2**32 of the slots, so the
    # widest row is drawn too.
    keys = [0, *keys, 2**64 - 1]
    arr = np.array(keys, dtype=np.uint64)
    expected = [place_u64(k, seed_state(seed), width) for k in keys]
    for fallback in (False, True):
        with kernel_unbuildable(fallback):
            batched = index_batch(arr, seed, width)
        assert batched.dtype == np.int64
        assert batched.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**64 - 1), max_size=50),
    seed=st.integers(0, 2**80),
)
@example(keys=[], seed=0)
@example(keys=[1], seed=2**64)
def test_hash_batch_matches_scalar(keys, seed):
    # with the kernel library's hash_keys and with the scalar fallback; seeds
    # above 2**64 are masked by seed_state as hash_u64 masks them
    keys = [0, *keys, 2**64 - 1]
    expected = [hash_u64(k, seed) for k in keys]
    for fallback in (False, True):
        with kernel_unbuildable(fallback):
            batched = hash_batch(np.array(keys, dtype=np.uint64), seed)
        assert batched.dtype == np.uint64
        assert batched.tolist() == expected


def test_uniformity_chi_square():
    # one million random keys over 4096 slots must not reject uniformity
    rng = np.random.default_rng(123)
    keys = rng.integers(0, 1 << 64, size=1_000_000, dtype=np.uint64)
    counts = np.bincount(index_batch(keys, seed=7, width=4096), minlength=4096)
    expected = len(keys) / 4096
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.999, 4095)
    # per-slot load within 5 sigma of the uniform expectation
    assert np.abs(counts - expected).max() < 5 * np.sqrt(expected)


def test_rows_uncorrelated():
    rng = np.random.default_rng(42)
    keys = rng.integers(0, 1 << 64, size=1_000_000, dtype=np.uint64)
    a = index_batch(keys, seed=1, width=4096)
    b = index_batch(keys, seed=2, width=4096)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_derive_seeds_distinct_and_stable():
    seeds = derive_seeds(0, 8)
    assert len(set(seeds)) == 8
    assert derive_seeds(0, 8) == seeds
    assert derive_seeds(1, 8) != seeds


def test_mix64_avalanche_smoke():
    # flipping one input bit flips roughly half the output bits
    flips = []
    for bit in range(0, 64, 7):
        x = 0x0123456789ABCDEF
        flips.append(bin(mix64(x) ^ mix64(x ^ (1 << bit))).count("1"))
    assert all(20 <= f <= 44 for f in flips)


def test_invalid_width():
    # the batched reduction is exact up to 2**32 slots
    for width in (0, -4, 2**32 + 1):
        with pytest.raises(ValueError):
            index_batch(np.arange(3, dtype=np.uint64), 0, width)
    assert index_batch(np.array([2**64 - 1], dtype=np.uint64), 5, 2**32).tolist() == [
        place_u64(2**64 - 1, seed_state(5), 2**32)
    ]


@pytest.mark.parametrize("cls", [SiameseSketch, CountMinSketch])
def test_query_refuses_a_width_the_kernel_cannot_place(cls):
    # the kernel's query pass reduces as index_batch does, exactly only up
    # to 2**32 slots, so a config refuses a wider row before it is allocated,
    # and 2**32 itself too, as a snapshot header stores the width in a u32;
    # only configs are built here, never a sketch that wide
    config = CountMinConfig if cls is CountMinSketch else SketchConfig
    with pytest.raises(ValueError, match="width must be in"):
        index_batch(np.arange(3, dtype=np.uint64), 0, 2**32 + 4)
    for width in (2**32 + 4, 2**32):
        with pytest.raises(ValueError, match=r"2\*\*32 - 1\]"):
            config(rows=2, width=width)
    widest = 2**32 - 1 if cls is CountMinSketch else 2**32 - 4
    assert config(rows=2, width=widest).width == widest


def test_query_many_matches_query_u64_for_every_scheme():
    # the shared front door decodes whole rows and answers from the tables,
    # with the kernel's query pass and with the per-row fallback; answers
    # must equal the scalar per-key path, keys above 2**63 included, at
    # every counter width and in every group state (codes 9 and 10 included)
    rng = np.random.default_rng(12)
    keys = rng.integers(0, 1 << 64, size=300, dtype=np.uint64)
    stream = rng.choice(keys[:40], size=30_000)
    probe = keys.tolist()
    assert max(probe) >= 1 << 63
    for bits, shared, planted in ((4, 2, False), (4, 2, True), (8, 4, True), (16, 8, True)):
        cfg = SketchConfig(rows=3, width=32, counter_bits=bits, shared_bits=shared, seeds=(1, 2, 3))
        sketches = [SiameseSketch(cfg), InstantMergeSketch(cfg)]
        if not planted:
            sketches.append(CountMinSketch(CountMinConfig(rows=3, width=9, seeds=(1, 2, 3))))
        for sk in sketches:
            if planted:
                # a short stream from states near every limit
                plant_state(sk, rng)
                sk.encode_stream(stream[:500])
                codes = {c for states in sk._states for c in states}
                assert GROUP_MERGED_WIDE in codes
                assert (GROUP_SHARED_WIDE in codes) == bool(sk.config.shared_bits)
            else:
                sk.encode_stream(stream)
            expected = [sk.query_u64(k) for k in probe]
            for fallback in (False, True):
                with kernel_unbuildable(fallback):
                    answers = sk.query_many(probe)
                    assert answers == expected
                    assert all(type(v) is int for v in answers)
                    assert sk.query_many(keys) == answers
                    assert sk.query_many(probe[-1:]) == expected[-1:]
                    assert sk.query_many([]) == []


@pytest.mark.parametrize("cls", [SiameseSketch, InstantMergeSketch, CountMinSketch])
def test_batched_entry_points_mask_keys_like_the_scalar_ones(cls):
    # encode_u64/query_u64 take any int modulo 2**64; the batched entry points
    # take the same keys
    cfg = (CountMinConfig if cls is CountMinSketch else SketchConfig)(rows=2, width=8)
    keys = [-1, 1 << 64, (1 << 64) + 5, 5, np.uint64(7), np.int64(-2)]
    batched, scalar = cls(cfg), cls(cfg)
    batched.encode_stream(keys)
    for k in keys:
        scalar.encode_u64(int(k))
    assert batched._rows == scalar._rows
    # a one-shot iterator gives every key to the fallback too
    once = cls(cfg)
    once.encode_stream(iter(keys))
    assert once._rows == scalar._rows and once.packet_count == len(keys)
    # queries with the kernel's query pass and with the per-row fallback
    for fallback in (False, True):
        with kernel_unbuildable(fallback):
            assert batched.query_many(keys) == [scalar.query_u64(int(k)) for k in keys]
            assert batched.query_many([-1]) == [1]
            with pytest.raises(TypeError):
                batched.query_many([5, 1.5])
            with pytest.raises(TypeError):
                batched.encode_stream([5, 1.5])
            # an array of non-integers is refused, not cast: floats would truncate
            for bad in (np.array([1.5, 1.9, 2.2]), np.array([1 + 2j]), np.array(["1", "2"])):
                with pytest.raises(TypeError):
                    batched.encode_stream(bad)
                with pytest.raises(TypeError):
                    batched.query_many(bad)
    assert batched._rows == scalar._rows


@pytest.mark.parametrize("cls", [SiameseSketch, InstantMergeSketch, CountMinSketch])
def test_trace_of_ints_and_bytes_counts_as_its_flow_ids(cls):
    # a trace built from ints, short bytes and 13-byte keys holds each int as
    # itself and each bytes key as its flow id, and a sketch fed those ids
    # counts and answers exactly as per-key encode_u64 and query_u64 do
    cfg = (CountMinConfig if cls is CountMinSketch else SketchConfig)(rows=2, width=8)
    rng = np.random.default_rng(6)
    pool = [3, b"\x03", b"ab", bytes(range(13)), bytes(range(1, 14)), np.uint64(11)]
    ids = Trace(pool).keys.tolist()
    assert ids == [flow_id(k) if isinstance(k, bytes) else int(k) for k in pool]
    assert ids[:2] == [3, 3]  # a key of at most 8 bytes is its little-endian value
    trace = Trace([pool[i] for i in rng.integers(0, len(pool), size=600)])
    batched, scalar = cls(cfg), cls(cfg)
    batched.encode_stream(trace.keys)
    for k in trace.keys.tolist():
        scalar.encode_u64(k)
    assert batched._rows == scalar._rows
    assert batched.packet_count == scalar.packet_count == len(trace)
    assert batched.query_many(ids) == [scalar.query_u64(k) for k in ids]


@pytest.mark.parametrize("cls", [SiameseSketch, InstantMergeSketch, CountMinSketch])
def test_sketch_entry_points_refuse_bytes_keys(cls):
    # a bytes key becomes a flow id only where its trace is built: below it,
    # every batched entry point refuses one, alone or among ints
    cfg = (CountMinConfig if cls is CountMinSketch else SketchConfig)(rows=2, width=8)
    sk = cls(cfg)
    for keys in ([b"x"], [5, b"12"], [bytes(range(13))], b"12345678"):
        for refuse in (u64_keys, sk.encode_stream, sk.query_many, KeyBatch):
            with pytest.raises(TypeError):
                refuse(keys)
    assert sk.packet_count == 0
    assert not hasattr(sk, "encode") and not hasattr(sk, "query") and not hasattr(sk, "slot_of")


@settings(max_examples=6, deadline=None)
@given(
    extra=st.integers(-200, 400),
    cuts=st.lists(st.integers(0, ENCODE_CHUNK + 400), max_size=4),
    pool_seed=st.integers(0, 2**32),
)
def test_shared_key_batch_counts_as_raw_keys(extra, cuts, pool_seed):
    # one batch per segment, fed to sketches of two widths in turn, so its
    # kept slots change width between calls, and to one of other seeds; each
    # must end as the same sketch fed the raw array, which encode_stream cuts
    # at ENCODE_CHUNK wherever the segments end
    rng = np.random.default_rng(pool_seed)
    pool = rng.integers(0, 1 << 64, size=40, dtype=np.uint64)
    keys = pool[rng.integers(0, len(pool), size=ENCODE_CHUNK + extra)]
    dyn = SketchConfig(rows=2, width=16, counter_bits=4, shared_bits=2, seeds=(3, 4))

    def sketches():
        return [
            SiameseSketch(dyn),
            CountMinSketch(CountMinConfig(rows=2, width=12, seeds=dyn.seeds)),
            InstantMergeSketch(dyn),
            SiameseSketch(replace(dyn, seeds=(5, 6))),
        ]

    shared, raw = sketches(), sketches()
    start = 0
    for stop in sorted({*(c for c in cuts if c <= len(keys)), len(keys)}):
        for batch in (KeyBatch(keys[start:stop]), KeyBatch(keys[:0])):
            for sketch in shared:
                sketch.encode_stream(batch)
        start = stop
    for sketch in raw:
        sketch.encode_stream(keys)
    for a, b in zip(shared, raw):
        assert a.packet_count == b.packet_count == len(keys)
        assert dump_bytes(a) == dump_bytes(b)


def test_key_batch_keeps_the_slots_of_one_width():
    batch = KeyBatch([1, 2, 2**64 - 1])
    assert len(batch) == 3 and batch.keys.dtype == np.uint64
    first = batch.slots(7, 100)
    assert batch.slots(7, 100) is first
    assert batch.slots(8, 100) is not first
    # another width is placed on its own and keeps the first width's slots,
    # so sketches of two widths may count the batch in any order
    other = batch.slots(7, 50)
    assert np.array_equal(other, index_batch(batch.keys, 7, 50))
    assert batch.slots(7, 100) is first and batch.slots(7, 50) is other
