from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamsketch import (
    CountMinConfig,
    CountMinSketch,
    ExactCounter,
    InstantMergeSketch,
    SiameseSketch,
    SketchConfig,
    count_min_width_for,
    equal_memory_widths,
)
from siamsketch.hashing import KeyBatch, index_batch
from siamsketch.snapshot import dump_bytes
from siamsketch.sketch import GROUP_MERGED_WIDE, PAIR_MERGED, group_code, pair_states

from conftest import kernel_unbuildable, keys_for_slots
from reference_impls import RefInstantMerge


def _pair_sketch(merge_mode="sum"):
    cfg = SketchConfig(rows=1, width=4, shared_bits=4, merge_mode=merge_mode, seeds=(42,))
    sk = InstantMergeSketch(cfg)
    k0, k1 = keys_for_slots(sk, 0, [0, 1])
    return sk, k0, k1


def test_empty_query_zero():
    sk, a, _ = _pair_sketch()
    assert sk.query_u64(a) == 0


def test_merges_at_first_overflow_sum_exact():
    sk, a, _ = _pair_sketch()
    for n in range(1, 256):
        sk.encode_u64(a)
        assert sk.query_u64(a) == n
    assert sk.group_state(0, 0) == 0
    sk.encode_u64(a)  # 256th packet fuses the pair
    assert pair_states(sk.group_state(0, 0))[0] == PAIR_MERGED
    assert sk.query_u64(a) == 256


def test_illustrative_interleaving_674_max_690_sum():
    for mode, expected in (("max", 674), ("sum", 690)):
        sk, a, b = _pair_sketch(mode)
        for key, reps in ((a, 16), (b, 256), (a, 17), (b, 401)):
            for _ in range(reps):
                sk.encode_u64(key)
        assert sk.query_u64(a) == expected  # fused: both keys read the same counter
        assert sk.query_u64(b) == expected


def test_group_fuse_includes_lagging_sibling():
    sk, a, _ = _pair_sketch()
    sk._states[0][0] = group_code(PAIR_MERGED, 0)
    sk._rows[0][0] = 255
    sk._rows[0][1] = 255  # fused pair at 65535
    sk._rows[0][2] = 40
    sk._rows[0][3] = 2
    sk.encode_u64(a)
    assert sk.group_state(0, 0) == GROUP_MERGED_WIDE
    assert sk.query_u64(a) == 65535 + 42 + 1  # sibling content survives a sum fuse


def test_instant_row_conservation():
    rng = np.random.default_rng(3)
    sk = InstantMergeSketch(SketchConfig(rows=2, width=16, seeds=(5, 6)))
    keys = rng.integers(0, 1 << 64, size=10, dtype=np.uint64)
    stream = rng.choice(keys, size=30_000)
    sk.encode_stream(stream)
    for r in range(2):
        assert sk.row_total(r) == 30_000


def test_one_sided_instant_and_count_min():
    rng = np.random.default_rng(8)
    for seed in range(3):
        keys = rng.integers(0, 1 << 64, size=400, dtype=np.uint64)
        stream = rng.choice(keys, size=60_000)
        oracle = ExactCounter()
        oracle.observe_stream(stream)
        im = InstantMergeSketch(SketchConfig(rows=2, width=32, seeds=(seed, seed + 9)))
        cm = CountMinSketch(CountMinConfig(rows=2, width=16, seeds=(seed, seed + 9)))
        im.encode_stream(stream)
        cm.encode_stream(stream)
        for k, t in oracle.flows():
            assert im.query_u64(k) >= t
            assert cm.query_u64(k) >= t


def test_count_min_exact_without_collisions():
    cm = CountMinSketch(CountMinConfig(rows=3, width=1024))
    cm.encode_stream(np.full(5000, 12345, dtype=np.uint64))
    assert cm.query_u64(12345) == 5000


def test_count_min_additive_collision():
    # width 1 collides everything: query(a) = a + b
    cm = CountMinSketch(CountMinConfig(rows=3, width=1))
    cm.encode_stream(np.array([1] * 30 + [2] * 12, dtype=np.uint64))
    assert cm.query_u64(1) == 42
    assert cm.query_u64(2) == 42


def test_count_min_saturates():
    cm = CountMinSketch(CountMinConfig(rows=1, width=4, seeds=(1,)))
    cm._rows[0] = array("I", [(1 << 32) - 1] * 4)
    cm.encode_u64(9)
    assert cm.query_u64(9) == (1 << 32) - 1


def test_count_min_stream_saturates():
    # the batched path adds a chunk's hits at once; it must stop at 2**32 - 1
    # exactly where per-packet encoding does
    near, low = (1 << 32) - 3, 7
    sketches = [CountMinSketch(CountMinConfig(rows=1, width=4, seeds=(1,))) for _ in range(2)]
    for cm in sketches:
        cm._rows[0] = array("I", [near, low, near, low])
    stream = np.arange(400, dtype=np.uint64)
    sketches[0].encode_stream(stream)
    for k in stream.tolist():
        sketches[1].encode_u64(k)
    assert sketches[0]._rows == sketches[1]._rows
    assert list(sketches[0]._rows[0])[::2] == [(1 << 32) - 1] * 2


_MAX32 = (1 << 32) - 1


@st.composite
def count_min_streams(draw):
    """A Count-Min shape, a seed, and the segment lengths of its stream."""
    # the kernel's lanes count a call with at least 4 packets a slot:
    # segments of 4 * width - 4 to 4 * width + 3 packets sit on either side
    # of that bound, with 0-3 packets past a multiple of 4
    width = draw(st.sampled_from([1, 2, 3, 5, 17, 64, 1152]))
    near = st.integers(max(0, 4 * width - 4), 4 * width + 3)
    lengths = draw(st.lists(near | st.integers(0, 40), min_size=1, max_size=3))
    rows = draw(st.integers(1, 2))
    return rows, width, lengths, draw(st.integers(0, 2**32)), draw(st.booleans())


def _count_min_pass(cfg, seed, segments, how):
    """A Count-Min sketch of ``cfg`` with its rows planted from ``seed``, at
    and next to ``2**32 - 1`` in one slot of four, after counting
    ``segments``: ``how`` is ``"raw"`` or ``"batch"`` for ``encode_stream``
    of each segment's keys or of its ``KeyBatch``, and ``"per-packet"`` for
    ``encode_u64`` of every packet."""
    cm = CountMinSketch(cfg)
    rng = np.random.default_rng(seed)
    for r in range(cfg.rows):
        near = rng.choice([_MAX32, _MAX32 - 1, _MAX32 - 2], size=cfg.width)
        planted = np.where(rng.random(cfg.width) < 0.25, near, rng.integers(0, 50, cfg.width))
        cm._rows[r] = array("I", planted.astype(np.uint32).tobytes())
    for keys in segments:
        if how == "per-packet":
            for key in keys.tolist():
                cm.encode_u64(key)
        else:
            cm.encode_stream(KeyBatch(keys) if how == "batch" else keys)
    return dump_bytes(cm)


@settings(max_examples=60, deadline=None)
@given(count_min_streams())
def test_count_min_kernel_fallback_and_per_packet_agree(case):
    # the kernel's count (lanes or one lane), the np.bincount fallback and
    # encode_u64 of each packet leave the same rows, which start planted so
    # that the next packets saturate them
    rows, width, lengths, seed, batch = case
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << 64, size=12, dtype=np.uint64)
    weights = 1.0 / np.arange(1, 13)
    segments = [rng.choice(pool, size=n, p=weights / weights.sum()) for n in lengths]
    cfg = CountMinConfig(rows=rows, width=width, seeds=tuple(range(seed, seed + rows)))
    how = "batch" if batch else "raw"
    kernel = _count_min_pass(cfg, seed, segments, how)
    with kernel_unbuildable():
        fallback = _count_min_pass(cfg, seed, segments, how)
    assert kernel == fallback == _count_min_pass(cfg, seed, segments, "per-packet")


def _feed(ref, cfg, stream):
    """Drive the independent instant-merge model over the sketch's slots."""
    for r, seed in enumerate(cfg.seeds):
        for slot in index_batch(stream, seed, cfg.width).tolist():
            ref.add(r, slot)


def _ref_model(cfg, stream):
    ref = RefInstantMerge(cfg.rows, cfg.width, cfg.counter_bits, cfg.merge_mode)
    _feed(ref, cfg, stream)
    return ref


def test_share_disabled_equals_instant():
    # the engine with shared_bits=0, and the instant scheme built on it,
    # must match the independent straight-line instant-merge model
    rng = np.random.default_rng(31)
    for trial in range(8):
        mode = "sum" if trial % 2 == 0 else "max"
        bits = 8 if trial % 4 < 2 else 4
        seeds = (int(rng.integers(1 << 32)), int(rng.integers(1 << 32)))
        cfg = SketchConfig(
            rows=2, width=16, counter_bits=bits, shared_bits=0, merge_mode=mode, seeds=seeds
        )
        # skewed loads: pairs fuse while their siblings still hold two counts
        keys = rng.integers(0, 1 << 64, size=16, dtype=np.uint64)
        weights = 1.0 / np.arange(1, 17)
        size = int(rng.integers(1000, 80_000))
        stream = rng.choice(keys, size=size, p=weights / weights.sum())
        ref = _ref_model(cfg, stream)
        key_slots = zip(*(index_batch(keys, seed, cfg.width).tolist() for seed in seeds))
        answers = [ref.query(list(slots)) for slots in key_slots]
        for sk in (SiameseSketch(cfg), InstantMergeSketch(cfg)):
            sk.encode_stream(stream)
            for r in range(cfg.rows):
                for slot in range(cfg.width):
                    assert sk._decode(r, slot) == ref.value(r, slot)
                for g in range(cfg.width // 4):
                    assert sk.group_state(r, g) == ref.group_state(r, g)
                assert sk.row_total(r) == ref.row_total(r)
            assert [sk.query_u64(k) for k in keys.tolist()] == answers
            assert sk.counter_count() == ref.counter_count()


def test_instant_ignores_shared_bits():
    cfg = SketchConfig(rows=2, width=16, shared_bits=4, seeds=(1, 2))
    assert InstantMergeSketch(cfg).config == SketchConfig(
        rows=2, width=16, shared_bits=0, seeds=(1, 2)
    )


def test_sum_merge_totals_differ_by_exactly_the_share_discard():
    rng = np.random.default_rng(17)
    for trial in range(30):
        seeds = (int(rng.integers(1 << 32)),)
        cfg = SketchConfig(rows=1, width=8, shared_bits=4, merge_mode="sum", seeds=seeds)
        sc = SiameseSketch(cfg)
        keys = rng.integers(0, 1 << 64, size=4, dtype=np.uint64)
        stream = rng.choice(keys, size=int(rng.integers(500, 30_000)))
        sc.encode_stream(stream)
        ref = _ref_model(cfg, stream)
        assert ref.row_total(0) - sc.row_total(0) == sc.lsb_discard(0)


def test_equal_memory_accounting():
    for budget in (0.2, 0.4, 0.5, 1.0):
        memory = int(budget * 1024 * 1024)
        dyn_w, cm_w = equal_memory_widths(memory, rows=3, counter_bits=8)
        dyn_bits = 3 * dyn_w * 9
        cm_bits = 3 * cm_w * 32
        assert dyn_bits <= memory * 8
        assert abs(dyn_bits - cm_bits) / dyn_bits < 0.01
    assert count_min_width_for(4096) == 1152


def test_equal_memory_too_small():
    with pytest.raises(ValueError):
        equal_memory_widths(1, rows=3)
    # the minimum the error names is exact: one 4-slot row each fits in it
    for rows in (1, 2, 3, 5):
        for bits in (1, 4, 8, 12, 16):
            least = -(-rows * (bits + 1) // 2)
            assert equal_memory_widths(least, rows, bits)[0] == 4
            with pytest.raises(ValueError, match=f"memory_bytes must be at least {least} "):
                equal_memory_widths(least - 1, rows, bits)


def test_equal_memory_too_large():
    # a budget of 2**32 slots a row is refused naming memory_bytes, not the
    # width derived from it; the most the error names is exact
    for rows in (1, 3):
        for bits in (2, 8, 16):
            most = rows * (bits + 1) * 2**29 - 1
            assert equal_memory_widths(most, rows, bits)[0] == 2**32 - 4
            with pytest.raises(ValueError, match=f"memory_bytes must be at most {most} "):
                equal_memory_widths(most + 1, rows, bits)


def test_late_merge_dominance_small():
    rng = np.random.default_rng(4)
    seeds = (11, 12)
    cfg = SketchConfig(rows=2, width=32, shared_bits=4, seeds=seeds)
    sc = SiameseSketch(cfg)
    ref = RefInstantMerge(cfg.rows, cfg.width, cfg.counter_bits, cfg.merge_mode)
    keys = rng.integers(0, 1 << 64, size=40, dtype=np.uint64)
    for _ in range(50):
        chunk = rng.choice(keys, size=2000)
        sc.encode_stream(chunk)
        _feed(ref, cfg, chunk)
        for a, b in zip(sc.counter_count(), ref.counter_count()):
            assert a >= b
