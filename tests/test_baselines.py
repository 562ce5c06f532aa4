import numpy as np
import pytest

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
from siamsketch.hashing import index_batch
from siamsketch.sketch import GROUP_MERGED_WIDE, PAIR_MERGED, group_code, pair_states

from conftest import key_bytes, keys_for_slots
from reference_impls import RefInstantMerge


def _pair_sketch(merge_mode="sum"):
    cfg = SketchConfig(rows=1, width=4, shared_bits=4, merge_mode=merge_mode, seeds=(42,))
    sk = InstantMergeSketch(cfg)
    k0, k1 = keys_for_slots(sk, 0, [0, 1])
    return sk, key_bytes(k0), key_bytes(k1)


def test_empty_query_zero():
    sk, a, _ = _pair_sketch()
    assert sk.query(a) == 0


def test_merges_at_first_overflow_sum_exact():
    sk, a, _ = _pair_sketch()
    for n in range(1, 256):
        sk.encode(a)
        assert sk.query(a) == n
    assert sk.group_state(0, 0) == 0
    sk.encode(a)  # 256th packet fuses the pair
    assert pair_states(sk.group_state(0, 0))[0] == PAIR_MERGED
    assert sk.query(a) == 256


def test_illustrative_interleaving_674_max_690_sum():
    for mode, expected in (("max", 674), ("sum", 690)):
        sk, a, b = _pair_sketch(mode)
        for key, reps in ((a, 16), (b, 256), (a, 17), (b, 401)):
            for _ in range(reps):
                sk.encode(key)
        assert sk.query(a) == expected  # fused: both keys read the same counter
        assert sk.query(b) == expected


def test_group_fuse_includes_lagging_sibling():
    sk, a, _ = _pair_sketch()
    sk._states[0][0] = group_code(PAIR_MERGED, 0)
    sk._rows[0][0] = 255
    sk._rows[0][1] = 255  # fused pair at 65535
    sk._rows[0][2] = 40
    sk._rows[0][3] = 2
    sk.encode(a)
    assert sk.group_state(0, 0) == GROUP_MERGED_WIDE
    assert sk.query(a) == 65535 + 42 + 1  # sibling content survives a sum fuse


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
    cm._rows[0] = [(1 << 32) - 1] * 4
    cm.encode_u64(9)
    assert cm.query_u64(9) == (1 << 32) - 1


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
                    assert sk.counter_view_at(r, slot).value == ref.value(r, slot)
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
