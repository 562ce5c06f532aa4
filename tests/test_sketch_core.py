import copy
import tracemalloc
import types
from array import array
from collections import Counter

import numpy as np
import pytest

import siamsketch
from siamsketch import (
    CountMinConfig,
    InstantMergeSketch,
    SiameseSketch,
    SketchConfig,
    Trace,
    dump_bytes,
    flow_id,
)
from siamsketch.sketch import GROUP_COUNTER_COUNT, LEGAL_GROUP_STATES, UNSHARED_GROUP_STATES

from conftest import collision_free_keys, keys_for_slots, plant_state
from reference_impls import (
    GROUP_MERGED_WIDE,
    GROUP_SHARED_WIDE,
    PAIR_INDEPENDENT,
    PAIR_MERGED,
    PAIR_SHARED,
    group_code,
    pair_states,
)


def counter_at(sk, row: int, slot: int) -> tuple[int, int, int, bool]:
    """(bits, first slot, span, shared) of the counter ``slot`` belongs to,
    read off the specification's unit: level ``unit >> 1``, shared
    ``unit & 1``, span ``1 << level`` slots from ``slot & -span``."""
    unit = sk._unit(row, slot)
    span = 1 << (unit >> 1)
    return sk.config.counter_bits << (unit >> 1), slot & -span, span, bool(unit & 1)


# -- configuration ------------------------------------------------------------


def test_fresh_sketch_is_empty():
    cfg = SketchConfig(rows=3, width=4096, counter_bits=8, shared_bits=4)
    sk = SiameseSketch(cfg)
    assert all(v == 0 for row in sk._rows for v in row)
    assert all(c == 0 for states in sk._states for c in states)
    assert sk.counter_count() == [4096, 4096, 4096]
    assert sk.query_many([0, 2**64 - 1]) == [0, 0]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(width=4095),
        dict(width=0),
        dict(shared_bits=8),  # == counter_bits
        dict(shared_bits=9),
        dict(shared_bits=3),  # odd
        dict(shared_bits=-2),
        dict(rows=0),
        dict(merge_mode="average"),
        dict(counter_bits=1),
        dict(counter_bits=17),
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ValueError):
        SketchConfig(**{"rows": 3, "width": 4096, **kwargs})


@pytest.mark.parametrize("field", ["rows", "width", "counter_bits", "shared_bits"])
def test_float_or_bool_sizes_are_refused(field):
    # a float width read from JSON was once taken whole, and a Count-Min
    # config was built from it; every size must be an int, in both configs
    for value in (float(getattr(SketchConfig(), field)), True):
        with pytest.raises(TypeError, match=field):
            SketchConfig(**{field: value})
        if field in ("rows", "width"):
            with pytest.raises(TypeError, match=field):
                CountMinConfig(**{field: value})
    assert SketchConfig(rows=np.int64(2), width=np.uint32(8)).width == 8


def test_k6_is_valid():
    sk = SiameseSketch(SketchConfig(shared_bits=6))
    assert sk.config.shared_bits == 6


def test_narrow_counters_are_valid():
    # 4-bit counters with 2 shared bits; levels are 4, 8 and 16 bits wide
    cfg = SketchConfig(rows=1, width=8, counter_bits=4, shared_bits=2, seeds=(1,))
    sk = SiameseSketch(cfg)
    key = keys_for_slots(sk, 0, [0])[0]
    for _ in range(600):  # past the 8-bit shared level's 2**9 capacity
        sk.encode_u64(key)
    assert sk.query_u64(key) == 600
    assert counter_at(sk, 0, 0)[0] == 16


def test_k2_through_k6_all_run():
    for k in (2, 4, 6):
        sk = SiameseSketch(SketchConfig(rows=1, width=8, shared_bits=k, seeds=(1,)))
        key = keys_for_slots(sk, 0, [0])[0]
        for _ in range(3000):
            sk.encode_u64(key)
        assert sk.query_u64(key) == 3000


def test_seed_mismatch_rejected():
    with pytest.raises(ValueError):
        SketchConfig(rows=3, seeds=(1, 2))


# -- counters of a group ------------------------------------------------------


def test_adjacency_follows_pairing():
    # slots 4 and 5 are each their own 8-bit counter and the pair that
    # shares low bits: a share from either one shares both, and not 6 or 7
    for slot in (4, 5):
        sk = SiameseSketch(SketchConfig(rows=1, width=8, seeds=(0,)))
        assert counter_at(sk, 0, slot) == (8, slot, 1, False)
        sk._share(0, slot, 0)
        assert [counter_at(sk, 0, s) for s in range(4, 8)] == [
            (8, 4, 1, True), (8, 5, 1, True), (8, 6, 1, False), (8, 7, 1, False)
        ]


def test_quad_counter_spans_its_group():
    sk = SiameseSketch(SketchConfig(rows=1, width=8, seeds=(0,)))
    sk._states[0][0] = GROUP_MERGED_WIDE
    assert [counter_at(sk, 0, s) for s in range(4)] == [(32, 0, 4, False)] * 4


def test_counter_levels_follow_the_group_code():
    sk = SiameseSketch(SketchConfig(rows=1, width=8, seeds=(0,)))
    sk._states[0][0] = group_code(PAIR_MERGED, PAIR_INDEPENDENT)
    assert counter_at(sk, 0, 1) == (16, 0, 2, False)
    assert counter_at(sk, 0, 2) == (8, 2, 1, False)
    sk._states[0][1] = GROUP_SHARED_WIDE
    assert counter_at(sk, 0, 6) == (16, 6, 2, True)
    assert counter_at(sk, 0, 4) == (16, 4, 2, True)


# The module docstring's table of the 11 group codes, as (pair A, pair B):
# "i" independent, "s" shared, "f" fused, "S" both pairs fused and sharing
# low bits at double width (code 9), "q" one quad-width counter (code 10).
STATE_TABLE = [(a, b) for a in "isf" for b in "isf"] + [("S", "S"), ("q", "q")]


@pytest.mark.parametrize("code", range(11))
def test_inspection_follows_the_state_table(code):
    # 8-bit slots, K = 4: a shared member decodes to
    # prefix * 2**4 + joint, with the joint's high half in the low 2 bits of
    # the first member and its low half in those of the second
    sk = SiameseSketch(SketchConfig(rows=1, width=4, shared_bits=4, seeds=(0,)))
    sk._states[0][0] = code
    cells = [0xA5, 0x3C, 0x5A, 0xC3]
    for i, v in enumerate(cells):
        sk._rows[0][i] = v
    quad = cells[0] | cells[1] << 8 | cells[2] << 16 | cells[3] << 24
    wide = [cells[0] | cells[1] << 8, cells[2] | cells[3] << 8]
    for slot in range(4):
        pair = slot >> 1
        kind = STATE_TABLE[code][pair]
        value = sk._decode(0, slot)
        if kind in "is":
            assert counter_at(sk, 0, slot) == (8, slot, 1, kind == "s")
            own = cells[slot]
            joint = (cells[2 * pair] & 3) << 2 | cells[2 * pair + 1] & 3
        elif kind in "fS":
            assert counter_at(sk, 0, slot) == (16, 2 * pair, 2, kind == "S")
            own = wide[pair]
            joint = (wide[0] & 3) << 2 | wide[1] & 3
        else:
            assert counter_at(sk, 0, slot) == (32, 0, 4, False)
            own = quad
        if kind in "sS":
            # the high part is the member's prefix, the low part the joint
            assert (value >> 4, value & 15) == (own >> 2, joint)
        else:
            assert value == own


# -- lifecycle ----------------------------------------------------------------


def test_capacity_single_flow_exact_through_1023(adjacent_pair_sketch):
    sk, key, _ = adjacent_pair_sketch
    for n in range(1, 256):
        sk.encode_u64(key)
        assert sk.query_u64(key) == n
    assert sk.group_state(0, 0) == 0  # still independent at 255
    for n in range(256, 1024):
        sk.encode_u64(key)
        assert sk.query_u64(key) == n
        assert pair_states(sk.group_state(0, 0))[0] == PAIR_SHARED
    sk.encode_u64(key)  # increment past 1023 fuses the pair
    assert sk.query_u64(key) == 1024
    assert pair_states(sk.group_state(0, 0))[0] == PAIR_MERGED


def test_share_moment_decodes(adjacent_pair_sketch):
    # 255 packets leave the counter raw and independent; the 256th shares
    # and decodes 256 exactly
    sk, key, _ = adjacent_pair_sketch
    for _ in range(255):
        sk.encode_u64(key)
    assert sk._rows[0][0] == 255
    assert sk.group_state(0, 0) == 0
    sk.encode_u64(key)
    assert counter_at(sk, 0, 0)[3]
    value = sk._decode(0, 0)
    assert value == 256
    assert (value >> 4, value & 15) == (16, 0)


def test_illustrative_interleaving_decodes_34_and_658(adjacent_pair_sketch):
    sk, a, b = adjacent_pair_sketch
    for key, reps in ((a, 16), (b, 256), (a, 17), (b, 401)):
        for _ in range(reps):
            sk.encode_u64(key)
    assert sk.query_u64(a) == 34
    assert sk.query_u64(b) == 658


def test_share_initialization_bounds():
    # at the moment a pair shares, each member's decode may only grow,
    # and by less than 2**K
    cfg = SketchConfig(rows=1, width=4, shared_bits=4, seeds=(42,))
    for adj_value in range(0, 256, 7):
        sk = SiameseSketch(cfg)
        sk._rows[0][0] = 255
        sk._rows[0][1] = adj_value
        before = (sk._decode(0, 0), sk._decode(0, 1))
        sk._share(0, 0, 0)
        after = (sk._decode(0, 0), sk._decode(0, 1))
        for v, v2 in zip(before, after):
            assert v <= v2 < v + 16


def test_counter_count_transitions(adjacent_pair_sketch):
    sk, key, _ = adjacent_pair_sketch
    assert sk.counter_count() == [4]
    for _ in range(300):  # into the shared state
        sk.encode_u64(key)
    assert pair_states(sk.group_state(0, 0))[0] == PAIR_SHARED
    assert sk.counter_count() == [4]  # sharing does not reduce the census
    for _ in range(1024 - 300):  # past capacity: fused
        sk.encode_u64(key)
    assert pair_states(sk.group_state(0, 0))[0] == PAIR_MERGED
    assert sk.counter_count() == [3]


def test_crafted_stream_reaches_wide_share_and_quad():
    sk = SiameseSketch(SketchConfig(rows=1, width=4, shared_bits=4, seeds=(42,)))
    key = keys_for_slots(sk, 0, [0])[0]
    arr = np.full(65536, key, dtype=np.uint64)
    sk.encode_stream(arr)  # one increment past the fused 16-bit capacity
    sk.encode_u64(key)
    assert sk.group_state(0, 0) == GROUP_SHARED_WIDE
    assert sk.query_u64(key) == 65537
    # keep counting exactly until the quad-width fuse
    target = 1 << 18  # wide prefix exhausted at 2**(2S + K/2)
    remaining = target - 65537
    sk.encode_stream(np.full(remaining, key, dtype=np.uint64))
    assert sk.query_u64(key) == target
    assert sk.group_state(0, 0) == GROUP_MERGED_WIDE


def test_quad_counter_saturates():
    # per packet and batched; at 16 bits the quad maximum is 2**64 - 1
    for bits in (8, 16):
        top = (1 << (4 * bits)) - 1
        cfg = SketchConfig(rows=1, width=4, counter_bits=bits, shared_bits=4, seeds=(42,))
        sk = SiameseSketch(cfg)
        key = keys_for_slots(sk, 0, [0])[0]
        sk._states[0][0] = GROUP_MERGED_WIDE
        sk._write(sk._rows[0], 0, 4, top - 1)
        sk.encode_u64(key)
        assert sk.query_u64(key) == top
        sk.encode_u64(key)
        sk.encode_u64(key)
        assert sk.query_u64(key) == top  # saturating, never wraps
        stream = np.full(3, key, dtype=np.uint64)
        sk._write(sk._rows[0], 0, 4, top - 1)
        sk.encode_stream(stream)
        assert sk.query_u64(key) == top
        # a carry out of the lowest slot is not a saturation
        sk._write(sk._rows[0], 0, 4, (1 << bits) - 1)
        sk.encode_stream(stream)
        assert sk.query_u64(key) == (1 << bits) + 2


def test_wide_share_force_merges_lagging_sibling():
    # pair A's fused counter overflows while pair B is still independent:
    # B is fused first, then both share at double width
    sk = SiameseSketch(SketchConfig(rows=1, width=4, shared_bits=4, seeds=(42,)))
    k0, k2 = keys_for_slots(sk, 0, [0, 2])
    sk._states[0][0] = group_code(PAIR_MERGED, PAIR_INDEPENDENT)
    sk._write(sk._rows[0], 0, 2, 65535)
    sk._rows[0][2] = 37
    sk._rows[0][3] = 11
    sk.encode_u64(k0)
    assert sk.group_state(0, 0) == GROUP_SHARED_WIDE
    assert sk.query_u64(k0) == 65536
    assert sk.query_u64(k2) == 48  # fused sibling; wrap cleared the joint


# -- exactness and conservation ----------------------------------------------


def test_single_flow_5000_packets_exact():
    sk = SiameseSketch(SketchConfig(rows=3, width=64, shared_bits=4))
    rng = np.random.default_rng(5)
    k = collision_free_keys(sk, 1, rng)[0]
    sk.encode_stream(np.full(5000, k, dtype=np.uint64))
    assert sk.query_u64(k) == 5000


def test_collision_free_streams_exact():
    # 1000 random small instances: with disjoint groups per row, sum-mode
    # queries equal exact counts whatever the per-flow loads
    rng = np.random.default_rng(77)
    for _ in range(1000):
        sk = SiameseSketch(
            SketchConfig(
                rows=2,
                width=64,
                shared_bits=int(rng.choice([2, 4, 6])),
                seeds=(int(rng.integers(1 << 32)), int(rng.integers(1 << 32))),
            )
        )
        keys = collision_free_keys(sk, int(rng.integers(1, 5)), rng)
        oracle = Counter()
        stream = []
        for k in keys:
            n = int(rng.integers(1, 60))
            stream.extend([k] * n)
            oracle[k] += n
        arr = np.array(stream, dtype=np.uint64)
        rng.shuffle(arr)
        sk.encode_stream(arr)
        for k in keys:
            assert sk.query_u64(k) == oracle[k]


def test_row_total_conservation_with_tracked_discards():
    rng = np.random.default_rng(123)
    for trial in range(60):
        mode = "sum" if trial % 2 == 0 else "max"
        sk = SiameseSketch(
            SketchConfig(rows=2, width=16, shared_bits=4, merge_mode=mode,
                         seeds=(trial, trial + 1))
        )
        n = int(rng.integers(100, 40_000))
        keys = rng.integers(0, 1 << 64, size=8, dtype=np.uint64)
        stream = rng.choice(keys, size=n)
        sk.encode_stream(stream)
        if mode == "sum":
            for r in range(2):
                assert sk.row_total(r) + sk.lsb_discard(r) == n


def walked_row_total(sk, row: int) -> int:
    """A row's total summed counter by counter through ``_unit`` and
    ``_decode``: the joint of a shared pair goes with its first member."""
    k = sk.config.shared_bits
    total, slot = 0, 0
    while slot < sk.config.width:
        _, start, span, shared = counter_at(sk, row, slot)
        value = sk._decode(row, slot)
        total += (value >> k) << k if shared and start & span else value
        slot = start + span
    return total


@pytest.mark.parametrize("cls", [SiameseSketch, InstantMergeSketch])
@pytest.mark.parametrize("mode", ["sum", "max"])
@pytest.mark.parametrize("bits", [4, 8, 16])
def test_row_total_matches_a_counter_walk(bits, mode, cls):
    rng = np.random.default_rng(bits)
    cfg = SketchConfig(
        rows=2, width=512, counter_bits=bits, shared_bits=bits // 2, merge_mode=mode, seeds=(3, 4)
    )
    sk = cls(cfg)
    plant_state(sk, rng)
    legal = LEGAL_GROUP_STATES if sk.config.shared_bits else UNSHARED_GROUP_STATES
    assert all(set(states) == legal for states in sk._states)
    # as planted, then after packets that cross counter limits at every level
    for _ in range(2):
        for r in range(cfg.rows):
            assert sk.row_total(r) == walked_row_total(sk, r)
        sk.encode_stream(rng.integers(0, 1 << 64, size=2000, dtype=np.uint64))


def test_states_monotone_and_legal():
    rng = np.random.default_rng(99)
    sk = SiameseSketch(SketchConfig(rows=2, width=16, shared_bits=4, seeds=(7, 8)))
    prev = [list(states) for states in sk._states]
    keys = rng.integers(0, 1 << 64, size=6, dtype=np.uint64)
    for _ in range(40):
        sk.encode_stream(rng.choice(keys, size=2000))
        for r in range(2):
            for g, code in enumerate(sk._states[r]):
                assert 0 <= code <= 10  # codes 11-15 never appear
                assert code >= prev[r][g]  # transitions never reverse
        prev = [list(states) for states in sk._states]


def test_shared_competition_can_underestimate(adjacent_pair_sketch):
    # winner-take-all artifact: bursts timed so the neighbour always claims
    # the wrap leave the slow flow's low bits permanently uncredited; its
    # estimate can fall below its true count (bounded in expectation only)
    sk, a, b = adjacent_pair_sketch
    for _ in range(256):
        sk.encode_u64(b)
    truth_a = 0
    for _ in range(20):
        for _ in range(15):
            sk.encode_u64(a)
            truth_a += 1
        sk.encode_u64(b)  # triggers the wrap, credits the neighbour
    assert sk.query_u64(a) < truth_a


def test_group_counter_census_table():
    # spot-check the census against the state definitions
    assert GROUP_COUNTER_COUNT[0] == 4  # (independent, independent)
    assert GROUP_COUNTER_COUNT[group_code(PAIR_SHARED, PAIR_INDEPENDENT)] == 4
    assert GROUP_COUNTER_COUNT[group_code(PAIR_MERGED, PAIR_INDEPENDENT)] == 3
    assert GROUP_COUNTER_COUNT[group_code(PAIR_MERGED, PAIR_MERGED)] == 2
    assert GROUP_COUNTER_COUNT[GROUP_SHARED_WIDE] == 2
    assert GROUP_COUNTER_COUNT[GROUP_MERGED_WIDE] == 1
    # every code, as the pair states define it: the tables are derived from
    # the unit table
    for c in range(9):
        assert GROUP_COUNTER_COUNT[c] == sum(1 if p == PAIR_MERGED else 2 for p in pair_states(c))
    assert UNSHARED_GROUP_STATES == {
        c for c in range(9) if PAIR_SHARED not in pair_states(c)
    } | {GROUP_MERGED_WIDE}


@pytest.mark.parametrize("cls, legal", [(SiameseSketch, LEGAL_GROUP_STATES), (InstantMergeSketch, UNSHARED_GROUP_STATES)])
@pytest.mark.parametrize("seed", range(5))
def test_counter_count_matches_census_table(cls, legal, seed):
    rng = np.random.default_rng(seed)
    sk = cls(SketchConfig(rows=3, width=256, seeds=(1, 2, 3)))
    codes = rng.choice(sorted(legal), size=(3, 64))
    for states, row in zip(sk._states, codes):
        states[:] = array("B", row.tolist())
    counts = sk.counter_count()
    assert counts == [sum(GROUP_COUNTER_COUNT[c] for c in row.tolist()) for row in codes]
    assert all(type(c) is int for c in counts)


@pytest.mark.parametrize("cls", [SiameseSketch, InstantMergeSketch])
def test_sketch_holds_what_it_reports(cls):
    # a fresh sketch, and the deep copy run_experiment takes of it at the
    # stream's half, each hold at most 1.25 times what memory_bits() reports:
    # the code arrays spend a byte on each group's 4 state bits
    tracemalloc.start()
    try:
        sk = cls(SketchConfig(rows=3, width=1 << 20))
        held = tracemalloc.get_traced_memory()[0]
        twin = copy.deepcopy(sk)
        held_twin = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    bound = 1.25 * sk.memory_bits() / 8
    assert held <= bound
    assert held_twin <= bound


def test_group_state_bounds():
    sk = SiameseSketch(SketchConfig(rows=1, width=8, seeds=(0,)))
    with pytest.raises(IndexError):
        sk.group_state(0, 2)
    with pytest.raises(IndexError):
        sk.group_state(0, -1)


def test_long_key_encode_query():
    # a 13-byte key is counted through the flow id its trace holds
    sk = SiameseSketch(SketchConfig(rows=2, width=16, seeds=(3, 4)))
    key = b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d"  # 13 bytes
    sk.encode_stream(Trace([key] * 7).keys)
    assert sk.query_many(Trace([key]).keys) == [7]


def test_wide_key_counts_as_its_flow_id():
    # a 13-byte key is folded once into a flow id where its trace is built,
    # and the sketch holds what the same packets leave through encode_u64 of
    # that id, in every row
    cfg = SketchConfig(rows=3, width=16, counter_bits=4, shared_bits=2, seeds=(3, 4, 5))
    wide = [bytes(range(i, i + 13)) for i in range(5)]
    stream = [wide[i * i % 5] for i in range(400)]
    by_key, by_id = SiameseSketch(cfg), SiameseSketch(cfg)
    by_key.encode_stream(Trace(stream).keys)
    for key in stream:
        by_id.encode_u64(flow_id(key))
    assert dump_bytes(by_key) == dump_bytes(by_id)
    assert by_key.query_many(Trace(wide).keys) == [by_id.query_u64(flow_id(k)) for k in wide]


def test_bytes_and_u64_encode_agree():
    # an 8-byte key's flow id is its little-endian value, so a trace of the
    # keys' bytes counts exactly as the integers do
    a = SiameseSketch(SketchConfig(rows=2, width=16, seeds=(3, 4)))
    b = SiameseSketch(SketchConfig(rows=2, width=16, seeds=(3, 4)))
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 1 << 64, size=200, dtype=np.uint64).tolist()
    as_bytes = Trace([k.to_bytes(8, "little") for k in keys])
    assert as_bytes.keys.tolist() == keys
    a.encode_stream(as_bytes.keys)
    for k in keys:
        b.encode_u64(k)
    assert a._rows == b._rows and a._states == b._states
    assert a.query_many(as_bytes.keys) == [b.query_u64(k) for k in keys]


def test_encode_stream_matches_scalar_encode():
    rng = np.random.default_rng(10)
    keys = rng.integers(0, 1 << 64, size=5000, dtype=np.uint64)
    one = SiameseSketch(SketchConfig(rows=2, width=8, shared_bits=4, seeds=(1, 2)))
    two = SiameseSketch(SketchConfig(rows=2, width=8, shared_bits=4, seeds=(1, 2)))
    one.encode_stream(keys)
    for k in keys.tolist():
        two.encode_u64(k)
    assert one._rows == two._rows
    assert one._states == two._states


def test_the_package_exports_what_the_product_calls():
    # names that only tests call (the group state names, the pair model)
    # live in tests/reference_impls.py, not in the package
    names = sorted(
        name
        for name, value in vars(siamsketch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == [
        "AttackPlan", "CountMinConfig", "CountMinSketch", "ExactCounter", "ExperimentResult",
        "ExperimentSpec", "InstantMergeSketch", "MERGE_MAX", "MERGE_SUM", "SiameseSketch",
        "SketchConfig", "SpecError", "SpecTypeError", "Trace", "TraceError", "ZipfConfig",
        "concat_traces", "count_min_width_for", "coupon_expect", "derive_seeds",
        "detect_changes", "dump_bytes", "equal_memory_widths", "estimate_entropy",
        "estimate_fsd", "flow_id", "gen_attack", "gen_zipf", "hash_batch", "hash_u64",
        "hyper_mean", "hyper_pmf", "hyper_var", "index_batch", "interleave_traces",
        "load_bytes", "metric_are", "metric_f1", "metric_re", "metric_rmse", "metric_wmre",
        "mix64", "plan_attack", "read_trace", "run_experiment", "threshold_from_fraction",
        "true_fsd", "true_heavy_hitters", "write_trace",
    ]
