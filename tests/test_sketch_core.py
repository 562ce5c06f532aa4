import numpy as np
import pytest

from siamsketch import (
    GROUP_MERGED_WIDE,
    GROUP_SHARED_WIDE,
    PAIR_INDEPENDENT,
    PAIR_MERGED,
    PAIR_SHARED,
    ExactCounter,
    SiameseSketch,
    SketchConfig,
    group_code,
    pair_states,
)
from siamsketch.sketch import GROUP_COUNTER_COUNT

from conftest import collision_free_keys, key_bytes, keys_for_slots


# -- configuration ------------------------------------------------------------


def test_fresh_sketch_is_empty():
    cfg = SketchConfig(rows=3, width=4096, counter_bits=8, shared_bits=4)
    sk = SiameseSketch(cfg)
    assert all(v == 0 for row in sk._rows for v in row)
    assert all(c == 0 for states in sk._states for c in states)
    assert sk.counter_count() == [4096, 4096, 4096]
    assert sk.query(b"anything") == 0


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


def test_k6_is_valid():
    sk = SiameseSketch(SketchConfig(shared_bits=6))
    assert sk.config.shared_bits == 6


def test_narrow_counters_are_valid():
    # 4-bit counters with 2 shared bits; levels are 4, 8 and 16 bits wide
    cfg = SketchConfig(rows=1, width=8, counter_bits=4, shared_bits=2, seeds=(1,))
    sk = SiameseSketch(cfg)
    key = key_bytes(keys_for_slots(sk, 0, [0])[0])
    for _ in range(600):  # past the 8-bit shared level's 2**9 capacity
        sk.encode(key)
    assert sk.query(key) == 600
    assert sk.counter_view(0, key).level_bits == 16


def test_k2_through_k6_all_run():
    for k in (2, 4, 6):
        sk = SiameseSketch(SketchConfig(rows=1, width=8, shared_bits=k, seeds=(1,)))
        key = key_bytes(keys_for_slots(sk, 0, [0])[0])
        for _ in range(3000):
            sk.encode(key)
        assert sk.query(key) == 3000


def test_seed_mismatch_rejected():
    with pytest.raises(ValueError):
        SketchConfig(rows=3, seeds=(1, 2))


# -- find counter -------------------------------------------------------------


def test_adjacency_follows_pairing():
    sk = SiameseSketch(SketchConfig(rows=1, width=8, seeds=(0,)))
    ref, adj = sk.find_counter_at(0, 4)
    assert (ref.start, ref.span, ref.level_bits) == (4, 1, 8)
    assert adj.start == 5
    ref, adj = sk.find_counter_at(0, 5)
    assert ref.start == 5
    assert adj.start == 4


def test_find_counter_fused_group_has_no_peer():
    sk = SiameseSketch(SketchConfig(rows=1, width=8, seeds=(0,)))
    sk._states[0][0] = GROUP_MERGED_WIDE
    ref, adj = sk.find_counter_at(0, 0)
    assert (ref.level_bits, ref.start, ref.span) == (32, 0, 4)
    assert adj is None


def test_find_counter_levels():
    sk = SiameseSketch(SketchConfig(rows=1, width=8, seeds=(0,)))
    sk._states[0][0] = group_code(PAIR_MERGED, PAIR_INDEPENDENT)
    ref, adj = sk.find_counter_at(0, 1)
    assert (ref.level_bits, ref.start, ref.span) == (16, 0, 2)
    assert (adj.start, adj.span) == (2, 2)
    sk._states[0][1] = GROUP_SHARED_WIDE
    ref, adj = sk.find_counter_at(0, 6)
    assert (ref.level_bits, ref.start, ref.shared) == (16, 6, True)
    assert adj.start == 4


# -- lifecycle ----------------------------------------------------------------


def test_capacity_single_flow_exact_through_1023(adjacent_pair_sketch):
    sk, k0, _ = adjacent_pair_sketch
    key = key_bytes(k0)
    for n in range(1, 256):
        sk.encode(key)
        assert sk.query(key) == n
    assert sk.group_state(0, 0) == 0  # still independent at 255
    for n in range(256, 1024):
        sk.encode(key)
        assert sk.query(key) == n
        assert pair_states(sk.group_state(0, 0))[0] == PAIR_SHARED
    sk.encode(key)  # increment past 1023 fuses the pair
    assert sk.query(key) == 1024
    assert pair_states(sk.group_state(0, 0))[0] == PAIR_MERGED


def test_share_moment_decodes(adjacent_pair_sketch):
    # 255 packets leave the counter raw and independent; the 256th shares
    # and decodes 256 exactly
    sk, k0, _ = adjacent_pair_sketch
    key = key_bytes(k0)
    for _ in range(255):
        sk.encode(key)
    assert sk._rows[0][0] == 255
    assert sk.group_state(0, 0) == 0
    sk.encode(key)
    view = sk.counter_view(0, key)
    assert view.shared and view.value == 256
    assert view.msb_value == 16 and view.lsb_value == 0


def test_illustrative_interleaving_decodes_34_and_658(adjacent_pair_sketch):
    sk, k0, k1 = adjacent_pair_sketch
    a, b = key_bytes(k0), key_bytes(k1)
    for key, reps in ((a, 16), (b, 256), (a, 17), (b, 401)):
        for _ in range(reps):
            sk.encode(key)
    assert sk.query(a) == 34
    assert sk.query(b) == 658


def test_share_initialization_bounds():
    # at the moment a pair shares, each member's decode may only grow,
    # and by less than 2**K
    cfg = SketchConfig(rows=1, width=4, shared_bits=4, seeds=(42,))
    for adj_value in range(0, 256, 7):
        sk = SiameseSketch(cfg)
        sk._rows[0][0] = 255
        sk._rows[0][1] = adj_value
        before = (sk.counter_view_at(0, 0).value, sk.counter_view_at(0, 1).value)
        sk._share_pair(0, 0, 0)
        after = (sk.counter_view_at(0, 0).value, sk.counter_view_at(0, 1).value)
        for v, v2 in zip(before, after):
            assert v <= v2 < v + 16


def test_counter_count_transitions(adjacent_pair_sketch):
    sk, k0, _ = adjacent_pair_sketch
    key = key_bytes(k0)
    assert sk.counter_count() == [4]
    for _ in range(300):  # into the shared state
        sk.encode(key)
    assert pair_states(sk.group_state(0, 0))[0] == PAIR_SHARED
    assert sk.counter_count() == [4]  # sharing does not reduce the census
    for _ in range(1024 - 300):  # past capacity: fused
        sk.encode(key)
    assert pair_states(sk.group_state(0, 0))[0] == PAIR_MERGED
    assert sk.counter_count() == [3]


def test_crafted_stream_reaches_wide_share_and_quad():
    sk = SiameseSketch(SketchConfig(rows=1, width=4, shared_bits=4, seeds=(42,)))
    key = key_bytes(keys_for_slots(sk, 0, [0])[0])
    arr = np.full(65536, int.from_bytes(key, "little"), dtype=np.uint64)
    sk.encode_stream(arr)  # one increment past the fused 16-bit capacity
    sk.encode(key)
    assert sk.group_state(0, 0) == GROUP_SHARED_WIDE
    assert sk.query(key) == 65537
    # keep counting exactly until the quad-width fuse
    target = 1 << 18  # wide prefix exhausted at 2**(2S + K/2)
    remaining = target - 65537
    sk.encode_stream(np.full(remaining, int.from_bytes(key, "little"), dtype=np.uint64))
    assert sk.query(key) == target
    assert sk.group_state(0, 0) == GROUP_MERGED_WIDE


def test_quad_counter_saturates():
    sk = SiameseSketch(SketchConfig(rows=1, width=4, shared_bits=4, seeds=(42,)))
    key = key_bytes(keys_for_slots(sk, 0, [0])[0])
    sk._states[0][0] = GROUP_MERGED_WIDE
    sk._write_quad(sk._rows[0], 0, (1 << 32) - 2)
    sk.encode(key)
    assert sk.query(key) == (1 << 32) - 1
    sk.encode(key)
    sk.encode(key)
    assert sk.query(key) == (1 << 32) - 1  # saturating, never wraps


def test_wide_share_force_merges_lagging_sibling():
    # pair A's fused counter overflows while pair B is still independent:
    # B is fused first, then both share at double width
    sk = SiameseSketch(SketchConfig(rows=1, width=4, shared_bits=4, seeds=(42,)))
    k0, k2 = keys_for_slots(sk, 0, [0, 2])
    sk._states[0][0] = group_code(PAIR_MERGED, PAIR_INDEPENDENT)
    sk._write_wide(sk._rows[0], 0, 65535)
    sk._rows[0][2] = 37
    sk._rows[0][3] = 11
    sk.encode(key_bytes(k0))
    assert sk.group_state(0, 0) == GROUP_SHARED_WIDE
    assert sk.query(key_bytes(k0)) == 65536
    assert sk.query(key_bytes(k2)) == 48  # fused sibling; wrap cleared the joint


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
        oracle = ExactCounter()
        stream = []
        for k in keys:
            n = int(rng.integers(1, 60))
            stream.extend([k] * n)
            oracle.observe(k, n)
        arr = np.array(stream, dtype=np.uint64)
        rng.shuffle(arr)
        sk.encode_stream(arr)
        for k in keys:
            assert sk.query_u64(k) == oracle.truth(k)


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
    sk, k0, k1 = adjacent_pair_sketch
    a, b = key_bytes(k0), key_bytes(k1)
    for _ in range(256):
        sk.encode(b)
    truth_a = 0
    for _ in range(20):
        for _ in range(15):
            sk.encode(a)
            truth_a += 1
        sk.encode(b)  # triggers the wrap, credits the neighbour
    assert sk.query(a) < truth_a


def test_group_counter_census_table():
    # spot-check the census against the state definitions
    assert GROUP_COUNTER_COUNT[0] == 4  # (independent, independent)
    assert GROUP_COUNTER_COUNT[group_code(PAIR_SHARED, PAIR_INDEPENDENT)] == 4
    assert GROUP_COUNTER_COUNT[group_code(PAIR_MERGED, PAIR_INDEPENDENT)] == 3
    assert GROUP_COUNTER_COUNT[group_code(PAIR_MERGED, PAIR_MERGED)] == 2
    assert GROUP_COUNTER_COUNT[GROUP_SHARED_WIDE] == 2
    assert GROUP_COUNTER_COUNT[GROUP_MERGED_WIDE] == 1


def test_group_state_bounds():
    sk = SiameseSketch(SketchConfig(rows=1, width=8, seeds=(0,)))
    with pytest.raises(IndexError):
        sk.group_state(0, 2)
    with pytest.raises(IndexError):
        sk.group_state(0, -1)


def test_long_key_encode_query():
    sk = SiameseSketch(SketchConfig(rows=2, width=16, seeds=(3, 4)))
    key = b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d"  # 13 bytes
    for _ in range(7):
        sk.encode(key)
    assert sk.query(key) == 7


def test_bytes_and_u64_encode_agree():
    a = SiameseSketch(SketchConfig(rows=2, width=16, seeds=(3, 4)))
    b = SiameseSketch(SketchConfig(rows=2, width=16, seeds=(3, 4)))
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 1 << 64, size=200, dtype=np.uint64).tolist()
    for k in keys:
        a.encode(key_bytes(k))
        b.encode_u64(k)
    assert a._rows == b._rows and a._states == b._states
    for k in keys:
        assert a.query(key_bytes(k)) == b.query_u64(k)


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
