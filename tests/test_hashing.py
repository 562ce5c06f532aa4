import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from siamsketch import (
    CountMinConfig,
    CountMinSketch,
    InstantMergeSketch,
    SiameseSketch,
    SketchConfig,
)
from siamsketch.hashing import (
    RowHasher,
    derive_seeds,
    hash_batch,
    hash_bytes,
    hash_u64,
    index_batch,
    mix64,
)


def test_width_one_always_zero():
    h = RowHasher(seed=9, width=1)
    for k in (b"", b"\x00" * 8, b"\xff" * 8, (12345).to_bytes(8, "little")):
        assert h.index(k) == 0


def test_deterministic_per_seed_and_key():
    h = RowHasher(seed=77, width=4096)
    key = (424242).to_bytes(8, "little")
    first = h.index(key)
    assert all(h.index(key) == first for _ in range(10))
    assert RowHasher(seed=77, width=4096).index(key) == first
    assert RowHasher(seed=78, width=4096).index(key) != first or True  # may collide


def test_index_range():
    rng = np.random.default_rng(0)
    h = RowHasher(seed=3, width=1000)  # non power of two
    for k in rng.integers(0, 1 << 64, size=2000, dtype=np.uint64).tolist():
        assert 0 <= h.index_u64(k) < 1000


def test_bytes_and_u64_paths_agree():
    for k in (0, 1, 255, 2**40 + 17, 2**64 - 1):
        kb = k.to_bytes(8, "little")
        assert hash_bytes(kb, 5) == hash_u64(k, 5)
        h = RowHasher(seed=5, width=777)
        assert h.index(kb) == h.index_u64(k)


def test_long_keys_fold():
    a = hash_bytes(b"0123456789abc", 1)
    b = hash_bytes(b"0123456789abd", 1)
    assert a != b
    assert a == hash_bytes(b"0123456789abc", 1)


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50),
    seed=st.integers(0, 2**32),
    width=st.integers(1, 100_000),
)
def test_batch_matches_scalar(keys, seed, width):
    arr = np.array(keys, dtype=np.uint64)
    h = RowHasher(seed, width)
    batched = index_batch(arr, seed, width).tolist()
    assert batched == [h.index_u64(k) for k in keys]
    hashed = hash_batch(arr, seed).tolist()
    assert hashed == [hash_u64(k, seed) for k in keys]


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
    with pytest.raises(ValueError):
        RowHasher(seed=0, width=0)


def test_query_many_matches_query_u64_for_every_scheme():
    # the shared front door places whole rows with index_batch; answers must
    # equal the scalar per-key path, keys above 2**63 included
    rng = np.random.default_rng(12)
    keys = rng.integers(0, 1 << 64, size=300, dtype=np.uint64)
    stream = rng.choice(keys[:40], size=30_000)
    cfg = SketchConfig(rows=3, width=32, counter_bits=4, shared_bits=2, seeds=(1, 2, 3))
    sketches = [
        SiameseSketch(cfg),
        InstantMergeSketch(cfg),
        CountMinSketch(CountMinConfig(rows=3, width=9, seeds=(1, 2, 3))),
    ]
    probe = keys.tolist()
    assert max(probe) >= 1 << 63
    for sk in sketches:
        sk.encode_stream(stream)
        assert sk.query_many(probe) == [sk.query_u64(k) for k in probe]
        assert sk.query_many(keys) == sk.query_many(probe)
        assert sk.query_many([]) == []
