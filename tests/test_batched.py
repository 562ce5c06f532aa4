"""The batched paths against the scalar state machine, which is the spec.

``encode_stream`` places each chunk with the kernel library's ``place`` and
counts it with its ``encode_row``, a port of ``_encode``, or, where the
library cannot be built, with the scalar ``mix64`` and ``_encode`` itself;
``query_many`` reads decoded-row tables. The kernel counts a chunk of an
8-bit row with its pair-word loop when at least 1/8 of the row's groups hold
a shared pair, else with its per-unit loop; the tests below plant rows on
each side of that share and cross it within one stream. Both
encode paths and the query must leave and report exactly what per-packet
``encode_u64`` and per-key ``query_u64`` do, in every group state and at
every counter width. The kernel's build, cache and fallback are tested here
too.
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamsketch import InstantMergeSketch, SiameseSketch, SketchConfig, _kernel, hashing
from siamsketch.sketch import (
    _UNIT, LEGAL_GROUP_STATES, PAIR_SHARED, UNSHARED_GROUP_STATES, group_code,
)

from conftest import key_bytes, kernel_unbuildable, plant_state

# Group codes holding a shared pair, and the share of a row's groups in them
# from which the kernel counts an 8-bit row with its pair-word loop.
SHARED_PAIR_CODES = [c for c in range(11) if 1 in (_UNIT[2 * c], _UNIT[2 * c + 1])]
PAIR_LOOP_SHARE = 1 / 8


def shared_pair_share(sketch, row: int) -> float:
    return float(np.isin(np.frombuffer(sketch._states[row], dtype=np.uint8), SHARED_PAIR_CODES).mean())


def bursty_stream(rng: np.random.Generator, length: int, pool: int) -> np.ndarray:
    """Runs of one key, some as long as an attack flow's 256 packets,
    over a small key pool with a skewed choice of key."""
    keys = rng.integers(0, 1 << 64, size=pool, dtype=np.uint64)
    weights = 1.0 / np.arange(1, pool + 1)
    runs = []
    total = 0
    while total < length:
        run = int(rng.choice([1, 2, rng.integers(1, 40), rng.integers(200, 300)]))
        runs.append(np.full(run, rng.choice(keys, p=weights / weights.sum()), dtype=np.uint64))
        total += run
    return np.concatenate(runs)[:length] if runs else np.empty(0, dtype=np.uint64)


def assert_same(batched, scalar) -> None:
    assert batched._rows == scalar._rows
    assert batched._states == scalar._states
    rows = range(batched.config.rows)
    assert [batched.lsb_discard(r) for r in rows] == [scalar.lsb_discard(r) for r in rows]
    assert batched.packet_count == scalar.packet_count


@st.composite
def scenarios(draw):
    # 2, 6 and 12 bits put the slot maximum below that of the slot type, in
    # the kernel's uint8 and its uint16 loop
    bits = draw(st.sampled_from([2, 4, 6, 8, 12, 16]))
    rows = draw(st.integers(1, 3))
    cfg = SketchConfig(
        rows=rows,
        width=4 * draw(st.integers(1, 16)),
        counter_bits=bits,
        shared_bits=draw(st.sampled_from(range(0, bits, 2))),
        merge_mode=draw(st.sampled_from(["sum", "max"])),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32), min_size=rows, max_size=rows))),
    )
    return (
        draw(st.sampled_from([SiameseSketch, InstantMergeSketch])),
        cfg,
        draw(st.booleans()),  # start from a planted state
        draw(st.integers(0, 2500)),  # stream length, 0 included
        draw(st.integers(1, 40)),  # key pool
        draw(st.sampled_from([5, 64, 700])),  # chunk size
        draw(st.integers(0, 2**32)),
        draw(st.booleans()),  # encode with the scalar fallback
    )


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_encode_stream_matches_per_packet_encode(scenario):
    cls, cfg, planted, length, pool, chunk, seed, fallback = scenario
    rng = np.random.default_rng(seed)
    batched, scalar = cls(cfg), cls(cfg)
    if planted:
        plant_state(batched, np.random.default_rng(seed))
        plant_state(scalar, np.random.default_rng(seed))
    stream = bursty_stream(rng, length, pool)
    # a small chunk makes short streams cross many chunk boundaries
    with pytest.MonkeyPatch.context() as mp, kernel_unbuildable(fallback):
        mp.setattr(hashing, "ENCODE_CHUNK", chunk)
        batched.encode_stream(stream)
    for key in stream.tolist():
        scalar.encode_u64(key)
    assert_same(batched, scalar)
    probe = np.unique(stream).tolist() + rng.integers(0, 1 << 64, size=20, dtype=np.uint64).tolist()
    assert batched.query_many(probe) == [scalar.query_u64(k) for k in probe]


@pytest.mark.parametrize("bits", [2, 4, 6, 8, 12, 16])
def test_kernel_matches_encode_from_planted_states_at_every_width(bits):
    # a sweep, not a draw: every even shared_bits in both merge modes, from
    # states planted at and next to every limit. A first pass sends one
    # packet to nearly every planted slot before bursts move the states on,
    # so a kernel defect confined to one width or one slot type fails here
    # on every run.
    if _kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be compared")
    for shared in range(0, bits, 2):
        for mode in ("sum", "max"):
            cfg = SketchConfig(
                rows=2, width=64, counter_bits=bits, shared_bits=shared, merge_mode=mode,
                seeds=(bits, shared + 1),
            )
            rng = np.random.default_rng(100 * bits + shared)
            pool = rng.integers(0, 1 << 64, size=256, dtype=np.uint64)
            stream = np.concatenate([pool, bursty_stream(rng, 1500, 40)])
            kernel, scalar = SiameseSketch(cfg), SiameseSketch(cfg)
            plant_state(kernel, np.random.default_rng(bits + shared))
            plant_state(scalar, np.random.default_rng(bits + shared))
            kernel.encode_stream(stream)
            for key in stream.tolist():
                scalar.encode_u64(key)
            assert_same(kernel, scalar)


def plant_shared_pairs(sketch, rng: np.random.Generator, count: int) -> None:
    """``plant_state``, then exactly ``count`` groups of each row in a code
    with a shared pair and every other group in a legal code without one."""
    plant_state(sketch, rng)
    legal = LEGAL_GROUP_STATES if sketch.config.shared_bits else UNSHARED_GROUP_STATES
    others = sorted(legal - set(SHARED_PAIR_CODES))
    groups = sketch.config.width // 4
    for r in range(sketch.config.rows):
        chosen = set(rng.choice(groups, size=count, replace=False).tolist())
        for g in range(groups):
            sketch._states[r][g] = int(rng.choice(SHARED_PAIR_CODES if g in chosen else others))


@pytest.mark.parametrize("bits", [2, 4, 6, 8])
def test_kernel_matches_encode_on_each_side_of_the_pair_loop_share(bits):
    # every even shared_bits in both merge modes, from rows planted with 7
    # of 64 groups in a shared-pair code (per-unit loop) and with 8, exactly
    # the 1/8 share (pair-word loop); the stream is one chunk, so the
    # planted share selects the loop for all of it
    if _kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be compared")
    for shared in range(0, bits, 2):
        for mode in ("sum", "max"):
            for planted in (7, 8) if shared else (0,):
                cfg = SketchConfig(
                    rows=2, width=256, counter_bits=bits, shared_bits=shared, merge_mode=mode,
                    seeds=(bits, planted),
                )
                rng = np.random.default_rng(1000 * bits + 10 * shared + planted)
                pool = rng.integers(0, 1 << 64, size=1024, dtype=np.uint64)
                stream = np.concatenate([pool, bursty_stream(rng, 3000, 60)])
                kernel, scalar = SiameseSketch(cfg), SiameseSketch(cfg)
                plant_shared_pairs(kernel, np.random.default_rng(planted), planted)
                plant_shared_pairs(scalar, np.random.default_rng(planted), planted)
                assert (shared_pair_share(kernel, 0) >= PAIR_LOOP_SHARE) == (planted == 8)
                kernel.encode_stream(stream)
                for key in stream.tolist():
                    scalar.encode_u64(key)
                assert_same(kernel, scalar)


@pytest.mark.parametrize("shared, mode", [(2, "max"), (4, "sum"), (4, "max"), (6, "sum")])
def test_kernel_switches_loops_between_chunks(shared, mode):
    # from an empty 8-bit sketch, heavy bursts push groups into shared
    # pairs and on into fused counters, so the share that selects the loop
    # crosses 1/8 between chunks of one encode_stream call
    if _kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be compared")
    chunk = 200
    cfg = SketchConfig(rows=2, width=64, shared_bits=shared, merge_mode=mode, seeds=(shared, 7))
    stream = bursty_stream(np.random.default_rng(shared), 4000, 40)
    kernel, scalar = SiameseSketch(cfg), SiameseSketch(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hashing, "ENCODE_CHUNK", chunk)
        kernel.encode_stream(stream)
    shares = []
    for i in range(0, len(stream), chunk):
        shares.append(shared_pair_share(scalar, 0))
        for key in stream[i : i + chunk].tolist():
            scalar.encode_u64(key)
    assert min(shares) < PAIR_LOOP_SHARE <= max(shares)
    assert_same(kernel, scalar)


@pytest.mark.parametrize("path", ["pair-word loop", "per-unit loop", "fallback"])
def test_saturated_quad_counter_drops_packets_from_row_total(path):
    # 4-bit slots: one key's group fuses up to a 16-bit quad counter, which
    # saturates at 65,535, and the 4,465 packets beyond it are counted
    # nowhere, so the sum-mode row_total + lsb_discard falls short of the
    # packets encoded. For the pair-word loop every other group holds a
    # shared pair at zero, so the row stays above its share and the quad
    # counter's packets go through the per-unit bump inside it; in a
    # 16-group row the key's group alone stays below the share.
    if path != "fallback" and _kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be compared")
    width = 16 if path == "pair-word loop" else 64
    sk = SiameseSketch(SketchConfig(rows=2, width=width, counter_bits=4, shared_bits=2, seeds=(3, 4)))
    key = 12345
    if path == "pair-word loop":
        for r in range(2):
            own = sk.slot_of(r, key_bytes(key)) >> 2
            for g in range(width // 4):
                sk._states[r][g] = group_code(PAIR_SHARED, PAIR_SHARED) if g != own else 0
            assert shared_pair_share(sk, r) >= PAIR_LOOP_SHARE
    with kernel_unbuildable(path == "fallback"):
        sk.encode_stream(np.full(70_000, key, dtype=np.uint64))
    assert sk.packet_count == 70_000
    assert sk.query_u64(key) == 65_535
    for r in range(2):
        assert sk.row_total(r) + sk.lsb_discard(r) == 65_535


@pytest.mark.parametrize("bits, shared", [(8, 4), (4, 2), (8, 0), (6, 2), (12, 6)])
def test_encode_stream_crosses_the_chunk_size(bits, shared):
    # a stream longer than one chunk, split at several points, at the real
    # chunk size; 6 and 12 bits fill slots below the maximum of their type
    rng = np.random.default_rng(bits + shared)
    stream = bursty_stream(rng, hashing.ENCODE_CHUNK + 3000, 30)
    cfg = SketchConfig(rows=2, width=16, counter_bits=bits, shared_bits=shared, seeds=(5, 6))
    scalar = SiameseSketch(cfg)
    for key in stream.tolist():
        scalar.encode_u64(key)
    for fallback in (False, True):
        whole, pieces = SiameseSketch(cfg), SiameseSketch(cfg)
        with kernel_unbuildable(fallback):
            whole.encode_stream(stream)
            for cut in np.split(stream, [1, 1000, hashing.ENCODE_CHUNK - 7]):
                pieces.encode_stream(cut)
        assert_same(whole, scalar)
        assert_same(pieces, scalar)


def test_empty_stream_changes_nothing():
    cfg = SketchConfig(rows=2, width=8, seeds=(1, 2))
    sk, fresh = SiameseSketch(cfg), SiameseSketch(cfg)
    sk.encode_stream(np.empty(0, dtype=np.uint64))
    sk.encode_stream([])
    assert_same(sk, fresh)


def test_unbuildable_kernel_warns_once_and_falls_back():
    cfg = SketchConfig(rows=2, width=16, counter_bits=4, shared_bits=2, seeds=(5, 6))
    stream = np.arange(3 * 700, dtype=np.uint64) % 50
    with pytest.MonkeyPatch.context() as mp, kernel_unbuildable() as caught:
        mp.setattr(hashing, "ENCODE_CHUNK", 700)
        for _ in range(2):
            SiameseSketch(cfg).encode_stream(stream)
        assert _kernel.load() is None
    warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(warned) == 1
    assert "no C encode kernel" in str(warned[0].message)


def test_kernel_builds_where_the_compiler_is_on_the_path():
    # a kernel that does not compile would leave every differential test
    # above comparing the scalar fallback with itself
    if shutil.which(_kernel.compile_command()[0]) is None:
        pytest.skip("no C compiler on PATH")
    _kernel.load.cache_clear()
    assert _kernel.load() is not None


def test_second_load_reuses_the_cached_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.load.cache_clear()
    try:
        if _kernel.load() is None:
            pytest.skip("no working C compiler")
        built = list((tmp_path / "siamsketch").iterdir())
        assert [p.suffix for p in built] == [".so"]

        def compiler_ran(*args, **kwargs):
            raise AssertionError("the compiler ran again")

        monkeypatch.setattr(_kernel.subprocess, "run", compiler_ran)
        _kernel.load.cache_clear()
        assert _kernel.load() is not None
        assert list((tmp_path / "siamsketch").iterdir()) == built
    finally:
        _kernel.load.cache_clear()


def test_library_name_follows_source_and_command(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    source = _kernel.SOURCE.read_bytes()
    command = _kernel.compile_command()
    path = _kernel.library_path(source, command)
    assert path.parent == tmp_path / "siamsketch"
    assert _kernel.library_path(source, command) == path
    assert _kernel.library_path(source + b"\n", command) != path
    assert _kernel.library_path(source, [*command, "-g"]) != path
