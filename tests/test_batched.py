"""The batched paths against the scalar state machine, which is the spec.

``encode_stream`` places each chunk with the kernel library's ``place`` and
counts it with its ``encode_row``, a port of ``_encode``, or, where the
library cannot be built, with the scalar ``mix64`` and ``_encode`` itself;
``query_many`` reads decoded-row tables. Both
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

from conftest import kernel_unbuildable, plant_state


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
