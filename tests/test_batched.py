"""The batched paths against the scalar state machine, which is the spec.

``encode_stream`` places each chunk with the kernel library's ``place`` and
counts it with its ``encode_row``, a port of ``_encode``, or, where the
library cannot be built, with the scalar ``mix64`` and ``_encode`` itself;
``query_many`` reads decoded-row tables. The kernel counts a chunk of a row
in one of three regimes: with its code-0 fast path when fewer than 1/10 of
the row's groups have left code 0, else, for an 8-bit row, with its
pair-word loop when at least 1/8 of the groups hold a shared pair, else with
its per-unit loop. The tests below plant rows on each side of both shares
and cross each within one stream. Both
encode paths and the query must leave and report exactly what per-packet
``encode_u64`` and per-key ``query_u64`` do, in every group state and at
every counter width. The kernel's build, cache and fallback, and the calls
of its entry points, are tested here too.
"""

import ast
import re
import shutil
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamsketch import InstantMergeSketch, SiameseSketch, SketchConfig, _kernel, hashing
from siamsketch.sketch import _UNIT, LEGAL_GROUP_STATES, UNSHARED_GROUP_STATES

from conftest import kernel_unbuildable, plant_state, slot_of
from reference_impls import GROUP_MERGED_WIDE, PAIR_MERGED, PAIR_SHARED, group_code

# Group codes holding a shared pair, and the share of a row's groups in them
# from which the kernel counts an 8-bit row with its pair-word loop.
SHARED_PAIR_CODES = [c for c in range(11) if 1 in (_UNIT[2 * c], _UNIT[2 * c + 1])]
PAIR_LOOP_SHARE = 1 / 8
# The share of a row's groups out of code 0 below which the kernel counts a
# row with its code-0 fast path.
FAST_PATH_SHARE = 1 / 10


def shared_pair_share(sketch, row: int) -> float:
    return float(np.isin(np.frombuffer(sketch._states[row], dtype=np.uint8), SHARED_PAIR_CODES).mean())


def moved_share(sketch, row: int) -> float:
    return float((np.frombuffer(sketch._states[row], dtype=np.uint8) != 0).mean())


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
    # on every run. The rows it leaves, in every group state, must then
    # decode slot by slot as _decode does, with the kernel's decode_row and
    # with the fallback; at 16 bits a quad counter planted above 2**63
    # fills the top bit of the decoded table.
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
            for sk in (kernel, scalar):
                plant_state(sk, np.random.default_rng(bits + shared))
                if bits == 16:
                    sk._states[0][0] = GROUP_MERGED_WIDE
                    sk._rows[0][0:4] = array("H", [1, 2, 3, 0x8000])
            kernel.encode_stream(stream)
            for key in stream.tolist():
                scalar.encode_u64(key)
            assert_same(kernel, scalar)
            expected = [[kernel._decode(r, s) for s in range(cfg.width)] for r in range(cfg.rows)]
            assert (max(max(row) for row in expected) >= 1 << 63) == (bits == 16)
            for fallback in (False, True):
                with kernel_unbuildable(fallback):
                    for r in range(cfg.rows):
                        decoded = kernel._decode_row(r)
                        assert decoded.dtype == np.uint64
                        assert decoded.tolist() == expected[r]


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


def plant_moved_groups(sketch, rng: np.random.Generator, count: int) -> None:
    """``plant_state``, then exactly ``count`` groups of each row out of code
    0, in every legal code by turns (from a different code in each row), and
    every other group in code 0 with each slot at the slot maximum or one
    below it, where the code-0 fast path falls through or counts once
    before it does."""
    plant_state(sketch, rng)
    legal = LEGAL_GROUP_STATES if sketch.config.shared_bits else UNSHARED_GROUP_STATES
    codes = sorted(legal - {0})
    top = (1 << sketch.config.counter_bits) - 1
    groups = sketch.config.width // 4
    for r in range(sketch.config.rows):
        chosen = rng.choice(groups, size=count, replace=False).tolist()
        moved = {g: codes[(turn + r) % len(codes)] for turn, g in enumerate(chosen)}
        for g in range(groups):
            sketch._states[r][g] = moved.get(g, 0)
            if g not in moved:
                for i in range(4 * g, 4 * g + 4):
                    sketch._rows[r][i] = top - int(rng.integers(0, 2))


@pytest.mark.parametrize("bits", [2, 4, 6, 8, 12, 16])
def test_kernel_matches_encode_on_each_side_of_the_fast_path_share(bits):
    # every even shared_bits in both merge modes, from rows planted with 9
    # of 100 groups out of code 0 (code-0 fast path) and with 10, exactly
    # the 1/10 share (the loops above); the stream is one chunk, so the
    # planted share selects the loop for all of it. Code-0 slots start at
    # the slot maximum or one below it, so packets that fall through share
    # and fuse inside the fast path's chunk.
    if _kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be compared")
    for shared in range(0, bits, 2):
        for mode in ("sum", "max"):
            for planted in (9, 10):
                cfg = SketchConfig(
                    rows=2, width=400, counter_bits=bits, shared_bits=shared, merge_mode=mode,
                    seeds=(bits, planted),
                )
                rng = np.random.default_rng(1000 * bits + 10 * shared + planted)
                pool = rng.integers(0, 1 << 64, size=1600, dtype=np.uint64)
                stream = np.concatenate([pool, bursty_stream(rng, 3000, 60)])
                kernel, scalar = SiameseSketch(cfg), SiameseSketch(cfg)
                plant_moved_groups(kernel, np.random.default_rng(planted), planted)
                plant_moved_groups(scalar, np.random.default_rng(planted), planted)
                assert (moved_share(kernel, 0) < FAST_PATH_SHARE) == (planted == 9)
                kernel.encode_stream(stream)
                for key in stream.tolist():
                    scalar.encode_u64(key)
                assert_same(kernel, scalar)


@pytest.mark.parametrize("bits, shared, mode", [(2, 0, "sum"), (4, 2, "max"), (8, 4, "sum"),
                                                (8, 0, "max"), (12, 6, "sum")])
def test_kernel_leaves_the_fast_path_between_chunks(bits, shared, mode):
    # from an empty sketch, where every chunk starts in the fast path, runs
    # of more packets than a slot holds push groups out of code 0, so the
    # share that selects the fast path crosses 1/10 between chunks of one
    # encode_stream call
    if _kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be compared")
    chunk = 200
    cfg = SketchConfig(rows=2, width=64, counter_bits=bits, shared_bits=shared, merge_mode=mode,
                       seeds=(bits, shared + 11))
    rng = np.random.default_rng(bits + shared)
    heavy = rng.integers(0, 1 << 64, size=4, dtype=np.uint64)
    stream = np.concatenate([bursty_stream(rng, 600, 40)] + [
        np.concatenate([np.full((1 << bits) + 1, key, dtype=np.uint64), bursty_stream(rng, 300, 40)])
        for key in heavy
    ])
    kernel, scalar = SiameseSketch(cfg), SiameseSketch(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hashing, "ENCODE_CHUNK", chunk)
        kernel.encode_stream(stream)
    shares = []
    for i in range(0, len(stream), chunk):
        shares.append(moved_share(scalar, 0))
        for key in stream[i : i + chunk].tolist():
            scalar.encode_u64(key)
    assert shares[0] == 0 and max(shares) >= FAST_PATH_SHARE
    assert_same(kernel, scalar)


def test_kernel_matches_encode_where_a_sum_fuse_meets_a_sibling_pair_at_one():
    # a 4-bit instant row in sum mode: one packet each to slots 2 and 3,
    # then 300 to slot 0, whose counter outgrows its pair after the sibling
    # pair (1, 1) is fused up to it; the quad reads 302 in every slot. A
    # fuse that adds 1 where both prefixes are 1 reads 303, and neither the
    # hypothesis streams nor the planted states above reach this state.
    if _kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be compared")
    cfg = SketchConfig(rows=1, width=4, counter_bits=4, shared_bits=0, merge_mode="sum", seeds=(1,))
    kernel, scalar = InstantMergeSketch(cfg), InstantMergeSketch(cfg)
    slots = [2, 3] + [0] * 300
    kernel._encode_batch(0, np.array(slots, dtype=np.int64))
    for slot in slots:
        scalar._encode(0, slot)
    assert_same(kernel, scalar)
    assert kernel._decode_row(0).tolist() == [scalar._decode(0, s) for s in range(4)] == [302] * 4


@pytest.mark.parametrize("path", ["pair-word loop", "per-unit loop", "fallback", "code-0 fast path"])
def test_saturated_quad_counter_drops_packets_from_row_total(path):
    # 4-bit slots: one key's group fuses up to a 16-bit quad counter, which
    # saturates at 65,535, and the 4,465 packets beyond it are counted
    # nowhere, so the sum-mode row_total + lsb_discard falls short of the
    # packets encoded. For the pair-word loop every other group holds a
    # shared pair at zero, so the row stays above its share and the quad
    # counter's packets go through the per-unit bump inside it; in a
    # 16-group row the key's group alone stays below the share. For the
    # per-unit loop every other group is two fused pairs at zero, so the
    # row stays above the fast path's share; the fast path counts a row
    # where only the key's group leaves code 0.
    if path != "fallback" and _kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be compared")
    width = 16 if path == "pair-word loop" else 64
    sk = SiameseSketch(SketchConfig(rows=2, width=width, counter_bits=4, shared_bits=2, seeds=(3, 4)))
    key = 12345
    if path in ("pair-word loop", "per-unit loop"):
        pair = PAIR_SHARED if path == "pair-word loop" else PAIR_MERGED
        for r in range(2):
            own = slot_of(sk, r, key) >> 2
            for g in range(width // 4):
                sk._states[r][g] = group_code(pair, pair) if g != own else 0
            assert (shared_pair_share(sk, r) >= PAIR_LOOP_SHARE) == (path == "pair-word loop")
            assert moved_share(sk, r) >= FAST_PATH_SHARE
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


def test_source_with_a_type_ctypes_is_not_given_builds_nothing(tmp_path, monkeypatch):
    source, cache = tmp_path / "bad.c", tmp_path / "cache"
    source.write_text("void f(double x) {}\n")
    cache.mkdir()
    monkeypatch.setattr(_kernel, "SOURCE", source)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))

    def compiler_ran(*args, **kwargs):
        raise AssertionError("the compiler ran")

    monkeypatch.setattr(_kernel.subprocess, "run", compiler_ran)
    _kernel.load.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _kernel.load() is None
            assert _kernel.load() is None
    finally:
        _kernel.load.cache_clear()
    warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(warned) == 1
    assert "void f(double x)" in warned[0]
    assert not any(cache.iterdir())


def test_every_kernel_call_passes_its_entry_points_arguments():
    # ctypes passes surplus arguments without a word, so only a check of the
    # calls' source catches one that lacks a parameter added in C. It reads
    # the source alone and runs without a compiler too.
    declared = _kernel.entry_points(_kernel.SOURCE.read_text())
    called = {"src": set(), "tests": set()}
    for tree, files in (("src", Path(_kernel.__file__).parent), ("tests", Path(__file__).parent)):
        for path in sorted(files.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "lib"
                ):
                    continue
                where, name = f"{path.name}:{node.lineno}", node.func.attr
                assert name in declared, f"{where}: {name} is no entry point"
                assert not node.keywords and not any(isinstance(a, ast.Starred) for a in node.args)
                assert len(node.args) == len(declared[name][0]), f"{where}: {name}"
                called[tree].add(name)
    assert called["src"] == set(declared)
    assert {"guide_search", "interleave"} <= called["tests"]


def test_kernel_unit_table_is_the_sketchs():
    # the kernel and the specification each hold the unit table; an entry
    # that differs would make the two count different counters. It reads the
    # source alone and runs without a compiler too.
    table = re.search(r"\bUNIT\[22\] = \{([^}]*)\}", _kernel.SOURCE.read_text())
    assert table is not None
    assert tuple(int(v) for v in table.group(1).split(",")) == _UNIT


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
