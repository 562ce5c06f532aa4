"""Shared test helpers: key engineering and small stream builders."""

from __future__ import annotations

import os
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from siamsketch import SketchConfig, SiameseSketch, _kernel
from siamsketch.hashing import place_u64, seed_state
from siamsketch.sketch import LEGAL_GROUP_STATES, UNSHARED_GROUP_STATES


def slot_of(sketch, row: int, key: int) -> int:
    """The slot of flow id ``key`` in one row of ``sketch``."""
    cfg = sketch.config
    return place_u64(key, seed_state(cfg.seeds[row]), cfg.width)


def keys_for_slots(sketch, row: int, wanted: list[int], limit: int = 500_000) -> list[int]:
    """Find integer keys hashing to the given slots of one row, in order."""
    found: dict[int, int] = {}
    k = 0
    while len(found) < len(set(wanted)) and k < limit:
        slot = slot_of(sketch, row, k)
        if slot in wanted and slot not in found:
            found[slot] = k
        k += 1
    if len(found) < len(set(wanted)):
        raise RuntimeError("key search exhausted")
    return [found[s] for s in wanted]


def collision_free_keys(sketch, count: int, rng: np.random.Generator) -> list[int]:
    """Keys whose 4-slot groups are disjoint in every row, so sum-mode
    estimates stay exact through every lifecycle level."""
    rows = sketch.config.rows
    taken: list[set[int]] = [set() for _ in range(rows)]
    keys: list[int] = []
    attempts = 0
    while len(keys) < count:
        attempts += 1
        if attempts > 100_000:
            raise RuntimeError("could not find enough collision-free keys")
        k = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        groups = [slot_of(sketch, r, k) >> 2 for r in range(rows)]
        if any(g in taken[r] for r, g in enumerate(groups)):
            continue
        for r, g in enumerate(groups):
            taken[r].add(g)
        keys.append(k)
    return keys


def plant_state(sketch, rng: np.random.Generator) -> None:
    """Give every group a random state code its scheme can reach and every
    slot a random value, drawn mostly at or next to the slot maximum so that
    the next packets cross counter limits at every level."""
    cfg = sketch.config
    legal = sorted(LEGAL_GROUP_STATES if cfg.shared_bits else UNSHARED_GROUP_STATES)
    top = (1 << cfg.counter_bits) - 1
    for r in range(cfg.rows):
        for g in range(cfg.width // 4):
            sketch._states[r][g] = int(rng.choice(legal))
        for i in range(cfg.width):
            sketch._rows[r][i] = int(rng.choice([0, top, top, top - 1, rng.integers(0, top + 1)]))


@contextmanager
def kernel_unbuildable(active: bool = True):
    """Make the kernel library's loader fail inside the block, as it does on
    a machine with no compiler, so that placement and encode both take their
    scalar fallbacks: an empty library cache and a compiler that does not
    exist. Yields the warnings raised in the block. With ``active`` false the
    library loads as usual."""
    with (
        pytest.MonkeyPatch.context() as mp,
        tempfile.TemporaryDirectory() as cache,
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        if active:
            mp.setenv("XDG_CACHE_HOME", cache)
            mp.setattr(_kernel, "compile_command", lambda: [os.path.join(cache, "no-cc")])
        _kernel.load.cache_clear()
        try:
            yield caught
        finally:
            _kernel.load.cache_clear()


@pytest.fixture
def adjacent_pair_sketch():
    """A 1x4 sum-mode sketch plus two keys landing in slots 0 and 1."""
    cfg = SketchConfig(rows=1, width=4, shared_bits=4, merge_mode="sum", seeds=(42,))
    sketch = SiameseSketch(cfg)
    k0, k1 = keys_for_slots(sketch, 0, [0, 1])
    return sketch, k0, k1
