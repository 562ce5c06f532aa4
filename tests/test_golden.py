"""Golden digests of the dynamic engine's state machine.

The differential tests compare the batched encode with ``_encode``, so a
change made the same way to both goes unseen there, and the independent
reference model covers ``shared_bits=0`` only. These digests pin what the
engine leaves after one fixed bursty stream: the snapshot bytes and the query
answers over the stream's keys, from an empty and from a planted start, for
both schemes, both merge modes and five counter shapes, and at 12 bits, a
slot maximum below that of the 16-bit slot type, for sc-lsb 12/6 and
instant 12/0. Per-packet
``encode_u64`` and batched ``encode_stream`` must both reproduce them. The
constants were recorded once from this engine; a change to any transition
rule moves them.
"""

import functools
import hashlib

import numpy as np
import pytest

from siamsketch import InstantMergeSketch, SiameseSketch, SketchConfig
from siamsketch.snapshot import dump_bytes

from conftest import plant_state
from test_batched import bursty_stream

# (scheme, counter_bits, shared_bits, merge_mode) -> leading 16 hex digits
# of the sha256 over both starts' snapshot bytes and query answers.
GOLDEN = {
    ("sc-lsb", 4, 2, "sum"): "494885e2b5c15e05",
    ("sc-lsb", 4, 2, "max"): "87d02dc350b20adc",
    ("sc-lsb", 8, 0, "sum"): "b6504686978a7efb",
    ("sc-lsb", 8, 0, "max"): "82e3702d8b52ad47",
    ("sc-lsb", 8, 4, "sum"): "83b427a62a8afa6c",
    ("sc-lsb", 8, 4, "max"): "4594c47546484065",
    ("sc-lsb", 8, 6, "sum"): "2506114caff5eec8",
    ("sc-lsb", 8, 6, "max"): "ddd226a2da903f89",
    ("sc-lsb", 12, 6, "sum"): "d622ced4878eab6c",
    ("sc-lsb", 12, 6, "max"): "665739154cff0dda",
    ("sc-lsb", 16, 8, "sum"): "f81d00a13745a96b",
    ("sc-lsb", 16, 8, "max"): "27e3dde9750eb9e3",
    ("instant", 4, 2, "sum"): "c2b8e7ad5904a8aa",
    ("instant", 4, 2, "max"): "f0090ef5cd3d109f",
    ("instant", 8, 0, "sum"): "9779afc3c1b2f507",
    ("instant", 8, 0, "max"): "14a7b3a96187393d",
    ("instant", 8, 4, "sum"): "9779afc3c1b2f507",
    ("instant", 8, 4, "max"): "14a7b3a96187393d",
    ("instant", 8, 6, "sum"): "9779afc3c1b2f507",
    ("instant", 8, 6, "max"): "14a7b3a96187393d",
    ("instant", 12, 0, "sum"): "ee385c5c76709214",
    ("instant", 12, 0, "max"): "5623285893612a27",
    ("instant", 16, 8, "sum"): "c80bfaed6566bb2f",
    ("instant", 16, 8, "max"): "c582f638725f818b",
}

SCHEMES = {"sc-lsb": SiameseSketch, "instant": InstantMergeSketch}


@functools.cache
def stream() -> np.ndarray:
    return bursty_stream(np.random.default_rng(2024), 30_000, 24)


def per_packet(sketch, keys: np.ndarray) -> None:
    for key in keys.tolist():
        sketch.encode_u64(key)


def batched(sketch, keys: np.ndarray) -> None:
    sketch.encode_stream(keys)


def digest(scheme: str, bits: int, shared: int, mode: str, encode) -> str:
    keys = stream()
    pool = np.unique(keys)
    h = hashlib.sha256()
    for planted in (False, True):
        cfg = SketchConfig(
            rows=2,
            width=64,
            counter_bits=bits,
            shared_bits=shared,
            merge_mode=mode,
            seeds=(11, 12),
        )
        sketch = SCHEMES[scheme](cfg)
        if planted:
            plant_state(sketch, np.random.default_rng(7))
        encode(sketch, keys)
        h.update(dump_bytes(sketch))
        h.update(repr(sketch.query_many(pool)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("encode", [per_packet, batched], ids=lambda f: f.__name__)
def test_state_machine_matches_golden_digest(case, encode):
    assert digest(*case, encode) == GOLDEN[case]
