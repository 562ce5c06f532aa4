import struct
import tracemalloc

import numpy as np
import pytest

from siamsketch import (
    CountMinConfig,
    CountMinSketch,
    InstantMergeSketch,
    SiameseSketch,
    SketchConfig,
    gen_zipf,
    ZipfConfig,
)
from siamsketch.snapshot import SnapshotError, dump_bytes, load_bytes


def _driven(cls, **cfg_kwargs):
    kwargs = {"rows": 2, "width": 16, "shared_bits": 4, "seeds": (3, 4), **cfg_kwargs}
    cfg = SketchConfig(**kwargs)
    sk = cls(cfg)
    sk.encode_stream(gen_zipf(ZipfConfig(skew=1.0, flows=30, packets=20_000, seed=1)).as_u64())
    return sk


@pytest.mark.parametrize("cls", [SiameseSketch, InstantMergeSketch])
def test_round_trip_dynamic(cls, tmp_path):
    sk = _driven(cls)
    path = tmp_path / "s.bin"
    path.write_bytes(dump_bytes(sk))
    back = load_bytes(path.read_bytes())
    assert type(back) is cls
    if cls is InstantMergeSketch:
        # shared_bits is not part of the instant scheme's surface; the
        # snapshot normalizes it to 0
        assert back.config == SketchConfig(
            rows=sk.config.rows,
            width=sk.config.width,
            counter_bits=sk.config.counter_bits,
            shared_bits=0,
            merge_mode=sk.config.merge_mode,
            seeds=sk.config.seeds,
        )
    else:
        assert back.config == sk.config
    assert back._rows == sk._rows
    assert back._states == sk._states
    assert dump_bytes(back) == dump_bytes(sk)
    rng = np.random.default_rng(0)
    for k in rng.integers(0, 1 << 64, size=50, dtype=np.uint64).tolist():
        assert back.query_u64(k) == sk.query_u64(k)
    assert back.counter_count() == sk.counter_count()


def test_round_trip_count_min(tmp_path):
    cm = CountMinSketch(CountMinConfig(rows=2, width=37, seeds=(9, 10)))
    cm.encode_stream(np.arange(5000, dtype=np.uint64) % 11)
    path = tmp_path / "cm.bin"
    path.write_bytes(dump_bytes(cm))
    back = load_bytes(path.read_bytes())
    assert type(back) is CountMinSketch
    assert back.config == cm.config
    assert back._rows == cm._rows
    assert back.packet_count == cm.packet_count == 5000



def test_round_trip_keeps_packets_and_discards():
    # a version 2 snapshot carries the diagnostics, so the sum-mode total
    # invariant can be checked on the loaded sketch
    sk = _driven(SiameseSketch)
    rows = range(sk.config.rows)
    assert all(sk.lsb_discard(r) > 0 for r in rows)
    back = load_bytes(dump_bytes(sk))
    assert back.packet_count == sk.packet_count == 20_000
    assert [back.lsb_discard(r) for r in rows] == [sk.lsb_discard(r) for r in rows]
    for r in rows:
        assert back.row_total(r) + back.lsb_discard(r) == back.packet_count
    raw = dump_bytes(sk)
    counts_end = _SEEDS_AT + 8 * sk.config.rows + 8 * (1 + sk.config.rows)
    with pytest.raises(SnapshotError) as err:
        load_bytes(raw[: counts_end - 3])
    assert err.value.code == "truncated"


def test_round_trip_max_mode_and_k0():
    for kwargs in (dict(merge_mode="max"), dict(shared_bits=0)):
        sk = _driven(SiameseSketch, **kwargs)
        assert load_bytes(dump_bytes(sk)).config == sk.config


def test_round_trip_wide_counter_bits():
    cfg = SketchConfig(rows=1, width=8, counter_bits=12, shared_bits=4, seeds=(1,))
    sk = SiameseSketch(cfg)
    sk.encode_stream(np.zeros(9000, dtype=np.uint64))
    back = load_bytes(dump_bytes(sk))
    assert back._rows == sk._rows and back._states == sk._states


def test_bad_magic():
    with pytest.raises(SnapshotError) as err:
        load_bytes(b"XXXX" + bytes(12))
    assert err.value.code == "bad-magic"


def test_bad_version():
    # version 1 had no packet or discard counts: a v1 sketch would load with
    # both at 0 and fail row_total + lsb_discard == packets, so it is refused,
    # in its own layout and in today's
    sk = _driven(SiameseSketch)
    raw = dump_bytes(sk)
    counts_at = _SEEDS_AT + 8 * sk.config.rows
    v1 = raw[:counts_at] + raw[counts_at + 8 * (1 + sk.config.rows) :]
    for version, body in ((99, raw), (1, raw), (1, v1)):
        with pytest.raises(SnapshotError) as err:
            load_bytes(_patched(body, _VERSION_AT, version))
        assert err.value.code == "bad-version"


def test_truncated_body():
    raw = dump_bytes(_driven(SiameseSketch))
    with pytest.raises(SnapshotError) as err:
        load_bytes(raw[:-5])
    assert err.value.code == "truncated"


def test_trailing_bytes():
    raw = dump_bytes(_driven(SiameseSketch))
    with pytest.raises(SnapshotError) as err:
        load_bytes(raw + b"\x00")
    assert err.value.code == "trailing-bytes"


@pytest.mark.parametrize("magic", [b"SKSC", b"SKIM", b"SKCM"])
def test_short_body_rejected_before_allocating(magic):
    # a 272-byte snapshot whose header claims 4 rows of 2**24 slots is
    # rejected from its length, without building the sketch it describes
    bits, shared = {b"SKSC": (8, 4), b"SKIM": (8, 0), b"SKCM": (32, 0)}[magic]
    header = struct.pack("<4sHHIBBBB", magic, 2, 4, 1 << 24, bits, shared, 0, 0)
    raw = header + bytes(272 - len(header))
    tracemalloc.start()
    try:
        with pytest.raises(SnapshotError) as err:
            load_bytes(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == "truncated"
    assert peak < 1 << 20


def test_count_min_body_length_errors_are_typed():
    raw = dump_bytes(CountMinSketch(CountMinConfig(rows=2, width=37, seeds=(9, 10))))
    for cut, code in ((raw[:-1], "truncated"), (raw + bytes(3), "trailing-bytes")):
        with pytest.raises(SnapshotError) as err:
            load_bytes(cut)
        assert err.value.code == code


def test_illegal_state_code_rejected():
    sk = _driven(SiameseSketch)
    sk._states[0][0] = 13  # never legal
    with pytest.raises(SnapshotError) as err:
        load_bytes(dump_bytes(sk))
    assert err.value.code == "bad-state"


@pytest.mark.parametrize("counter_bits, value", [(4, 200), (4, 16), (12, 4096)])
def test_slot_above_counter_range_rejected(counter_bits, value):
    # a slot holds at most counter_bits bits; a larger value would decode as
    # a count the counter can never reach
    sk = SiameseSketch(SketchConfig(rows=1, width=8, counter_bits=counter_bits, shared_bits=2))
    sk._rows[0][0] = value
    with pytest.raises(SnapshotError) as err:
        load_bytes(dump_bytes(sk))
    assert err.value.code == "bad-state"
    sk._rows[0][0] = (1 << counter_bits) - 1
    assert load_bytes(dump_bytes(sk))._rows == sk._rows


def test_header_too_short():
    with pytest.raises(SnapshotError) as err:
        load_bytes(b"SK")
    assert err.value.code == "bad-header"


def test_unsupported_type():
    with pytest.raises(TypeError):
        dump_bytes(object())


# Header byte offsets (see the layout in siamsketch.snapshot).
_VERSION_AT = 4
_COUNTER_BITS_AT = 12
_SHARED_BITS_AT = 13
_MERGE_MODE_AT = 14
_RESERVED_AT = 15
_SEEDS_AT = 16


def _patched(raw: bytes, offset: int, value: int) -> bytes:
    out = bytearray(raw)
    out[offset] = value
    return bytes(out)


@pytest.mark.parametrize("cls", [SiameseSketch, InstantMergeSketch])
@pytest.mark.parametrize("code", [1, 7, 9])
def test_shared_codes_rejected_without_sharing(cls, code):
    # a shared pair (codes 1, 7) or a shared wide group (9) cannot occur at
    # shared_bits=0; code 1 in two groups is the state byte 0x11
    sk = _driven(cls, shared_bits=0)
    sk._states[0][0] = code
    sk._states[0][1] = code
    with pytest.raises(SnapshotError) as err:
        load_bytes(dump_bytes(sk))
    assert err.value.code == "bad-state"


def test_instant_header_with_shared_bits_rejected():
    raw = _patched(dump_bytes(_driven(InstantMergeSketch)), _SHARED_BITS_AT, 4)
    with pytest.raises(SnapshotError) as err:
        load_bytes(raw)
    assert err.value.code == "bad-config"


@pytest.mark.parametrize(
    "offset, value",
    [
        (_SHARED_BITS_AT, 3),
        (_SHARED_BITS_AT, 8),
        (_COUNTER_BITS_AT, 17),
        (_MERGE_MODE_AT, 7),
        (_RESERVED_AT, 9),
    ],
)
def test_header_config_errors_are_typed(offset, value):
    # a nonzero reserved byte once loaded, and re-dumped as 0
    raw = _patched(dump_bytes(_driven(SiameseSketch)), offset, value)
    with pytest.raises(SnapshotError) as err:
        load_bytes(raw)
    assert err.value.code == ("bad-header" if offset == _RESERVED_AT else "bad-config")


def test_count_min_counter_bits_checked():
    # a Count-Min header holds counter_bits 32 and zero shared_bits, merge
    # mode and reserved byte; the last three were once loaded and re-dumped
    # as 0
    cm = CountMinSketch(CountMinConfig(rows=2, width=37, seeds=(9, 10)))
    for offset, value, code in [
        (_COUNTER_BITS_AT, 8, "bad-config"),
        (_SHARED_BITS_AT, 5, "bad-config"),
        (_MERGE_MODE_AT, 3, "bad-config"),
        (_RESERVED_AT, 7, "bad-header"),
    ]:
        with pytest.raises(SnapshotError) as err:
            load_bytes(_patched(dump_bytes(cm), offset, value))
        assert err.value.code == code


def test_round_trip_at_the_widest_header_fields():
    # the largest seed a u64 holds, and the most rows a u16 holds
    sk = SiameseSketch(SketchConfig(rows=2, width=8, seeds=(2**64 - 1, 0)))
    sk.encode_stream(np.arange(300, dtype=np.uint64) % 7)
    back = load_bytes(dump_bytes(sk))
    assert back.config.seeds == (2**64 - 1, 0)
    assert dump_bytes(back) == dump_bytes(sk)
    cm = CountMinSketch(CountMinConfig(rows=2**16 - 1, width=4))
    cm._rows[-1][3] = 9
    raw = dump_bytes(cm)
    back = load_bytes(raw)
    assert back.config == cm.config and back._rows[-1][3] == 9
    assert dump_bytes(back) == raw


@pytest.mark.parametrize("config", [SketchConfig, CountMinConfig])
@pytest.mark.parametrize(
    "fields",
    [dict(seeds=(-1,)), dict(seeds=(2**64,)), dict(rows=2**16), dict(width=2**32)],
    ids=["seed-below", "seed-above", "rows", "width"],
)
def test_config_refuses_a_shape_the_header_cannot_store(config, fields):
    # each of these once passed its config and then made dump_bytes raise
    # struct.error; none builds a sketch, and a refused width allocates nothing
    with pytest.raises(ValueError):
        config(**{"rows": 1, **fields})
