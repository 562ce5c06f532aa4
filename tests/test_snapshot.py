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
from siamsketch.snapshot import (
    SnapshotError,
    dump_bytes,
    load_bytes,
    load_sketch,
    save_sketch,
)


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
    save_sketch(path, sk)
    back = load_sketch(path)
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
    save_sketch(path, cm)
    back = load_sketch(path)
    assert type(back) is CountMinSketch
    assert back.config == cm.config
    assert back._rows == cm._rows


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
    raw = bytearray(dump_bytes(_driven(SiameseSketch)))
    raw[4] = 99
    with pytest.raises(SnapshotError) as err:
        load_bytes(bytes(raw))
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


def test_illegal_state_code_rejected():
    sk = _driven(SiameseSketch)
    sk._states[0][0] = 13  # never legal
    with pytest.raises(SnapshotError) as err:
        load_bytes(dump_bytes(sk))
    assert err.value.code == "bad-state"


def test_header_too_short():
    with pytest.raises(SnapshotError) as err:
        load_bytes(b"SK")
    assert err.value.code == "bad-header"


def test_unsupported_type():
    with pytest.raises(TypeError):
        dump_bytes(object())


# Header byte offsets (see the layout in siamsketch.snapshot).
_COUNTER_BITS_AT = 12
_SHARED_BITS_AT = 13
_MERGE_MODE_AT = 14


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
    [(_SHARED_BITS_AT, 3), (_SHARED_BITS_AT, 8), (_COUNTER_BITS_AT, 17), (_MERGE_MODE_AT, 7)],
)
def test_header_config_errors_are_typed(offset, value):
    raw = _patched(dump_bytes(_driven(SiameseSketch)), offset, value)
    with pytest.raises(SnapshotError) as err:
        load_bytes(raw)
    assert err.value.code == "bad-config"


def test_count_min_counter_bits_checked():
    cm = CountMinSketch(CountMinConfig(rows=2, width=37, seeds=(9, 10)))
    raw = _patched(dump_bytes(cm), _COUNTER_BITS_AT, 8)
    with pytest.raises(SnapshotError) as err:
        load_bytes(raw)
    assert err.value.code == "bad-config"
