"""Versioned binary checkpoints of sketch state.

Layout, little-endian throughout::

    magic        4 bytes   SKSC | SKIM | SKCM (scheme tag)
    version      u16       1
    rows         u16
    width        u32       base slots per row (Count-Min: counters per row)
    counter_bits u8        base counter width (Count-Min: 32)
    shared_bits  u8        0 for schemes without sharing (SKIM, SKCM)
    merge_mode   u8        0 = sum, 1 = max (Count-Min: 0)
    reserved     u8        0
    seeds        rows * u64
    body, per row:
        counters  width * ceil(counter_bits / 8) bytes, one slot each
        states    width / 4 packed nibbles, low nibble first
                  (absent for Count-Min)

``SKSC`` and ``SKIM`` hold the same dynamic-counter engine; ``SKIM`` is that
engine at ``shared_bits == 0``, whose groups never hold a shared pair (codes
1, 3, 4, 5, 7) or code 9. A header that no config accepts, or a state code
the header's scheme cannot reach, is rejected on load.

Diagnostics that are not part of counter state (packet totals, share-time
discards) are not serialized.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .baselines import CountMinConfig, CountMinSketch, InstantMergeSketch
from .sketch import (
    LEGAL_GROUP_STATES,
    MERGE_MAX,
    MERGE_SUM,
    UNSHARED_GROUP_STATES,
    SiameseSketch,
    SketchConfig,
)

SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sHHIBBBB")

MAGIC_SIAMESE = b"SKSC"
MAGIC_INSTANT = b"SKIM"
MAGIC_COUNT_MIN = b"SKCM"

_MAGIC_OF = {
    SiameseSketch: MAGIC_SIAMESE,
    InstantMergeSketch: MAGIC_INSTANT,
    CountMinSketch: MAGIC_COUNT_MIN,
}


class SnapshotError(Exception):
    """Snapshot bytes violate the format; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _slot_dtype(counter_bits: int) -> np.dtype:
    return np.dtype("<u1") if counter_bits <= 8 else np.dtype("<u2")


def _pack_states(states: list[int]) -> bytes:
    out = bytearray((len(states) + 1) // 2)
    for j, code in enumerate(states):
        if j % 2 == 0:
            out[j // 2] = code
        else:
            out[j // 2] |= code << 4
    return bytes(out)


def _unpack_states(raw: bytes, count: int) -> list[int]:
    states = []
    for j in range(count):
        b = raw[j // 2]
        states.append(b & 0xF if j % 2 == 0 else b >> 4)
    return states


def dump_bytes(sketch) -> bytes:
    magic = _MAGIC_OF.get(type(sketch))
    if magic is None:
        raise TypeError(f"cannot snapshot {type(sketch).__name__}")
    parts = []
    if magic == MAGIC_COUNT_MIN:
        cfg = sketch.config
        parts.append(
            _HEADER.pack(magic, SNAPSHOT_VERSION, cfg.rows, cfg.width, 32, 0, 0, 0)
        )
        parts.extend(struct.pack("<Q", s) for s in cfg.seeds)
        for row in sketch._rows:
            parts.append(np.asarray(row, dtype="<u4").tobytes())
        return b"".join(parts)
    cfg = sketch.config
    mode = 0 if cfg.merge_mode == MERGE_SUM else 1
    shape = (cfg.rows, cfg.width, cfg.counter_bits, cfg.shared_bits, mode, 0)
    parts.append(_HEADER.pack(magic, SNAPSHOT_VERSION, *shape))
    parts.extend(struct.pack("<Q", s) for s in cfg.seeds)
    dtype = _slot_dtype(cfg.counter_bits)
    for row, states in zip(sketch._rows, sketch._states):
        parts.append(np.asarray(row, dtype=dtype).tobytes())
        parts.append(_pack_states(states))
    return b"".join(parts)


def load_bytes(raw: bytes):
    if len(raw) < _HEADER.size:
        raise SnapshotError("bad-header", "snapshot shorter than its header")
    magic, version, rows, width, counter_bits, shared_bits, mode, _ = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    if magic not in (MAGIC_SIAMESE, MAGIC_INSTANT, MAGIC_COUNT_MIN):
        raise SnapshotError("bad-magic", f"unknown magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError("bad-version", f"unsupported version {version}")
    off = _HEADER.size
    seeds = []
    for _ in range(rows):
        if off + 8 > len(raw):
            raise SnapshotError("truncated", "seed table truncated")
        seeds.append(struct.unpack_from("<Q", raw, off)[0])
        off += 8
    seeds = tuple(seeds)
    if magic == MAGIC_COUNT_MIN:
        if counter_bits != 32:
            raise SnapshotError("bad-config", f"Count-Min counter_bits {counter_bits}, not 32")
        sketch = CountMinSketch(_config(CountMinConfig, rows=rows, width=width, seeds=seeds))
        row_bytes = width * 4
        for r in range(rows):
            if off + row_bytes > len(raw):
                raise SnapshotError("truncated", f"row {r} truncated")
            sketch._rows[r] = (
                np.frombuffer(raw, dtype="<u4", count=width, offset=off)
                .astype(np.int64)
                .tolist()
            )
            off += row_bytes
        _expect_end(raw, off)
        return sketch
    if magic == MAGIC_INSTANT and shared_bits:
        raise SnapshotError("bad-config", f"instant-merge shared_bits {shared_bits}, not 0")
    if mode > 1:
        raise SnapshotError("bad-config", f"unknown merge_mode code {mode}")
    config = _config(
        SketchConfig,
        rows=rows,
        width=width,
        counter_bits=counter_bits,
        shared_bits=shared_bits,
        merge_mode=MERGE_SUM if mode == 0 else MERGE_MAX,
        seeds=seeds,
    )
    sketch = SiameseSketch(config) if magic == MAGIC_SIAMESE else InstantMergeSketch(config)
    legal = LEGAL_GROUP_STATES if shared_bits else UNSHARED_GROUP_STATES
    dtype = _slot_dtype(counter_bits)
    row_bytes = width * dtype.itemsize
    group_count = width // 4
    state_bytes = (group_count + 1) // 2
    for r in range(rows):
        if off + row_bytes + state_bytes > len(raw):
            raise SnapshotError("truncated", f"row {r} truncated")
        sketch._rows[r] = (
            np.frombuffer(raw, dtype=dtype, count=width, offset=off)
            .astype(np.int64)
            .tolist()
        )
        off += row_bytes
        states = _unpack_states(raw[off : off + state_bytes], group_count)
        if any(s not in legal for s in states):
            raise SnapshotError("bad-state", f"row {r} has an illegal state code")
        sketch._states[r] = states
        off += state_bytes
    _expect_end(raw, off)
    return sketch


def _config(cls, **fields):
    try:
        return cls(**fields)
    except ValueError as exc:
        raise SnapshotError("bad-config", str(exc)) from exc


def _expect_end(raw: bytes, off: int) -> None:
    if off != len(raw):
        raise SnapshotError("trailing-bytes", f"{len(raw) - off} bytes past the body")


def save_sketch(path: str | Path, sketch) -> None:
    Path(path).write_bytes(dump_bytes(sketch))


def load_sketch(path: str | Path):
    return load_bytes(Path(path).read_bytes())
