"""Versioned binary checkpoints of sketch state.

Layout, little-endian throughout::

    magic        4 bytes   SKSC | SKIM | SKCM (scheme tag)
    version      u16       2 (1, without the counts below, is refused)
    rows         u16
    width        u32       base slots per row (Count-Min: counters per row)
    counter_bits u8        base counter width (Count-Min: 32)
    shared_bits  u8        0 for schemes without sharing (SKIM, SKCM)
    merge_mode   u8        0 = sum, 1 = max (Count-Min: 0)
    reserved     u8        0
    seeds        rows * u64
    packets      u64       packets encoded
    discards     rows * u64  each row's ``lsb_discard`` (absent for Count-Min)
    body, per row:
        counters  width * ceil(counter_bits / 8) bytes, one slot each
        states    width / 4 packed nibbles, low nibble first
                  (absent for Count-Min)

``SKSC`` and ``SKIM`` hold the same dynamic-counter engine; ``SKIM`` is that
engine at ``shared_bits == 0``, whose groups never hold a shared pair (codes
1, 3, 4, 5, 7) or code 9. A header that no config accepts (a Count-Min
header whose counter_bits, shared_bits and merge_mode are not 32, 0 and 0,
say), a nonzero reserved byte, a state code the header's scheme cannot
reach, or a slot above ``2**counter_bits - 1`` is rejected on load. So is a
body shorter or longer than the header implies, before the sketch it
describes is allocated.

The body is a copy of the sketch's row buffers (``array.array``), byte-swapped
to little-endian on a big-endian host, and the state nibbles are packed and
unpacked with numpy; nothing is converted slot by slot.

The packet total and the share-time discards are carried too, so that the
sum-mode ``row_total + lsb_discard == packets`` check holds on a loaded
sketch; a version 1 snapshot has neither, so it is refused (``bad-version``).
"""

from __future__ import annotations

import struct
import sys
from array import array

import numpy as np

from .baselines import CountMinConfig, CountMinSketch, InstantMergeSketch
from .rules import SpecError
from .sketch import (
    LEGAL_GROUP_STATES,
    MERGE_MAX,
    MERGE_SUM,
    UNSHARED_GROUP_STATES,
    SiameseSketch,
    SketchConfig,
)

SNAPSHOT_VERSION = 2
_HEADER = struct.Struct("<4sHHIBBBB")

_MAGIC_OF = {SiameseSketch: b"SKSC", InstantMergeSketch: b"SKIM", CountMinSketch: b"SKCM"}
_CLASS_OF = {magic: cls for cls, magic in _MAGIC_OF.items()}
# the merge_mode byte is the mode's index here, both to dump and to load
_MERGE_MODES = (MERGE_SUM, MERGE_MAX)
# Count-Min's counter_bits, shared_bits and merge_mode bytes
_COUNT_MIN_SHAPE = (32, 0, 0)


class SnapshotError(Exception):
    """Snapshot bytes violate the format; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _row_bytes(row: array) -> bytes:
    """A row's buffer in the little-endian order of the format."""
    if sys.byteorder == "little" or row.itemsize == 1:
        return row.tobytes()
    swapped = array(row.typecode, row)
    swapped.byteswap()
    return swapped.tobytes()


def _read_row(typecode: str, raw: bytes, off: int, count: int) -> array:
    row = array(typecode)
    row.frombytes(raw[off : off + count * row.itemsize])
    if sys.byteorder == "big":
        row.byteswap()
    return row


def _pack_states(states: array) -> bytes:
    codes = np.frombuffer(states, dtype=np.uint8)
    if len(codes) % 2:
        codes = np.append(codes, np.uint8(0))
    return (codes[0::2] | (codes[1::2] << 4)).tobytes()


def _unpack_states(raw: bytes, off: int, count: int) -> np.ndarray:
    packed = np.frombuffer(raw, dtype=np.uint8, count=(count + 1) // 2, offset=off)
    return np.stack((packed & 0xF, packed >> 4), axis=1).ravel()[:count]


def dump_bytes(sketch) -> bytes:
    cls = type(sketch)
    if cls not in _MAGIC_OF:
        raise TypeError(f"cannot snapshot {cls.__name__}")
    cfg = sketch.config
    if cls is CountMinSketch:
        shape, discards, states = _COUNT_MIN_SHAPE, [], [b""] * cfg.rows
    else:
        shape = (cfg.counter_bits, cfg.shared_bits, _MERGE_MODES.index(cfg.merge_mode))
        discards, states = sketch._lsb_discards, map(_pack_states, sketch._states)
    header = _HEADER.pack(_MAGIC_OF[cls], SNAPSHOT_VERSION, cfg.rows, cfg.width, *shape, 0)
    words = (*cfg.seeds, sketch.packet_count, *discards)
    body = [part for row, packed in zip(sketch._rows, states) for part in (_row_bytes(row), packed)]
    return b"".join([header, struct.pack(f"<{len(words)}Q", *words), *body])


def load_bytes(raw: bytes):
    if len(raw) < _HEADER.size:
        raise SnapshotError("bad-header", "snapshot shorter than its header")
    magic, version, rows, width, counter_bits, shared_bits, mode, reserved = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    cls = _CLASS_OF.get(magic)
    if cls is None:
        raise SnapshotError("bad-magic", f"unknown magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError("bad-version", f"unsupported version {version}")
    if reserved:
        raise SnapshotError("bad-header", f"reserved byte {reserved}, not 0")
    # the dynamic schemes carry a discard word and state nibbles per row
    dynamic = cls is not CountMinSketch
    off = _HEADER.size
    if off + 8 * rows > len(raw):
        raise SnapshotError("truncated", "seed table truncated")
    seeds = struct.unpack_from(f"<{rows}Q", raw, off)
    off += 8 * rows
    count_words = 1 + rows if dynamic else 1
    if off + 8 * count_words > len(raw):
        raise SnapshotError("truncated", "packet and discard counts truncated")
    packets, *discards = struct.unpack_from(f"<{count_words}Q", raw, off)
    off += 8 * count_words
    if dynamic:
        if cls is InstantMergeSketch and shared_bits:
            raise SnapshotError("bad-config", f"instant-merge shared_bits {shared_bits}, not 0")
        # an unknown mode code is passed on, for SketchConfig to refuse
        merge_mode = _MERGE_MODES[mode] if mode < len(_MERGE_MODES) else mode
        config = _config(SketchConfig, rows=rows, width=width, counter_bits=counter_bits,
                         shared_bits=shared_bits, merge_mode=merge_mode, seeds=seeds)
    elif (counter_bits, shared_bits, mode) != _COUNT_MIN_SHAPE:
        raise SnapshotError(
            "bad-config",
            f"Count-Min counter_bits, shared_bits, merge_mode {counter_bits}, "
            f"{shared_bits}, {mode}, not 32, 0, 0",
        )
    else:
        config = _config(CountMinConfig, rows=rows, width=width, seeds=seeds)
    row_bytes = width * ((counter_bits + 7) // 8)
    group_count = width // 4 if dynamic else 0
    state_bytes = (group_count + 1) // 2
    _expect_body(raw, off, rows * (row_bytes + state_bytes))
    sketch = cls(config)
    legal = np.zeros(16, dtype=bool)
    legal[list(LEGAL_GROUP_STATES if shared_bits else UNSHARED_GROUP_STATES)] = True
    max_slot = (1 << counter_bits) - 1
    typecode = sketch._rows[0].typecode
    # only a slot wider than its counter (4 or 12 bits, say) can hold too much
    narrow = max_slot < np.iinfo(typecode).max
    for r in range(rows):
        row = _read_row(typecode, raw, off, width)
        if narrow and np.frombuffer(row, dtype=typecode).max() > max_slot:
            raise SnapshotError("bad-state", f"row {r} has a slot above {max_slot}")
        sketch._rows[r] = row
        off += row_bytes
        if dynamic:
            states = _unpack_states(raw, off, group_count)
            if not legal[states].all():
                raise SnapshotError("bad-state", f"row {r} has an illegal state code")
            sketch._states[r] = array("B", states.tobytes())
            off += state_bytes
    sketch.packet_count = packets
    if dynamic:
        sketch._lsb_discards = discards
    return sketch


def _config(cls, **fields):
    try:
        return cls(**fields)
    except SpecError as exc:
        raise SnapshotError("bad-config", str(exc)) from exc


def _expect_body(raw: bytes, off: int, size: int) -> None:
    """Check that the body the header describes, ``size`` bytes from ``off``,
    is exactly what is left, before a sketch of that size is built."""
    if off + size > len(raw):
        raise SnapshotError("truncated", f"body has {len(raw) - off} of {size} bytes")
    if off + size < len(raw):
        raise SnapshotError("trailing-bytes", f"{len(raw) - off - size} bytes past the body")
