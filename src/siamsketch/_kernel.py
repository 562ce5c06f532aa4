"""Build and load the C kernel library, ``_encode.c``, once per machine.

The library has eight entry points: ``hash_keys`` hashes a chunk of keys
under one seed (``hashing.hash_batch``), ``place`` hashes a chunk of keys to
their slots in one row (``hashing.index_batch``), ``encode_row`` counts a
chunk of slots into one row of the dynamic-counter engine
(``DynamicSketch._encode_batch``), ``decode_row`` decodes every slot of such
a row (``DynamicSketch._decode_row``), ``query_rows`` answers a batch of
keys from every row's decoded table, placing each key and taking the minimum
over rows in one pass (``hashing.RowSketch._query_array``), ``interleave``
mixes two traces (``traffic.interleave_traces``): it shuffles their labels
as numpy's ``Generator.shuffle`` does, drawing from the generator's own
state through the ``next_uint32`` function the generator hands out, and
fills the mix in the same pass; ``guide_search`` finds the rank of each
draw of a Zipf stream (``traffic.guide_search``): it builds the guide table
of the rank CDF in one pass over the CDF and bisects each draw's bracket in
one pass over the draws; and ``sum_buckets`` adds float64 terms exactly
into one integer bucket per exponent (``metrics._exact_sum``), in one pass.
``encode_row`` takes the row's group count with its group codes: it reads
every code once per call to choose among its three count regimes. A row with fewer than 1/10 of its groups out of code 0
is counted with a fast path for independent slots, an 8-bit row with at
least 1/8 of its groups holding a shared pair with the pair-word loop, and
every other row with the per-unit loop (``_encode.c`` gives the loops and
the measured crossovers).

The kernel is compiled with the C compiler Python was built with
(``sysconfig``'s ``CC``, else ``cc``) into a shared library under
``$XDG_CACHE_HOME/siamsketch/`` (``~/.cache/siamsketch/`` by default; a
private directory under the system temporary directory when that one is not
writable), and loaded with ctypes. The file name is keyed by the sha256 of the
C source, the compile command and the platform, so a changed source or
compiler builds a new library and an unchanged one is reused without running
the compiler. A library is written under a temporary name and moved into
place, so a concurrent process never loads a partial file.

Without a compiler, or when the build or the load fails, :func:`load` returns
None after one ``RuntimeWarning`` per process: keys are then hashed and
placed key by key with the scalar ``mix64``, the engine counts packets with
its scalar ``_encode`` and decodes slots with its scalar ``_decode``, and
two traces are mixed by their definition: ``rng.shuffle`` of the labels,
then a boolean-mask scatter of each trace to its labels, a Zipf stream's
ranks come from ``np.searchsorted`` over its CDF, and error terms are summed
by ``math.fsum``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from typing import Sequence

SOURCE = Path(__file__).with_name("_encode.c")
FLAGS = ("-O2", "-shared", "-fPIC")


def compile_command() -> list[str]:
    """Compiler and flags, without the input and output files."""
    return [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *FLAGS]


def cache_dir() -> Path:
    """The directory built libraries are cached in (see the module docstring)."""
    base = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "siamsketch"
    try:
        base.mkdir(parents=True, exist_ok=True)
        if os.access(base, os.W_OK):
            return base
    except OSError:
        pass
    private = Path(tempfile.gettempdir()) / f"siamsketch-{os.getuid()}"
    private.mkdir(mode=0o700, exist_ok=True)
    # Another user could have made this name first, and a library found
    # there would be loaded and run.
    if private.stat().st_uid != os.getuid():
        raise PermissionError(f"{private} belongs to another user")
    return private


def library_path(source: bytes, command: Sequence[str]) -> Path:
    """Where the library built from ``source`` by ``command`` is cached."""
    digest = hashlib.sha256()
    for part in (source, "\0".join(command).encode(), sysconfig.get_platform().encode()):
        digest.update(hashlib.sha256(part).digest())
    return cache_dir() / f"encode-{digest.hexdigest()[:16]}.so"


def _build(path: Path, command: Sequence[str]) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [*command, "-o", tmp, str(SOURCE)], check=True, capture_output=True, text=True
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load():
    """The kernel library, with its eight entry points declared
    (``hash_keys``, ``place``, ``encode_row``, ``decode_row``,
    ``query_rows``, ``interleave``, ``guide_search`` and ``sum_buckets``),
    built first if needed; None if it cannot be built or loaded."""
    try:
        command = compile_command()
        path = library_path(SOURCE.read_bytes(), command)
        if not path.exists():
            _build(path, command)
        lib = ctypes.CDLL(str(path))
        hash_keys, place, encode_row = lib.hash_keys, lib.place, lib.encode_row
        decode_row, query_rows, interleave = lib.decode_row, lib.query_rows, lib.interleave
        guide_search, sum_buckets = lib.guide_search, lib.sum_buckets
    except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        warnings.warn(
            f"siamsketch: no C encode kernel ({detail}); hashing, encoding and decoding in Python",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    hash_keys.argtypes = [
        ctypes.c_void_p,  # uint64 keys
        ctypes.c_size_t,
        ctypes.c_uint64,  # seed state
        ctypes.c_void_p,  # uint64 hashes, written
    ]
    hash_keys.restype = None
    place.argtypes = [
        ctypes.c_void_p,  # uint64 keys
        ctypes.c_size_t,
        ctypes.c_uint64,  # seed state
        ctypes.c_uint64,  # width
        ctypes.c_void_p,  # int64 slot indices, written
    ]
    place.restype = None
    encode_row.argtypes = [
        ctypes.c_void_p,  # row slots
        ctypes.c_int,  # slots are uint16
        ctypes.c_void_p,  # group codes
        ctypes.c_size_t,  # groups, the length of the group codes
        ctypes.c_void_p,  # int64 slot indices
        ctypes.c_size_t,
        ctypes.c_int,  # counter_bits
        ctypes.c_int,  # shared_bits
        ctypes.c_int,  # sum mode
    ]
    encode_row.restype = ctypes.c_uint64
    decode_row.argtypes = [
        ctypes.c_void_p,  # row slots
        ctypes.c_int,  # slots are uint16
        ctypes.c_void_p,  # group codes
        ctypes.c_size_t,  # width, the number of slots
        ctypes.c_int,  # counter_bits
        ctypes.c_int,  # shared_bits
        ctypes.c_void_p,  # uint64 decoded values, written
    ]
    decode_row.restype = None
    query_rows.argtypes = [
        ctypes.c_void_p,  # uint64 keys
        ctypes.c_size_t,
        ctypes.c_void_p,  # uint64 seed state of each row
        ctypes.c_void_p,  # uint64 decoded tables, rows x width
        ctypes.c_size_t,  # rows
        ctypes.c_uint64,  # width
        ctypes.c_void_p,  # uint64 answers, written
    ]
    query_rows.restype = None
    interleave.argtypes = [
        ctypes.c_void_p,  # uint64 keys of a
        ctypes.c_size_t,
        ctypes.c_void_p,  # uint64 keys of b
        ctypes.c_size_t,
        ctypes.c_void_p,  # bit generator state
        ctypes.c_void_p,  # its next_uint32
        ctypes.c_void_p,  # uint8 labels, written
        ctypes.c_void_p,  # uint64 mix, written
    ]
    interleave.restype = None
    guide_search.argtypes = [
        ctypes.c_void_p,  # float64 CDF
        ctypes.c_size_t,
        ctypes.c_void_p,  # float64 draws
        ctypes.c_size_t,
        ctypes.c_size_t,  # buckets, a power of two
        ctypes.c_void_p,  # int64 guide table, buckets + 1 edges, written
        ctypes.c_void_p,  # int64 ranks, written
    ]
    guide_search.restype = ctypes.c_size_t  # the first draw out of range, else their count
    sum_buckets.argtypes = [
        ctypes.c_void_p,  # float64 terms
        ctypes.c_size_t,
        ctypes.c_void_p,  # uint64 buckets, 2047 x (low, high) words, written
    ]
    sum_buckets.restype = ctypes.c_size_t  # the first term not summed, else their count
    return lib
