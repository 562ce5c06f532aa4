"""Build and load the C kernel library, ``_encode.c``, once per machine.

The library's entry points and their ctypes signatures are read from that
source (:func:`entry_points`); its header says what each one does, and each
caller names its Python fallback.

The kernel is compiled with the C compiler Python was built with
(``sysconfig``'s ``CC``, else ``cc``) into a shared library under
``$XDG_CACHE_HOME/siamsketch/`` (``~/.cache/siamsketch/`` by default; a
private directory under the system temporary directory when that one is not
writable), and loaded with ctypes. The file name is keyed by the sha256 of the
C source, the compile command and the platform, so a changed source or
compiler builds a new library and an unchanged one is reused without running
the compiler. A library is written under a temporary name and moved into
place, so a concurrent process never loads a partial file.

Without a compiler, or when the source cannot be declared, the build fails
or the load fails, :func:`load` returns None after one ``RuntimeWarning`` per
process, and every caller takes its Python fallback, with the same results.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import re
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


# A function defined at the start of a line and not ``static``: its result
# type, its name and its parameters, in which the one nested pair of
# parentheses allowed is a function pointer's.
_DEFINITION = re.compile(
    r"^(?!static\b)(\w[\w\s*]*?)\s*\b(\w+)\s*\(((?:[^()]|\([^()]*\))*)\)\s*\{", re.M
)
_CTYPES = {"size_t": ctypes.c_size_t, "uint64_t": ctypes.c_uint64, "int": ctypes.c_int, "void": None}


def _ctype(c_type: str, definition: str):
    """The ctypes type of a C type: ``c_void_p`` for any pointer, else
    ``_CTYPES``' entry, ``const`` aside."""
    if "*" in c_type:
        return ctypes.c_void_p
    words = [w for w in c_type.split() if w != "const"]
    if len(words) != 1 or words[0] not in _CTYPES:
        raise RuntimeError(f"no ctypes type for {c_type.strip()!r} in {definition}")
    return _CTYPES[words[0]]


def entry_points(source: str) -> dict[str, tuple[list, type | None]]:
    """The entry points that the C ``source`` defines, each as its ctypes
    ``(argtypes, restype)``. A RuntimeError names a definition with a type
    outside ``_CTYPES`` that is not a pointer."""
    declared = {}
    for result, name, params in _DEFINITION.findall(source):
        definition = " ".join(f"{result} {name}({params})".split())
        parts = [] if params.strip() in ("", "void") else re.split(r",(?![^()]*\))", params)
        # the last word of a parameter that is not a pointer is its name
        argtypes = [_ctype(p if "*" in p else p.rsplit(None, 1)[0], definition) for p in parts]
        declared[name] = (argtypes, _ctype(result, definition))
    return declared


@functools.cache
def load():
    """The kernel library, with every entry point of :func:`entry_points`
    declared, built first if needed; None if it cannot be declared, built or
    loaded."""
    try:
        source = SOURCE.read_bytes()
        declared = entry_points(source.decode())
        command = compile_command()
        path = library_path(source, command)
        if not path.exists():
            _build(path, command)
        lib = ctypes.CDLL(str(path))
        for name, (argtypes, restype) in declared.items():
            entry = getattr(lib, name)
            entry.argtypes, entry.restype = argtypes, restype
    except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        warnings.warn(
            f"siamsketch: no C encode kernel ({detail}); hashing, encoding and decoding in Python",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return lib
