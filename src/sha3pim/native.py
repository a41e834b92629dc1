"""The package's C library, ``_rows.c``: the replay kernel ``run_rows`` and
the peripheral io entry points ``write_region`` and ``read_region``.

It is compiled from the checkout on first use with the C compiler Python
was built with, and cached in the package's ``__pycache__``; see
``kernel``. ``Crossbar.addresses`` loads it for the crossbar's io and for
``engine.replay``, so it lives below both modules.
"""

from __future__ import annotations

import ctypes
import functools
import os
import zlib
from pathlib import Path

_SOURCE = Path(__file__).with_name("_rows.c")
_CACHE = Path(__file__).with_name("__pycache__")


class KernelBuildError(RuntimeError):
    """The C library, replay kernel and io, could not be built or loaded."""


def _compiler() -> list[str]:
    """The C compiler Python was built with, as a command."""
    import shlex
    import sysconfig
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build(command: list[str], path: Path) -> None:
    """Compile the kernel source into ``path``. It is written under a
    temporary name and renamed, so a concurrent build never exposes a
    half-written file."""
    import subprocess
    import tempfile
    tmp = None
    try:
        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        os.close(fd)
        done = subprocess.run([*command, "-o", tmp, str(_SOURCE)],
                              capture_output=True, text=True)
        if done.returncode:
            lines = done.stderr.strip().splitlines() or [
                f"exit status {done.returncode}"]
            raise KernelBuildError(f"cannot build the C replay kernel with "
                                   f"{command[0]}: {lines[-1]}")
        os.replace(tmp, path)
    except OSError as exc:
        raise KernelBuildError(f"cannot build the C replay kernel with "
                               f"{command[0]}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def kernel() -> ctypes.CDLL:
    """The C library, built on first use, with its three entry points'
    argument types set.

    The shared library is cached in the package's ``__pycache__``, keyed by
    a hash of the C source and the compile command, so it is built once
    per source and compiler; a build removes the cache's other builds.
    Raises ``KernelBuildError`` if it cannot be built or loaded, as without
    a C compiler.
    """
    command = _compiler() + ["-O3", "-shared", "-fPIC"]
    key = zlib.crc32(_SOURCE.read_bytes() + " ".join(command).encode())
    path = _CACHE / f"_rows-{key:08x}.so"
    if not path.exists():
        _build(command, path)
        for stale in set(_CACHE.glob("_rows-*.so")) - {path}:
            stale.unlink(missing_ok=True)
    try:
        library = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(f"cannot load the C replay kernel: {exc}") \
            from None
    pointer, i64 = ctypes.c_void_p, ctypes.c_int64
    library.run_rows.argtypes = [pointer, pointer, i64, pointer, pointer,
                                 pointer, pointer, i64, pointer, pointer, pointer]
    for io in (library.write_region, library.read_region):
        io.argtypes = [pointer, pointer, pointer, i64, i64, i64, i64, pointer]
    for entry in (library.run_rows, library.write_region, library.read_region):
        entry.restype = ctypes.c_int
    return library
