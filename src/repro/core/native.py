"""The compiled Gibbs sweep loop: build, cache and load ``rank_sweeps.c``.

:class:`~repro.core.gibbs.GibbsEnsemble` runs a uniform block's fused
rank steps in one call of the C loop in ``rank_sweeps.c`` when it can
load it, and through its NumPy rank steps otherwise (the reference the
tests compare against).  Both draw the same integers.

The library is built with the host C compiler (:data:`COMPILER`, no
``-ffast-math``) on first use and cached in the per-user cache
(``$XDG_CACHE_HOME/repro``, by default ``~/.cache/repro``), named by the
sha256 of the source, the flags and the machine type, so a changed
source builds anew.  The compiler writes a temporary file that is then
renamed into place, so processes building at the same time never load a
half-written library.  A cached library that will not load is built
again, once.  ``ctypes`` is imported and the library loaded at the first
ensemble trace, not at import.  No compiler, a compile error, an
unwritable cache or a library that will not load all leave
:func:`rank_sweeps` returning ``None``.

The compiler runs as a child of the process that first needs the loop,
so that process's children's peak RSS includes it.  To keep a build out
of a measured run, build first::

    python -c "from repro.core import native; assert native.rank_sweeps()"

No config field, flag or variable of this program selects the path:
tests set :data:`ENABLED`, point :data:`COMPILER` and :data:`SOURCE`
elsewhere and set ``XDG_CACHE_HOME`` to exercise the fallback.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np

__all__ = ["library_path", "load", "rank_sweeps"]

#: The loop's C source.
SOURCE = Path(__file__).with_name("rank_sweeps.c")

#: The C compiler command.
COMPILER = "gcc"

#: Compile flags.  No ``-ffast-math``: the loop's float64 ``<=`` must
#: compare NaN false, as NumPy does.
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

#: Whether ensembles run the compiled loop (``False``: the NumPy steps).
ENABLED = True

_UNSET = object()
_loop = _UNSET


def rank_sweeps():
    """The compiled loop's ``ctypes`` function, loaded on first call;
    ``None`` when disabled or unavailable."""
    global _loop
    if not ENABLED:
        return None
    if _loop is _UNSET:
        _loop = load()
    return _loop


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro"


def library_path(cache: Path, source: bytes | None = None) -> Path:
    """The cached library for ``source`` (the current source), the flags
    and this machine type in ``cache``."""
    if source is None:
        source = SOURCE.read_bytes()
    key = "\0".join([*FLAGS, platform.machine()]).encode()
    digest = hashlib.sha256(source + key)
    return Path(cache) / f"rank_sweeps-{digest.hexdigest()[:16]}.so"


def _build(target: Path, source: bytes) -> None:
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=target.stem, suffix=".tmp"
    )
    os.close(fd)
    try:
        # The source goes in on stdin: the library is built from the bytes
        # its name hashes.
        subprocess.run(
            [COMPILER, *FLAGS, "-x", "c", "-", "-o", tmp],
            input=source, check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load():
    """Build (when not cached) and load the loop; ``None`` on any failure."""
    import subprocess

    if np.dtype(np.intp).itemsize != 8:
        return None  # the loop reads slots as int64
    try:
        import ctypes

        source = SOURCE.read_bytes()
        target = library_path(_cache_dir(), source)
        fn = None
        if target.exists():
            try:
                fn = ctypes.CDLL(str(target)).repro_rank_sweeps
            except (OSError, AttributeError):
                # A corrupt file, or one a different system built under the
                # same home: build it again, once.
                pass
        if fn is None:
            _build(target, source)
            fn = ctypes.CDLL(str(target)).repro_rank_sweeps
    except (
        OSError, RuntimeError, KeyError, AttributeError, subprocess.SubprocessError
    ):
        # No compiler, a compile error, an unwritable cache, a library that
        # will not load, or no home directory to cache in.
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.restype = i64
    fn.argtypes = [
        ptr, i64, i64, ptr,  # state, stride, ranks, lo
        ptr, ptr, i64,  # weights, index, index_size
        ptr, i64, i64,  # columns, width, slots
        ptr, i64, i64,  # uniforms, start, stop
        ptr, i64, ptr, i64, i64,  # cells, ncells, trace, itemsize, row0
        ptr,  # scratch
    ]
    return fn
