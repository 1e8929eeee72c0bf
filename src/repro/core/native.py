"""The compiled Gibbs sweep loop: build, cache and load ``rank_sweeps.c``.

:class:`~repro.core.gibbs.GibbsEnsemble` runs a uniform block's fused
rank steps in one call of the C loop in ``rank_sweeps.c`` when it can
load it, and through its NumPy rank steps otherwise (the reference the
tests compare against).  Both draw the same integers, and both count
samples into histograms as they sweep
(:meth:`~repro.core.gibbs.GibbsEnsemble.counts`): the loop in C, the
NumPy steps through one scatter-add per recorded sweep.

The library is built with the host C compiler (:data:`COMPILER`, no
``-ffast-math``) on first use and cached in the per-user cache
(``$XDG_CACHE_HOME/repro``, by default ``~/.cache/repro``), named by the
sha256 of the source, the flags and the machine type, so a changed
source builds anew.  The compiler writes a temporary file that is then
renamed into place, so processes building at the same time never load a
half-written library.  A cached library that will not load is built
again, once.  ``ctypes`` is imported and the library loaded at the first
ensemble run, not at import.  No compiler, a compile error, an
unwritable cache or a library that will not load all leave
:func:`rank_sweeps` returning ``None``, and the one load in a process
that fails emits a :class:`RuntimeWarning` naming the cause.  Disabling
the loop (:data:`ENABLED`) warns nothing.

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


class _Unavailable(Exception):
    """Why the loop cannot run here."""


def _build(target: Path, source: bytes) -> None:
    import subprocess
    import tempfile

    tmp = None
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=target.parent, prefix=target.stem, suffix=".tmp"
        )
        os.close(fd)
        # The source goes in on stdin: the library is built from the bytes
        # its name hashes.
        subprocess.run(
            [COMPILER, *FLAGS, "-x", "c", "-", "-o", tmp],
            input=source, check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    except OSError as exc:
        cause = "no C compiler" if exc.filename == COMPILER else "unwritable cache"
        raise _Unavailable(f"{cause}: {exc}") from exc
    except subprocess.SubprocessError as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        detail = stderr.strip().splitlines() or [exc]
        raise _Unavailable(f"compile error: {detail[0]}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def load():
    """Build (when not cached) and load the loop; ``None`` on any failure,
    after a :class:`RuntimeWarning` that names the cause."""
    import ctypes
    import warnings

    try:
        if np.dtype(np.intp).itemsize != 8:
            raise _Unavailable("the loop reads slots as int64, wider than intp")
        try:
            source = SOURCE.read_bytes()
            target = library_path(_cache_dir(), source)
            cached = target.exists()
        except (OSError, RuntimeError, KeyError) as exc:
            # An unreadable source or cache, or no home directory.
            raise _Unavailable(f"no source or cache: {exc}") from exc
        fn = None
        if cached:
            try:
                fn = ctypes.CDLL(str(target)).repro_rank_sweeps
            except (OSError, AttributeError):
                # A corrupt file, or one a different system built under the
                # same home: build it again, once.
                pass
        if fn is None:
            _build(target, source)
            try:
                fn = ctypes.CDLL(str(target)).repro_rank_sweeps
            except (OSError, AttributeError) as exc:
                raise _Unavailable(f"library will not load: {exc}") from exc
    except _Unavailable as exc:
        warnings.warn(
            f"the compiled Gibbs sweep loop is unavailable ({exc}); "
            "ensembles run the NumPy rank steps at about a third of the speed",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.restype = i64
    fn.argtypes = [
        ptr, i64, i64, ptr,  # state, stride, ranks, lo
        ptr, ptr, i64,  # weights, index, index_size
        ptr, i64, i64,  # columns, width, slots
        ptr, i64, i64,  # uniforms, start, stop
        ptr, ptr,  # ubase, ustep
        ptr, i64, i64,  # cells, ncells, row0
        ptr, i64,  # trace, itemsize
        ptr, ptr, ptr, i64,  # counts, strides, sample_lo, nsamples
        ptr, i64,  # bases, last_row
        ptr,  # scratch
    ]
    return fn
