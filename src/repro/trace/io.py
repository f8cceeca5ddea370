"""Trace serialisation: compressed npz round-trip and a disk cache.

Traces are expensive to regenerate (the guest VM is a Python interpreter
loop), so experiments cache them on disk keyed by workload name, trace
length, and generator seed.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.trace.trace import Trace

_FORMAT_VERSION = 1

#: Exceptions a corrupt, torn or stale cache entry may raise on load.  A
#: truncated npz raises ``zipfile.BadZipFile`` or ``EOFError`` depending
#: on where the bytes stop, a mangled json payload ``TypeError``; every
#: on-disk cache treats all of them as a miss, never a crash.
CORRUPT_ENTRY_ERRORS = (
    ValueError, OSError, KeyError, TypeError, EOFError, zipfile.BadZipFile,
)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` as a compressed npz archive.

    The write is atomic (temp file + rename) so a concurrently reading
    process never sees a torn archive.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(
                handle,
                version=np.int64(_FORMAT_VERSION),
                pc=trace.pc,
                instr_class=trace.instr_class,
                branch_kind=trace.branch_kind,
                taken=trace.taken,
                target=trace.target,
                src1=trace.src1,
                src2=trace.src2,
                dst=trace.dst,
                mem_addr=trace.mem_addr,
            )
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(path) as archive:
        version = int(archive["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} in {path}"
            )
        return Trace(
            pc=archive["pc"],
            instr_class=archive["instr_class"],
            branch_kind=archive["branch_kind"],
            taken=archive["taken"],
            target=archive["target"],
            src1=archive["src1"],
            src2=archive["src2"],
            dst=archive["dst"],
            mem_addr=archive["mem_addr"],
        )


def default_cache_dir() -> Path:
    """Directory used by :func:`cached_trace`.

    Overridable via the ``REPRO_TRACE_CACHE`` environment variable; defaults
    to ``~/.cache/repro-traces``.
    """
    override = os.environ.get("REPRO_TRACE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-traces"


def cached_trace(key: str, generate: Callable[[], Trace],
                 cache_dir: Optional[Union[str, Path]] = None) -> Trace:
    """Return the trace for ``key``, generating and caching it on miss.

    ``key`` must be filesystem-safe and fully determine the trace (workload
    name + length + seed); the workload registry builds such keys.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = directory / f"{key}.npz"
    if path.exists():
        try:
            return load_trace(path)
        except CORRUPT_ENTRY_ERRORS:
            path.unlink(missing_ok=True)  # corrupt or stale cache entry
    trace = generate()
    save_trace(trace, path)
    return trace
