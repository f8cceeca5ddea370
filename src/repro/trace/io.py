"""Trace serialisation: compressed npz round-trip and a disk cache.

Traces are expensive to regenerate (the guest VM is a Python interpreter
loop), so experiments cache them on disk keyed by workload name, trace
length, and generator seed, in a :class:`repro.store.Store` named
``trace_cache`` (entry ``<dir>/key[:2]/key.npz``); a torn or stale entry
is evicted and regenerated.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.store import Store, atomic_write
from repro.trace.trace import Trace

_FORMAT_VERSION = 1


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` as a compressed npz archive, one array
    per :class:`Trace` column, atomically (:func:`repro.store.atomic_write`).
    """
    columns = {name: getattr(trace, name) for name in Trace.__slots__}
    atomic_write(Path(path), lambda handle: np.savez_compressed(
        handle, version=np.int64(_FORMAT_VERSION), **columns))


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(path) as archive:
        version = int(archive["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} in {path}"
            )
        return Trace(**{name: archive[name] for name in Trace.__slots__})


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
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    store = Store(directory, "trace_cache", ".npz")
    trace = store.read(key, load_trace)
    if trace is None:
        trace = generate()
        store.write(key, trace, save_trace)
    return trace
