"""Persistent on-disk cache of :class:`PredictionStats` results.

Re-running ``repro all`` re-simulates hundreds of ``(benchmark, config)``
cells whose inputs have not changed.  This cache makes the second run
near-free: each cell's stats are stored as one small compressed npz file
keyed by :func:`repro.runner.keys.cell_key` (trace fingerprint + engine
config + simulator-code hash), so any change that could alter a result
misses, and everything else hits.  An entry holds the counters only:
the per-instruction mispredict mask never reaches the disk.  Cycle
counts from the timing model, which runs in whichever process simulated
the cell (:mod:`repro.runner.pool`), are stored alongside as tiny json
files keyed by :func:`repro.runner.keys.timing_key` (cell key + machine
config + pipeline-code hash), so a warm re-run skips ``run_timing`` too.

Stats (``key.npz``), cycles (``key.cycles.json``) and the service's cell
claims (``key.claim``) are three :class:`repro.store.Store` kinds in one
directory, counted as ``result_cache.*``, ``.cycles.*`` and ``.claim.*``.

``REPRO_RESULT_CACHE`` follows the ``REPRO_OBS`` rule
(:func:`repro.obs.parse_switch`): ``0`` / ``off`` / ``no`` / ``false``
disable the cache (as ``--no-result-cache`` does), unset or ``1`` / ``on``
/ ``true`` / ``yes`` keep it in ``~/.cache/repro-results``, and any other
value is the directory.  Deleting the directory clears the cache.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.guest.isa import BranchKind
from repro.obs import parse_switch
from repro.predictors import PredictionStats
from repro.store import Store, atomic_write

_FORMAT_VERSION = 1


def _load_stats(path: Path) -> PredictionStats:
    # Entries written by older versions may also hold a packed
    # mispredict mask; it is never read.
    with np.load(path) as archive:
        if int(archive["version"]) != _FORMAT_VERSION:
            raise ValueError("format version mismatch")
        stats = PredictionStats(
            instructions=int(archive["instructions"]),
            btb_lookups=int(archive["btb_lookups"]),
            btb_hits=int(archive["btb_hits"]),
        )
        for value, executed, mispredicted in zip(
            archive["kind_values"].tolist(),
            archive["executed"].tolist(),
            archive["mispredicted"].tolist(),
        ):
            counter = stats.counters(BranchKind(value))
            counter.executed = executed
            counter.mispredicted = mispredicted
        return stats


def _save_stats(stats: PredictionStats, path: Path) -> None:
    kinds = sorted(stats.per_kind, key=lambda kind: kind.value)
    counters = [stats.per_kind[kind] for kind in kinds]
    payload = dict(
        version=np.int64(_FORMAT_VERSION),
        instructions=np.int64(stats.instructions),
        btb_lookups=np.int64(stats.btb_lookups),
        btb_hits=np.int64(stats.btb_hits),
        kind_values=np.array([k.value for k in kinds], dtype=np.int64),
        executed=np.array([c.executed for c in counters], dtype=np.int64),
        mispredicted=np.array([c.mispredicted for c in counters],
                              dtype=np.int64),
    )
    atomic_write(path, lambda handle: np.savez_compressed(handle, **payload))


def _load_cycles(path: Path) -> int:
    payload = json.loads(path.read_text())
    if payload["version"] != _FORMAT_VERSION:
        raise ValueError("format version mismatch")
    return int(payload["cycles"])


def _save_cycles(cycles: int, path: Path) -> None:
    payload = json.dumps({"version": _FORMAT_VERSION, "cycles": int(cycles)})
    atomic_write(path, lambda handle: handle.write(payload.encode()))


class ResultCache:
    """Per-cell stats and cycle counts, plus cell claims, in one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self._stats = Store(self.directory, "result_cache", ".npz")
        self._cycles = Store(self.directory, "result_cache.cycles", ".cycles.json")
        #: Cell claims across service instances (:meth:`Store.claim`).
        self.claims = Store(self.directory, "result_cache.claim", ".claim")

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """The cache ``REPRO_RESULT_CACHE`` asks for, or ``None`` if disabled."""
        # Relocates or disables the cache, never changes what it holds:
        # cell keys make any location safe.
        value = os.environ.get("REPRO_RESULT_CACHE", "on")  # repro-lint: ignore[det-env-read]
        location = parse_switch(value, str(Path.home() / ".cache" / "repro-results"))
        return None if location is None else cls(location)

    def _path(self, key: str) -> Path:
        return self._stats.path(key)

    def _cycles_path(self, key: str) -> Path:
        return self._cycles.path(key)

    def load(self, key: str) -> Optional[PredictionStats]:
        """Cached stats under a :func:`~repro.runner.keys.cell_key`."""
        return self._stats.read(key, _load_stats)

    def store(self, key: str, stats: PredictionStats) -> None:
        self._stats.write(key, stats, _save_stats)

    def load_cycles(self, key: str) -> Optional[int]:
        """Cached cycle count under a :func:`~repro.runner.keys.timing_key`."""
        return self._cycles.read(key, _load_cycles)

    def store_cycles(self, key: str, cycles: int) -> None:
        self._cycles.write(key, cycles, _save_cycles)
