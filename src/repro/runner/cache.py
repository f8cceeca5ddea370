"""Persistent on-disk cache of :class:`PredictionStats` results.

Re-running ``repro all`` re-simulates hundreds of ``(benchmark, config)``
cells whose inputs have not changed.  This cache makes the second run
near-free: each cell's stats are stored as one small json object keyed by
:func:`repro.runner.keys.cell_key` (trace fingerprint + engine config +
simulator-code hash), so any change that could alter a result misses, and
everything else hits.  An entry holds the counters only: the
per-instruction mispredict mask never reaches the disk.  Cycle counts
from the timing model, which runs in whichever process simulated the cell
(:mod:`repro.runner.pool`), are stored alongside, keyed by
:func:`repro.runner.keys.timing_key` (cell key + machine config +
pipeline-code hash), so a warm re-run skips ``run_timing`` too.  Both go
through one version-checked json reader; json of the wrong shape is a
damaged entry (evicted, a miss).

Stats (``key.json``), cycles (``key.cycles.json``) and the service's cell
claims (``key.claim``) are three :class:`repro.store.Store` kinds in one
directory, counted as ``result_cache.*``, ``.cycles.*`` and ``.claim.*``.
Stats were once npz archives (``key.npz``): those are neither read nor
deleted, so an older cache re-fills its stats once (its cycles still hit)
and checkouts sharing a directory ignore, not evict, each other's stats;
``rm -rf ~/.cache/repro-results`` reclaims the orphaned ``.npz`` files.

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
from typing import Any, Dict, Optional, Union

from repro.guest.isa import BranchKind
from repro.obs import parse_switch
from repro.predictors import PredictionStats
from repro.predictors.engine import KindCounters
from repro.store import Store, atomic_write

_FORMAT_VERSION = 1
_KINDS = {kind.value: kind for kind in BranchKind}


def _read(path: Path) -> Dict[str, Any]:
    payload: Dict[str, Any] = json.loads(path.read_bytes())
    if payload["version"] != _FORMAT_VERSION:
        raise ValueError("format version mismatch")
    return payload


def _write(fields: Dict[str, object], path: Path) -> None:
    payload = json.dumps({"version": _FORMAT_VERSION, **fields}).encode()
    atomic_write(path, lambda handle: handle.write(payload))


def _count(value: object) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"not a count: {value!r}")
    return value


def _load_stats(path: Path) -> PredictionStats:
    payload = _read(path)
    return PredictionStats(
        instructions=_count(payload["instructions"]),
        btb_lookups=_count(payload["btb_lookups"]),
        btb_hits=_count(payload["btb_hits"]),
        per_kind={_KINDS[kind]: KindCounters(_count(ex), _count(mis))
                  for kind, ex, mis in payload["kinds"]},
    )


def _stats_fields(stats: PredictionStats) -> Dict[str, object]:
    return dict(instructions=int(stats.instructions),
                btb_lookups=int(stats.btb_lookups), btb_hits=int(stats.btb_hits),
                kinds=[[kind.value, int(c.executed), int(c.mispredicted)]
                       for kind, c in sorted(stats.per_kind.items())])


def _load_cycles(path: Path) -> int:
    return _count(_read(path)["cycles"])


class ResultCache:
    """Per-cell stats and cycle counts, plus cell claims, in one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self._stats = Store(self.directory, "result_cache", ".json")
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
        self._stats.write(key, _stats_fields(stats), _write)

    def load_cycles(self, key: str) -> Optional[int]:
        """Cached cycle count under a :func:`~repro.runner.keys.timing_key`."""
        return self._cycles.read(key, _load_cycles)

    def store_cycles(self, key: str, cycles: int) -> None:
        self._cycles.write(key, {"cycles": int(cycles)}, _write)
