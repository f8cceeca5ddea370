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

Control knobs:

* ``REPRO_RESULT_CACHE=0`` (or ``off`` / ``no`` / ``false``) disables the
  cache entirely — equivalent to the CLI's ``--no-result-cache``;
* ``REPRO_RESULT_CACHE=/some/dir`` relocates it (default
  ``~/.cache/repro-results``);
* deleting the directory clears it.

Every load/store (and every corrupt-entry eviction) bumps a
``result_cache.*`` counter on the :mod:`repro.obs` sink, so an enabled
run ledger shows exactly how the cache behaved — free when obs is off.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.guest.isa import BranchKind
from repro.obs import get_sink
from repro.predictors import PredictionStats
from repro.trace.io import CORRUPT_ENTRY_ERRORS

_FORMAT_VERSION = 1

#: values of ``REPRO_RESULT_CACHE`` that turn the cache off
_OFF_VALUES = {"0", "off", "no", "false", ""}

#: Seconds after which an unreleased cell claim counts as abandoned (the
#: claiming process died); a fresh claimer may break and take it over.
DEFAULT_CLAIM_TTL_S = 120.0


def result_cache_enabled() -> bool:
    """Whether the environment allows persistent result caching."""
    # Toggles whether results are cached, never what they are.
    return os.environ.get(  # repro-lint: ignore[det-env-read]
        "REPRO_RESULT_CACHE", "on"
    ).lower() not in _OFF_VALUES


def default_result_cache_dir() -> Path:
    # Relocates the cache directory; cell keys make any location safe.
    override = os.environ.get("REPRO_RESULT_CACHE", "")  # repro-lint: ignore[det-env-read]
    if override and override.lower() not in _OFF_VALUES and override != "on":
        return Path(override)
    return Path.home() / ".cache" / "repro-results"


class ResultCache:
    """npz-file-per-cell store; writes are atomic, corrupt entries self-heal."""

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_result_cache_dir()
        )

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """The cache the environment asks for, or ``None`` if disabled."""
        return cls() if result_cache_enabled() else None

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directory listings manageable for
        # multi-thousand-cell sweeps.
        return self.directory / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[PredictionStats]:
        """Return the cached stats for ``key``, or ``None`` on a miss.

        Entries written by older versions may also hold a packed
        mispredict mask; it is never read.

        Crash-consistency contract (the flip side of :meth:`store`): a
        reader can observe either no file or a complete one under normal
        operation, but a machine crash between the rename and the data
        reaching disk can leave a *torn* (truncated or zero-byte) entry.
        Any such entry — along with any other undecodable bytes — is
        treated as a miss and evicted, never raised to the caller.
        """
        path = self._path(key)
        if not path.exists():
            get_sink().incr("result_cache.load.miss")
            return None
        try:
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
                get_sink().incr("result_cache.load.hit")
                return stats
        except CORRUPT_ENTRY_ERRORS:
            path.unlink(missing_ok=True)  # corrupt or stale entry
            get_sink().incr("result_cache.evict")
            return None

    def store(self, key: str, stats: PredictionStats) -> None:
        """Persist ``stats`` under ``key`` with atomic visibility.

        Write-path audit (deliberately ``fsync``-free): the payload is
        written to a ``mkstemp`` temporary *in the destination directory*
        (same filesystem, so the rename cannot degrade to copy+delete),
        then published with ``os.replace`` — readers see the old entry or
        the whole new one, never a partial write, and concurrent writers
        of the same key last-write-win with identical bytes (the key
        covers every input).  Skipping ``fsync`` trades durability for
        speed: an OS/power crash may leave the renamed file torn on disk,
        which :meth:`load` already treats as an evictable miss, so the
        worst case is one lost cache entry, never a wrong result.
        """
        get_sink().incr("result_cache.store")
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        kinds = sorted(stats.per_kind, key=lambda kind: kind.value)
        payload = dict(
            version=np.int64(_FORMAT_VERSION),
            instructions=np.int64(stats.instructions),
            btb_lookups=np.int64(stats.btb_lookups),
            btb_hits=np.int64(stats.btb_hits),
            kind_values=np.array([k.value for k in kinds], dtype=np.int64),
            executed=np.array(
                [stats.per_kind[k].executed for k in kinds], dtype=np.int64
            ),
            mispredicted=np.array(
                [stats.per_kind[k].mispredicted for k in kinds], dtype=np.int64
            ),
        )
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(handle, **payload)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    # ------------------------------------------------------------------
    def _cycles_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.cycles.json"

    def load_cycles(self, key: str) -> Optional[int]:
        """Cached cycle count under a :func:`~repro.runner.keys.timing_key`."""
        path = self._cycles_path(key)
        if not path.exists():
            get_sink().incr("result_cache.cycles.miss")
            return None
        try:
            payload = json.loads(path.read_text())
            if payload["version"] != _FORMAT_VERSION:
                raise ValueError("format version mismatch")
            get_sink().incr("result_cache.cycles.hit")
            return int(payload["cycles"])
        except CORRUPT_ENTRY_ERRORS:
            path.unlink(missing_ok=True)  # corrupt or stale entry
            get_sink().incr("result_cache.evict")
            return None

    # ------------------------------------------------------------------
    # Cell claims: cross-process work coordination for the sweep service.
    # ------------------------------------------------------------------
    def _claim_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.claim"

    def claim(self, key: str, ttl_s: float = DEFAULT_CLAIM_TTL_S) -> bool:
        """Atomically claim the right to compute ``key``; True if won.

        N server instances sharing one cache directory use claims to
        split a sweep: exactly one process wins ``O_CREAT | O_EXCL`` on
        the claim file and computes the cell; the others poll the cache
        until the winner's :meth:`store` lands (see
        :class:`repro.service.scheduler.ShardScheduler`).  A claim left
        behind by a dead process goes stale after ``ttl_s`` seconds and
        is broken by the next claimer — losing a claim therefore delays a
        cell, never loses it.  Claims gate *who computes*, not *what* the
        result is, so they are invisible in the cached bytes.
        """
        path = self._claim_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                age = self.claim_age(key)
                if age is not None and age <= ttl_s:
                    get_sink().incr("result_cache.claim.lost")
                    return False
                # Stale claim (holder died without releasing): break it.
                # Concurrent breakers both unlink, then O_EXCL arbitrates
                # the retry, so at most one claimer wins.
                path.unlink(missing_ok=True)
                get_sink().incr("result_cache.claim.broken")
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps({"pid": os.getpid()}))
            get_sink().incr("result_cache.claim.won")
            return True
        get_sink().incr("result_cache.claim.lost")
        return False

    def release(self, key: str) -> None:
        """Drop a claim taken by :meth:`claim` (idempotent)."""
        self._claim_path(key).unlink(missing_ok=True)

    def claim_age(self, key: str) -> Optional[float]:
        """Seconds since ``key`` was claimed, or ``None`` if unclaimed."""
        try:
            mtime = self._claim_path(key).stat().st_mtime
        except OSError:
            return None
        # Claim freshness is a scheduling hint between live processes;
        # results never read it (claims only decide who computes a cell).
        return max(0.0, time.time() - mtime)  # repro-lint: ignore[det-wall-clock]

    def store_cycles(self, key: str, cycles: int) -> None:
        get_sink().incr("result_cache.cycles.store")
        path = self._cycles_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"version": _FORMAT_VERSION, "cycles": int(cycles)})
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
