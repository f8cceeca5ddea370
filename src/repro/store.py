"""One keyed on-disk artifact store: layout, atomic write, read-or-evict.

Guest-VM traces (:func:`repro.trace.io.cached_trace`), per-cell stats,
cycle counts and the sweep service's cell claims
(:class:`repro.runner.cache.ResultCache`) all live in :class:`Store`
directories, so this module alone decides the on-disk entry policy: the
``directory/key[:2]/key<suffix>`` layout (the fan-out keeps listings
manageable for multi-thousand-cell sweeps; keys must be filesystem-safe),
the atomic write, and the read that turns a damaged entry into an evicted
miss.  Counters on the :mod:`repro.obs` sink: ``<name>.load.hit|miss``
(an evicted entry is a miss), ``<name>.evict``, ``<name>.store``, and
``<name>.won|lost|broken`` for claims.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zipfile
from pathlib import Path
from typing import BinaryIO, Callable, Optional, TypeVar, Union

from repro.obs import get_sink

T = TypeVar("T")

#: Seconds after which an unreleased claim counts as abandoned (the
#: claiming process died); a fresh claimer may break and take it over.
DEFAULT_CLAIM_TTL_S = 120.0


def atomic_write(path: Path, encode: Callable[[BinaryIO], object]) -> None:
    """Publish the bytes ``encode`` writes to a handle as ``path``.

    Write-path audit (deliberately ``fsync``-free): the payload goes to a
    ``mkstemp`` temporary *in the destination directory* (same
    filesystem, so the rename cannot degrade to copy+delete), then is
    published with ``os.replace`` — readers see the old entry or the
    whole new one, never a partial write, and concurrent writers of the
    same key last-write-win with identical bytes (keys cover every
    input).  Skipping ``fsync`` trades durability for speed: an OS or
    power crash may leave the renamed file torn on disk, which
    :meth:`Store.read` treats as an evictable miss, so the worst case is
    one lost entry, never a wrong result.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            encode(handle)
        os.replace(tmp_name, path)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise


class Store:
    """A keyed directory of one kind of entry, named ``name`` in counters.

    The codec is passed per call: ``load(path)`` decodes an entry and
    ``save(value, path)`` writes one through :func:`atomic_write`.
    """

    def __init__(self, directory: Union[str, Path], name: str,
                 suffix: str) -> None:
        self.directory = Path(directory)
        self.name = name
        self.suffix = suffix

    def path(self, key: str) -> Path:
        """The entry file for ``key``."""
        return self.directory / key[:2] / f"{key}{self.suffix}"

    def read(self, key: str, load: Callable[[Path], T]) -> Optional[T]:
        """``load`` the entry for ``key``, or ``None`` on a miss.

        An entry ``load`` cannot decode (torn by a crash, see
        :func:`atomic_write`; garbage; another format version) is evicted
        and read as a miss, never raised to the caller.
        """
        path = self.path(key)
        sink = get_sink()
        try:
            value = load(path)
        # What a missing, corrupt, torn or stale entry may raise: a
        # truncated npz ``zipfile.BadZipFile`` or ``EOFError`` depending on
        # where the bytes stop; a torn json entry ``json.JSONDecodeError``
        # (a ``ValueError``), and json of the wrong shape ``KeyError``,
        # ``TypeError`` or ``ValueError``; a format-version mismatch
        # ``ValueError``.
        except (ValueError, OSError, KeyError, TypeError, EOFError,
                zipfile.BadZipFile) as error:
            if not isinstance(error, FileNotFoundError):
                path.unlink(missing_ok=True)
                sink.incr(f"{self.name}.evict")
            sink.incr(f"{self.name}.load.miss")
            return None
        sink.incr(f"{self.name}.load.hit")
        return value

    def write(self, key: str, value: T, save: Callable[[T, Path], None]) -> None:
        """``save`` ``value`` as the entry for ``key``."""
        get_sink().incr(f"{self.name}.store")
        save(value, self.path(key))

    # ------------------------------------------------------------------
    # Claims: cross-process work coordination for the sweep service.
    # ------------------------------------------------------------------
    def claim(self, key: str, ttl_s: float = DEFAULT_CLAIM_TTL_S) -> bool:
        """Atomically claim the right to compute ``key``; True if won.

        N server instances sharing one cache directory use claims to
        split a sweep: exactly one process wins ``O_CREAT | O_EXCL`` on
        the claim file and computes the cell; the others poll the cache
        until the winner's result lands (see
        :class:`repro.service.scheduler.ShardScheduler`).  A claim left
        behind by a dead process goes stale after ``ttl_s`` seconds and
        is broken by the next claimer — losing a claim therefore delays a
        cell, never loses it.  Claims gate *who computes*, not *what* the
        result is, so they are invisible in the cached bytes.

        At most one claimer wins, as breaking is exclusive: breakers of a
        stale claim race to hard-link it under a name fixed by its inode
        and change time, and only the one whose link succeeds removes it.
        The link renews the change time, which ages claims, so a claim
        being broken is fresh to later breakers (and stale again after
        ``ttl_s``, under a new link name, if its breaker died).
        """
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self._break_stale(path, ttl_s):
                    break
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps({"pid": os.getpid()}))
            get_sink().incr(f"{self.name}.won")
            return True
        get_sink().incr(f"{self.name}.lost")
        return False

    def _break_stale(self, path: Path, ttl_s: float) -> bool:
        """Remove the claim at ``path`` if stale; False if it stands."""
        try:
            seen = path.stat()
        except FileNotFoundError:
            return True
        if _age(seen) <= ttl_s:
            return False
        marker = path.with_name(f"{path.name}.{seen.st_ino}.{seen.st_ctime_ns}.break")
        try:
            os.link(path, marker)
        except FileExistsError:  # another claimer is breaking it
            return False
        except FileNotFoundError:  # released meanwhile
            return True
        # The link took whatever ``path`` held by then: remove that only
        # if it is still the claim judged stale.
        linked = marker.stat()
        if (linked.st_ino, linked.st_mtime_ns) == (seen.st_ino, seen.st_mtime_ns):
            path.unlink(missing_ok=True)
            get_sink().incr(f"{self.name}.broken")
        marker.unlink()
        return True

    def release(self, key: str) -> None:
        """Drop a claim taken by :meth:`claim` (idempotent)."""
        self.path(key).unlink(missing_ok=True)

    def claim_age(self, key: str) -> Optional[float]:
        """Seconds since ``key`` was claimed, or ``None`` if unclaimed."""
        try:
            return _age(self.path(key).stat())
        except OSError:
            return None


def _age(claim: os.stat_result) -> float:
    # Read from the change time, which a break's link renews.  Claim
    # freshness is a scheduling hint between live processes; results
    # never read it (claims only decide who computes a cell).
    return max(0.0, time.time() - claim.st_ctime)  # repro-lint: ignore[det-wall-clock]
