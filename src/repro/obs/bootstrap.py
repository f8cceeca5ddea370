"""Process-global sink lifecycle: the single place obs is switched on.

Instrumented modules call :func:`get_sink` at use time and never cache the
result across runs, so installing a sink here retroactively lights up the
whole stack.  The default is :data:`~repro.obs.core.NULL_SINK` — nothing
records unless the CLI (or a library user) opts in.

``REPRO_OBS`` is the only environment knob, read in exactly one place
(:func:`bootstrap`):

* unset / ``0`` / ``off`` / ``no`` / ``false`` — disabled;
* ``1`` / ``on`` / ``true`` / ``yes`` — ledger at ``repro_ledger.jsonl``
  in the current directory;
* anything else — treated as the ledger path itself (``REPRO_RESULT_CACHE``
  follows the same rule through :func:`parse_switch`).

The CLI's ``--no-obs`` wins over everything, and ``--obs-ledger FILE``
wins over the environment; both funnel through :func:`bootstrap`.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.obs.core import NULL_SINK, Sink
from repro.obs.ledger import LedgerSink

#: Ledger location when ``REPRO_OBS`` merely says "on".
DEFAULT_LEDGER = "repro_ledger.jsonl"

#: ``REPRO_OBS`` values meaning "disabled".
_OFF_VALUES = {"", "0", "off", "no", "false"}

#: ``REPRO_OBS`` values meaning "enabled, default path".
_ON_VALUES = {"1", "on", "true", "yes"}

_SINK: Sink = NULL_SINK


def parse_switch(value: str, default: str) -> Optional[str]:
    """An off / on / path switch such as ``REPRO_OBS``: ``None`` when off,
    ``default`` when on (as listed above), else ``value`` itself as a path.
    """
    lowered = value.strip().lower()
    if lowered in _OFF_VALUES:
        return None
    return default if lowered in _ON_VALUES else value


def get_sink() -> Sink:
    """The process-global sink (the disabled :data:`NULL_SINK` by default)."""
    return _SINK


def install(sink: Sink) -> Sink:
    """Make ``sink`` the process-global sink; returns the previous one."""
    # Workers reach this via attach_worker to replace a fork-inherited
    # parent sink with their own shard writer — a swap that must be
    # per-process, and telemetry never feeds back into results.
    global _SINK  # repro-lint: ignore[worker-global-write]
    previous = _SINK
    _SINK = sink
    return previous


def shutdown() -> None:
    """Close the current sink (merging shards) and restore the null sink."""
    global _SINK
    sink = _SINK
    _SINK = NULL_SINK
    sink.close()


def attach_worker(ledger_path: str) -> Sink:
    """Install a worker-role ledger sink (pool initializer entry point).

    Workers append to their own pid-named shard and flush at chunk
    boundaries; the parent merges after the pool drains.  Under a fork
    start method the child would otherwise inherit the *parent's* sink —
    and its shard path — so this must run before any worker telemetry.
    """
    return install(LedgerSink(ledger_path, role="worker"))


def bootstrap(ledger: Optional[Union[str, os.PathLike[str]]] = None,
              disable: bool = False) -> Sink:
    """Install the sink the environment/flags ask for, and return it.

    ``disable`` (the CLI's ``--no-obs``) forces the null sink regardless
    of the environment; ``ledger`` (``--obs-ledger FILE``) forces a ledger
    at that path.  Otherwise ``REPRO_OBS`` decides, as documented above.
    This is the single place the environment is consulted, and it only
    gates *telemetry* — simulation results are identical with obs on or
    off (``tests/test_obs_ledger.py`` asserts it).
    """
    if disable:
        sink: Sink = NULL_SINK
    elif ledger is not None:
        sink = LedgerSink(ledger)
    else:
        value = os.environ.get("REPRO_OBS", "")  # repro-lint: ignore[det-env-read]
        path = parse_switch(value, DEFAULT_LEDGER)
        sink = NULL_SINK if path is None else LedgerSink(path)
    install(sink)
    return sink
