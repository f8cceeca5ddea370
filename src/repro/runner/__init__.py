"""Parallel sweep execution with persistent result caching.

The paper's tables are design-space sweeps over hundreds of
``(benchmark, EngineConfig)`` cells.  This package is the execution layer
that makes them fast and repeatable:

* :func:`run_cells` — fan cells out over a process pool (``jobs`` workers,
  ``REPRO_JOBS`` default), each worker loading and decoding every trace at
  most once; results come back in deterministic cell order and are
  bit-identical to a serial run.  A cell given a ``machine`` is timed in
  the worker too and returns :class:`TimedStats` with its cycle count;
* :class:`ResultCache` — an on-disk store keyed by
  :func:`~repro.runner.keys.cell_key` (trace fingerprint + full engine
  config + simulator-code hash) so unchanged cells are never re-simulated,
  with ``REPRO_RESULT_CACHE=0`` / ``--no-result-cache`` as the bypass;
* :mod:`~repro.runner.keys` — the stable hashing underneath.

``ExperimentContext`` routes every experiment through this layer; use it
directly for custom sweeps::

    from repro.runner import SweepCell, run_cells
    stats = run_cells(
        [SweepCell("perl", config) for config in configs],
        jobs=8, trace_length=400_000, seed=1997,
    )
"""

from repro.runner.cache import ResultCache
from repro.runner.keys import (
    CELL_KEY_VERSION,
    cell_key,
    config_token,
    engine_code_fingerprint,
    timing_code_fingerprint,
    timing_key,
)
from repro.runner.pool import (
    BACKENDS,
    SweepCell,
    SweepPool,
    TimedStats,
    default_jobs,
    run_cells,
)
from repro.store import DEFAULT_CLAIM_TTL_S

__all__ = [
    "BACKENDS",
    "CELL_KEY_VERSION",
    "DEFAULT_CLAIM_TTL_S",
    "ResultCache",
    "SweepCell",
    "SweepPool",
    "TimedStats",
    "cell_key",
    "config_token",
    "default_jobs",
    "engine_code_fingerprint",
    "run_cells",
    "timing_code_fingerprint",
    "timing_key",
]
