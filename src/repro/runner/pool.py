"""Process-pool sweep executor.

:func:`run_cells` fans ``(benchmark, EngineConfig)`` cells out across
worker processes.  The design goals, in order:

1. **Bit-identical results** regardless of ``jobs``: every cell simulates a
   fresh engine over the identical trace, results are reassembled by cell
   index, and nothing about scheduling leaks into the outputs.
2. **Ship each trace once per worker**, not once per cell: workers receive
   only ``(benchmark, config)`` descriptors (small frozen dataclasses) and
   load traces themselves from the on-disk trace cache, memoising both the
   trace and its decoded branch rows for every subsequent cell.
3. **Pay for the per-branch walk once per (trace, base config)**: cells are
   grouped by :func:`~repro.predictors.streams.stream_signature`, each
   worker memoises the :class:`~repro.predictors.streams.BranchStreams`
   for the signatures it sees, and every cell runs through the fastest
   execution tier its config supports — the vectorized columnar kernel
   (:func:`~repro.predictors.vector.simulate_vector`) for kinds whose
   registered traits declare ``vectorizable``, the stream kernel
   (:func:`~repro.predictors.streams.simulate_streamed`) otherwise — both
   bit-identical to the reference engine, with per-cell cost proportional
   to the target-cache-relevant subset of branches.  Cells the stream
   kernel cannot represent (history wider than 64 bits) fall back to
   :func:`~repro.predictors.engine.simulate` per cell.  ``backend`` caps
   the ladder (``--backend`` on the CLI): ``auto``/``vector`` pick the
   fastest supported tier per cell, ``streams`` and ``engine`` force the
   lower tiers; unsupported cells always degrade downward, never error.
4. **Timing beside the trace**: a cell with a ``machine`` runs the
   timing model (:func:`~repro.pipeline.run_timing`) in the process that
   simulated it, against that process's memoised memory penalties, and
   comes back as :class:`TimedStats` carrying the cycle count.  The
   per-instruction mispredict mask the timing model reads is dropped
   where it was made: it never crosses a process boundary or reaches the
   disk.
5. **Near-free warm re-runs**: cells whose
   :func:`~repro.runner.keys.cell_key` (and, for timed cells,
   :func:`~repro.runner.keys.timing_key`) is already in the persistent
   :class:`~repro.runner.cache.ResultCache` never reach a worker.

The serial path (``jobs=1``) runs in-process through the same per-cell
function and memos as the workers, so even single-core sweeps amortise
the per-branch walk.  A
worker pool that breaks mid-sweep (a worker killed by the OOM killer or a
signal) is downgraded to the serial path for whatever cells were still
outstanding, with a warning.

Every layer is instrumented through :mod:`repro.obs` (a no-op unless a
run ledger is enabled): per-cell spans with the kernel used, result-cache
hit/miss counters, stream build/reuse telemetry, chunk-scheduling events,
and pool lifecycle events (including ``BrokenProcessPool`` recovery).
When the parent's sink is a ledger, workers attach their own shard via
the pool initializer and flush at chunk boundaries.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar

import numpy.typing as npt

from repro.obs import attach_worker, get_sink
from repro.pipeline import MachineConfig, memory_penalties, run_timing
from repro.predictors import (
    BranchStreams,
    DecodedBranches,
    EngineConfig,
    PredictionStats,
    Spec,
    StreamConfig,
    build_streams,
    decode_branches,
    load_plugins,
    plugin_modules,
    simulate,
    simulate_streamed,
    simulate_vector,
    stream_signature,
    streams_supported,
    vector_supported,
)
from repro.runner.cache import ResultCache
from repro.runner.keys import cell_key, timing_key
from repro.trace.trace import Trace
from repro.workloads import get_trace


#: Execution-tier caps accepted by :func:`run_cells` (and ``--backend``).
BACKENDS = ("auto", "engine", "streams", "vector")

#: One cell of a chunk: ``(position, config, machine to time it on)``.
_Item = Tuple[int, EngineConfig, Optional[MachineConfig]]


def _cell_backend(config: EngineConfig, backend: str) -> str:
    """Resolve the execution tier serving one cell under a backend cap.

    ``backend`` caps the *maximum* tier; a cell whose config a tier cannot
    represent degrades to the next one down (vector -> streams -> engine),
    so results never depend on the cap — only speed does.  ``auto`` and
    ``vector`` behave identically: the cap is already the top of the
    ladder.
    """
    if backend == "engine":
        return "engine"
    if backend != "streams" and vector_supported(config):
        return "vector"
    if streams_supported(config):
        return "streams"
    return "engine"


@dataclass(frozen=True)
class SweepCell:
    """One sweep cell: simulate ``benchmark`` under ``config``.

    With a ``machine``, the cell is also timed on that machine, in the
    process that simulated it: the result is a :class:`TimedStats`, and
    the per-instruction mispredict mask the timing model reads never
    leaves that process.
    """

    benchmark: str
    config: EngineConfig
    machine: Optional[MachineConfig] = None


@dataclass
class TimedStats(PredictionStats):
    """Stats of a cell run with a machine, plus that machine's cycles."""

    cycles: int = 0


def _timed(stats: PredictionStats, cycles: int) -> TimedStats:
    return TimedStats(**{**vars(stats), "mispredict_mask": None},
                      cycles=cycles)


def default_jobs() -> int:
    """Worker-process count when the caller does not specify one.

    ``REPRO_JOBS`` overrides; the default is 1 (serial) so library users
    and tests never fork unless asked to.
    """
    # Sizes the worker pool; results are reassembled by cell index and do
    # not depend on parallelism.
    value = os.environ.get("REPRO_JOBS", "").strip()  # repro-lint: ignore[det-env-read]
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            warnings.warn(f"ignoring non-integer REPRO_JOBS={value!r}")
    return 1


# ----------------------------------------------------------------------
# Per-cell execution, shared by pool workers and the serial path.
# ----------------------------------------------------------------------
@dataclass
class _Memo:
    """One process's traces and everything derived from them.

    A pool worker keeps one for its lifetime (``_WORKER_STATE``); the
    serial path builds one per benchmark.  Each trace, decode, stream set
    and penalty array is built at most once and is a deterministic
    function of its key, so memos replicated across workers cannot make
    results diverge.
    """

    trace_length: int
    seed: int
    use_trace_cache: bool
    backend: str
    trace_provider: Optional[Callable[[str], Trace]] = None
    loaded: Dict[str, Tuple[Trace, DecodedBranches]] = field(
        default_factory=dict)
    streams: Dict[Tuple[str, StreamConfig], BranchStreams] = field(
        default_factory=dict)
    penalties: Dict[Tuple[str, str], "npt.NDArray[Any]"] = field(
        default_factory=dict)


def _load_trace(memo: _Memo, benchmark: str) -> Trace:
    if memo.trace_provider is not None:
        return memo.trace_provider(benchmark)
    return get_trace(benchmark, n_instructions=memo.trace_length,
                     seed=memo.seed, use_cache=memo.use_trace_cache)


def _loaded(memo: _Memo, benchmark: str) -> Tuple[Trace, DecodedBranches]:
    loaded = memo.loaded.get(benchmark)
    if loaded is None:
        trace = _load_trace(memo, benchmark)
        loaded = memo.loaded[benchmark] = (trace, decode_branches(trace))
    return loaded


def _streams(memo: _Memo, benchmark: str,
             config: EngineConfig) -> BranchStreams:
    signature = stream_signature(config)
    streams = memo.streams.get((benchmark, signature))
    if streams is None:
        with get_sink().span("streams.build", benchmark=benchmark):
            streams = build_streams(_loaded(memo, benchmark)[1], signature)
        memo.streams[(benchmark, signature)] = streams
    else:
        get_sink().incr("streams.reuse")
    return streams


def _penalties(memo: _Memo, benchmark: str,
               machine: MachineConfig) -> "npt.NDArray[Any]":
    key = (benchmark, repr(machine))
    penalties = memo.penalties.get(key)
    if penalties is None:
        penalties = memory_penalties(_loaded(memo, benchmark)[0], machine)
        memo.penalties[key] = penalties
    return penalties


def _run_cell(memo: _Memo, benchmark: str, config: EngineConfig,
              machine: Optional[MachineConfig]) -> PredictionStats:
    """Simulate one cell on the fastest tier ``memo.backend`` allows.

    With a ``machine`` the cell is timed right here, next to its trace,
    and the mispredict mask is dropped before the stats leave.
    """
    trace, decoded = _loaded(memo, benchmark)
    sink = get_sink()
    tier = _cell_backend(config, memo.backend)
    sink.incr(f"runner.backend.{tier}")
    # Each kernel's third argument asks for the mispredict mask.
    timed = machine is not None
    if tier == "vector":
        streams = _streams(memo, benchmark, config)
        with sink.span("cell", benchmark=benchmark, kernel="vector"):
            stats = simulate_vector(streams, config, timed)
    elif tier == "streams":
        streams = _streams(memo, benchmark, config)
        with sink.span("cell", benchmark=benchmark, kernel="stream"):
            stats = simulate_streamed(streams, config, timed)
    else:
        if memo.backend != "engine":
            sink.incr("streams.fallback_reference")
        with sink.span("cell", benchmark=benchmark, kernel="reference"):
            stats = simulate(trace, config, timed, decoded)
    if machine is None:
        return stats
    with sink.span("timing", benchmark=benchmark):
        result = run_timing(trace, machine, stats.mispredict_mask,
                            _penalties(memo, benchmark, machine))
    return _timed(stats, result.cycles)


# ----------------------------------------------------------------------
# Worker side.  The memo lives in a module global set by the pool
# initializer; each worker loads/decodes a benchmark's trace at most once.
# ----------------------------------------------------------------------
_WORKER_STATE: Optional[_Memo] = None


def _init_worker(trace_length: int, seed: int, use_trace_cache: bool,
                 trace_cache_dir: Optional[str],
                 ledger_path: Optional[str],
                 predictor_plugins: Tuple[str, ...] = (),
                 backend: str = "auto") -> None:
    # The whole point of the initializer is to install per-worker state;
    # it never leaks into results (cells are pure functions of their
    # spec) and each worker owns its copy exclusively.
    global _WORKER_STATE  # repro-lint: ignore[worker-global-write]
    if trace_cache_dir is not None:
        # Propagate the parent's cache location even under a spawn start
        # method, where mutated parent environment is not inherited.
        # Written once, before any task runs, in this process only.
        os.environ["REPRO_TRACE_CACHE"] = trace_cache_dir  # repro-lint: ignore[det-env-read, worker-env-mutate]
    if ledger_path is not None:
        # Replace any fork-inherited parent sink with a worker-role sink
        # writing this process's own ledger shard.
        attach_worker(ledger_path)
    if predictor_plugins:
        # Re-import the modules that registered third-party predictor
        # kinds in the parent so the same kinds resolve here.  Under the
        # fork start method the registrations are inherited anyway; this
        # covers spawn, where the worker starts from a fresh interpreter.
        load_plugins(predictor_plugins)
    _WORKER_STATE = _Memo(trace_length, seed, use_trace_cache, backend)


def _run_chunk(benchmark: str, items: List[_Item]
               ) -> List[Tuple[int, PredictionStats]]:
    memo = _WORKER_STATE
    assert memo is not None, "worker used before _init_worker"
    out = [(index, _run_cell(memo, benchmark, config, machine))
           for index, config, machine in items]
    # Chunk boundary: persist this worker's shard so nothing is lost if
    # the pool later breaks (the parent merges whatever was flushed).
    get_sink().flush()
    return out


def _service_cell(benchmark: str, config: EngineConfig) -> PredictionStats:
    """Worker entry point for single-cell service submissions.

    The sweep service schedules cells one at a time (its shard scheduler
    owns batching, dedup and cache policy in the parent), so its pool
    tasks are single cells rather than chunks.  Delegates to
    :func:`_run_chunk` so the per-worker trace/stream memos and execution
    tiers behave identically to batch sweeps — a cell computes the same
    bytes no matter which front end submitted it.
    """
    return _run_chunk(benchmark, [(0, config, None)])[0][1]


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------
_T = TypeVar("_T")


def _group_by_signature(items: List[_Item]) -> List[_Item]:
    """Reorder ``items`` so cells sharing a stream signature are adjacent.

    Chunked contiguously, cells with one signature land in as few workers
    as possible, so each :class:`BranchStreams` is built at most once per
    worker that needs it (results are reassembled by cell index, so the
    order here never leaks into outputs).  Unsupported cells group under
    ``None``.  First-seen signature order keeps the schedule deterministic.
    """
    groups: Dict[Optional[StreamConfig], List[_Item]] = {}
    for item in items:
        config = item[1]
        signature = (
            stream_signature(config) if streams_supported(config) else None
        )
        groups.setdefault(signature, []).append(item)
    return [item for group in groups.values() for item in group]


def _split_chunks(items: List[_T], pieces: int) -> List[List[_T]]:
    if not items:
        return []
    pieces = max(1, min(pieces, len(items)))
    base, extra = divmod(len(items), pieces)
    chunks: List[List[_T]] = []
    start = 0
    for i in range(pieces):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


def run_cells(cells: Sequence[SweepCell], jobs: Optional[int] = None, *,
              trace_length: int = 400_000, seed: int = 1997,
              use_trace_cache: bool = True,
              result_cache: Optional[ResultCache] = None,
              trace_provider: Optional[Callable[[str], Trace]] = None,
              backend: str = "auto"
              ) -> List[PredictionStats]:
    """Simulate every cell, returning stats in the order given.

    Cells with a machine come back as :class:`TimedStats`.
    ``result_cache`` (usually :meth:`ResultCache.from_env`) short-circuits
    cells simulated or timed before; ``trace_provider`` lets a caller with
    traces already in memory (e.g. ``ExperimentContext.trace``) supply
    them instead of hitting the disk cache.  Duplicate cells are
    simulated once.  ``backend`` caps the execution tier (see
    :data:`BACKENDS`); every tier is bit-identical, so cached results are
    shared across backends.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {', '.join(BACKENDS)}"
        )
    jobs = default_jobs() if jobs is None else max(1, jobs)
    sink = get_sink()

    # Deduplicate, then consult the persistent cache: stats under the
    # cell key, cycles (for timed cells) under the timing key.  A
    # MachineConfig holds a dict, so is unhashable: its repr keys it.
    unique: Dict[Tuple[str, EngineConfig, str], List[int]] = {}
    for index, cell in enumerate(cells):
        unique.setdefault(
            (cell.benchmark, cell.config, repr(cell.machine)), []
        ).append(index)
    # Each config's spec is rendered once for all the benchmarks that
    # share it.  Memoised by identity, not equality: equal configs can
    # render different specs (a field holding True or 1, 0.0 or -0.0),
    # and every key must stay exactly cell_key's.
    specs: Dict[int, Spec] = {}
    results: List[Optional[PredictionStats]] = [None] * len(cells)
    # (cell to compute, result indices, key to store stats under, key to
    # store cycles under, cycles the cache already had)
    pending: List[Tuple[SweepCell, List[int], Optional[str], Optional[str],
                        Optional[int]]] = []
    for indices in unique.values():
        cell = cells[indices[0]]
        stats: Optional[PredictionStats] = None
        cycles: Optional[int] = None
        key: Optional[str] = None
        cycles_key: Optional[str] = None
        if result_cache is not None:
            spec = specs.get(id(cell.config))
            if spec is None:
                spec = specs[id(cell.config)] = cell.config.to_spec()
            key = cell_key(cell.benchmark, cell.config, trace_length, seed,
                           spec=spec)
            stats = result_cache.load(key)
            sink.incr("runner.cell_cache.hit" if stats is not None
                      else "runner.cell_cache.miss")
            if cell.machine is not None:
                cycles_key = timing_key(cell.benchmark, cell.config,
                                        trace_length, seed, cell.machine,
                                        spec=spec)
                cycles = result_cache.load_cycles(cycles_key)
        if stats is not None and (cell.machine is None or cycles is not None):
            hit = stats if cycles is None else _timed(stats, cycles)
            for i in indices:
                results[i] = hit
            continue
        # Timing needs the mask, which only a fresh simulation has: a
        # cell whose cycles missed recomputes even if its stats hit.
        pending.append((
            SweepCell(cell.benchmark, cell.config,
                      cell.machine if cycles is None else None),
            indices,
            key if stats is None else None,
            cycles_key if cycles is None else None,
            cycles,
        ))

    # Each result is stored as it arrives, so an interrupted sweep keeps
    # every cell that finished.
    for position, stats in _compute([item[0] for item in pending], jobs,
                                    trace_length, seed, use_trace_cache,
                                    trace_provider, backend):
        _, indices, key, cycles_key, cycles = pending[position]
        if result_cache is not None and key is not None:
            result_cache.store(key, stats)
        if result_cache is not None and cycles_key is not None:
            assert isinstance(stats, TimedStats)
            result_cache.store_cycles(cycles_key, stats.cycles)
        if cycles is not None:
            stats = _timed(stats, cycles)
        for i in indices:
            results[i] = stats
    return results  # type: ignore[return-value]


def _compute(pending: List[SweepCell], jobs: int,
             trace_length: int, seed: int, use_trace_cache: bool,
             trace_provider: Optional[Callable[[str], Trace]],
             backend: str = "auto"
             ) -> Iterator[Tuple[int, PredictionStats]]:
    """Run ``pending`` cells serially or via the pool.

    Yields ``(position in pending, stats)`` as each cell finishes: per
    cell on the serial path, per completed chunk on the pool path.
    """
    by_benchmark: Dict[str, List[_Item]] = {}
    for position, cell in enumerate(pending):
        by_benchmark.setdefault(cell.benchmark, []).append(
            (position, cell.config, cell.machine)
        )

    sink = get_sink()
    if jobs <= 1 or len(pending) <= 1:
        for benchmark, items in by_benchmark.items():
            memo = _Memo(trace_length, seed, use_trace_cache, backend,
                         trace_provider)
            for position, config, machine in items:
                yield position, _run_cell(memo, benchmark, config, machine)
        return

    # Parallel path: make sure each trace exists on disk exactly once
    # before forking, so workers load rather than regenerate it.
    if use_trace_cache:
        parent = _Memo(trace_length, seed, use_trace_cache, backend,
                       trace_provider)
        for benchmark in by_benchmark:
            _load_trace(parent, benchmark)
    chunks = [
        (benchmark, chunk)
        for benchmark, items in by_benchmark.items()
        for chunk in _split_chunks(_group_by_signature(items), jobs)
    ]
    workers = min(jobs, len(chunks))
    sink.gauge("pool.jobs", workers)
    for benchmark, chunk in chunks:
        sink.event("pool.chunk", benchmark=benchmark, cells=len(chunk))
    pool_broke = False
    finished: Set[int] = set()
    try:
        with sink.span("pool.run", jobs=workers, chunks=len(chunks),
                       cells=len(pending)):
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                # Forwarding the trace-cache location to workers relocates
                # files only; trace fingerprints key the cached contents.
                initargs=(trace_length, seed, use_trace_cache,
                          os.environ.get("REPRO_TRACE_CACHE"),  # repro-lint: ignore[det-env-read]
                          sink.ledger_path,
                          tuple(plugin_modules()),
                          backend),
            ) as pool:
                try:
                    futures = [
                        pool.submit(_run_chunk, benchmark, chunk)
                        for benchmark, chunk in chunks
                    ]
                    for future in as_completed(futures):
                        for position, stats in future.result():
                            finished.add(position)
                            yield position, stats
                except BrokenProcessPool as exc:
                    # A worker died mid-sweep (OOM killer, signal, crash).
                    # Chunks that already returned are kept; everything
                    # else is recomputed serially below.
                    pool_broke = True
                    sink.event("pool.broken", error=str(exc))
                    warnings.warn(
                        f"worker pool broke mid-sweep ({exc}); finishing "
                        "the remaining cells serially"
                    )
    except (OSError, PermissionError) as exc:  # e.g. sandboxed /dev/shm
        sink.event("pool.unavailable", error=str(exc))
        warnings.warn(
            f"process pool unavailable ({exc}); running sweep serially"
        )
        yield from _compute(pending, 1, trace_length, seed, use_trace_cache,
                            trace_provider, backend)
        return
    if pool_broke:
        remaining = [i for i in range(len(pending)) if i not in finished]
        sink.event("pool.recovery", cells=len(remaining))
        for i, stats in _compute([pending[i] for i in remaining], 1,
                                 trace_length, seed, use_trace_cache,
                                 trace_provider, backend):
            yield remaining[i], stats


# ----------------------------------------------------------------------
# Reentrant pool handle (the sweep service's execution backend).
# ----------------------------------------------------------------------
class SweepPool:
    """A long-lived, reentrant pool handle for single-cell submissions.

    :func:`run_cells` owns its pool for the duration of one sweep and
    tears it down after; a long-running server wants the opposite — one
    warm pool whose workers keep their trace/stream memos across requests
    — and it submits from an asyncio event loop, one cell at a time, via
    ``loop.run_in_executor(pool.executor, ...)``.  ``jobs >= 1`` builds a
    :class:`ProcessPoolExecutor` with the same initializer as
    :func:`run_cells`, so every worker-side memo and execution-tier rule
    applies unchanged.  ``jobs == 0`` (or :meth:`degrade_to_thread` after
    a broken/unavailable process pool) swaps in a single-thread executor
    that runs :func:`_init_worker` in its one thread: the same worker
    machinery, serialised, with no fork — the fallback for sandboxed
    environments and the deterministic mode tests use.

    Thread mode deliberately passes ``ledger_path=None`` and
    ``trace_cache_dir=None`` to the initializer: the "worker" shares the
    parent process, whose sink and environment are already in place —
    attaching a worker-role sink in-process would clobber the parent's.
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 trace_length: int = 400_000, seed: int = 1997,
                 use_trace_cache: bool = True, backend: str = "auto") -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from "
                f"{', '.join(BACKENDS)}"
            )
        self.jobs = default_jobs() if jobs is None else max(0, jobs)
        self.trace_length = trace_length
        self.seed = seed
        self.use_trace_cache = use_trace_cache
        self.backend = backend
        self._mode = "process" if self.jobs >= 1 else "thread"
        self._executor: Optional[Executor] = None

    @property
    def mode(self) -> str:
        """``"process"`` or ``"thread"`` (the degraded/inline mode)."""
        return self._mode

    @property
    def workers(self) -> int:
        return self.jobs if self._mode == "process" else 1

    @property
    def executor(self) -> Executor:
        """The live executor, built lazily on first use."""
        if self._executor is None:
            if self._mode == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_worker,
                    initargs=(self.trace_length, self.seed,
                              self.use_trace_cache,
                              os.environ.get("REPRO_TRACE_CACHE"),  # repro-lint: ignore[det-env-read]
                              get_sink().ledger_path,
                              tuple(plugin_modules()),
                              self.backend),
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix="repro-sweep",
                    initializer=_init_worker,
                    initargs=(self.trace_length, self.seed,
                              self.use_trace_cache, None, None, (),
                              self.backend),
                )
        return self._executor

    def degrade_to_thread(self) -> None:
        """Swap a broken/unavailable process pool for the thread fallback.

        Idempotent; pending futures on the old executor are abandoned to
        their owners (the scheduler resubmits), and results are unaffected
        — every execution mode is bit-identical by construction.
        """
        old = self._executor
        self._mode = "thread"
        self._executor = None
        get_sink().event("pool.degraded", mode="thread")
        if old is not None:
            old.shutdown(wait=False)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
