"""Shared experiment infrastructure.

:class:`ExperimentContext` owns everything an experiment needs — traces
(disk-cached), the machine model, and the baseline (BTB-only) prediction
and timing results that every "reduction in execution time" cell is
measured against.  Every prediction and timing run goes through
:mod:`repro.runner`: results are memoised in-process per
``(benchmark, config)``, persisted in the on-disk result cache, and — via
:meth:`ExperimentContext.predictions` and
:meth:`ExperimentContext.cycle_counts` — fanned out over a process pool
when ``jobs > 1``.  Experiments prefetch their whole cell list up front so
the sweep parallelises, then read individual cells from the memo.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_sink
from repro.pipeline import MachineConfig
from repro.predictors import EngineConfig, PredictionStats
from repro.runner import (
    BACKENDS,
    ResultCache,
    SweepCell,
    TimedStats,
    default_jobs,
    run_cells,
)
from repro.trace.trace import Trace
from repro.workloads import get_trace

#: Benchmarks the paper's design-space tables focus on ("We will
#: concentrate on the gcc and perl benchmarks, the two benchmarks with the
#: largest number of indirect jumps", §4.1).
FOCUS_BENCHMARKS = ("perl", "gcc")

#: Experiment name -> module path, for the CLI.
EXPERIMENT_MODULES: Dict[str, str] = {
    "table1": "repro.experiments.table1",
    "figures1_8": "repro.experiments.figures1_8",
    "table2": "repro.experiments.table2",
    "table4": "repro.experiments.table4",
    "table5": "repro.experiments.table5",
    "table6": "repro.experiments.table6",
    "table7": "repro.experiments.table7",
    "table8": "repro.experiments.table8",
    "table9": "repro.experiments.table9",
    "figures12_13": "repro.experiments.figures12_13",
    "headline": "repro.experiments.headline",
    "oo_future_work": "repro.experiments.oo_future_work",
    "cascaded": "repro.experiments.cascaded",
    "modern": "repro.experiments.modern",
    "capacity": "repro.experiments.capacity",
    "server_btb": "repro.experiments.server_btb",
    "switch_lowering": "repro.experiments.switch_lowering",
    "calibration": "repro.experiments.calibration",
}


def default_trace_length() -> int:
    """Trace length for experiments (``REPRO_TRACE_LENGTH`` overrides)."""
    return int(os.environ.get("REPRO_TRACE_LENGTH", "400000"))


@dataclass
class ExperimentTable:
    """A printable experiment result."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Tuple[str, List[float]]]
    #: how to render the numbers: "percent", "count", or "float"; applies
    #: to every column unless ``column_formats`` overrides per column
    value_format: str = "percent"
    column_formats: Optional[List[str]] = None
    notes: str = ""

    def _format_for(self, column_index: int) -> str:
        if self.column_formats is not None:
            return self.column_formats[column_index]
        return self.value_format

    def format(self) -> str:
        label_width = max([len("")] + [len(label) for label, _ in self.rows]) + 2
        # Per-column widths: a long registry label (e.g. a parameterised
        # cascaded(...) header) widens only its own column.
        widths = [max(12, len(c) + 2) for c in self.columns]
        lines = [f"== {self.experiment_id}: {self.title}"]
        header = " " * label_width + "".join(
            f"{c:>{w}}" for c, w in zip(self.columns, widths)
        )
        lines.append(header)
        for label, values in self.rows:
            rendered = []
            for column_index, value in enumerate(values):
                fmt = self._format_for(column_index)
                col_width = widths[column_index]
                if value is None or (isinstance(value, float) and np.isnan(value)):
                    rendered.append(f"{'-':>{col_width}}")
                elif fmt == "percent":
                    rendered.append(f"{100 * value:>{col_width - 1}.2f}%")
                elif fmt == "count":
                    rendered.append(f"{int(value):>{col_width},}")
                else:
                    rendered.append(f"{value:>{col_width}.3f}")
            lines.append(f"{label:<{label_width}}" + "".join(rendered))
        if self.notes:
            lines.append(f"   note: {self.notes}")
        return "\n".join(lines)

    def cell(self, row_label: str, column: str) -> float:
        """Fetch one value by row label and column name (for tests)."""
        column_index = self.columns.index(column)
        for label, values in self.rows:
            if label == row_label:
                return values[column_index]
        raise KeyError(row_label)


class ExperimentContext:
    """Memoised traces, baselines and timing for one experiment session.

    ``jobs`` sets the process-pool width for batched sweeps (default: the
    ``REPRO_JOBS`` environment variable, else 1); ``use_result_cache``
    controls the persistent on-disk result cache (default: on, unless
    ``REPRO_RESULT_CACHE=0``); ``backend`` caps the per-cell execution
    tier (``--backend`` on the CLI; every tier is bit-identical).
    """

    def __init__(self, trace_length: Optional[int] = None, seed: int = 1997,
                 machine: Optional[MachineConfig] = None,
                 use_trace_cache: bool = True,
                 jobs: Optional[int] = None,
                 use_result_cache: bool = True,
                 backend: str = "auto") -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from "
                f"{', '.join(BACKENDS)}"
            )
        self.trace_length = trace_length or default_trace_length()
        self.seed = seed
        self.machine = machine or MachineConfig()
        self.use_trace_cache = use_trace_cache
        self.backend = backend
        self.jobs = default_jobs() if jobs is None else max(1, jobs)
        self._result_cache = ResultCache.from_env() if use_result_cache else None
        self._traces: Dict[str, Trace] = {}
        self._predictions: Dict[Tuple[str, EngineConfig], PredictionStats] = {}
        self._cycles: Dict[Tuple[str, EngineConfig], int] = {}

    # ------------------------------------------------------------------
    def trace(self, benchmark: str) -> Trace:
        if benchmark not in self._traces:
            self._traces[benchmark] = get_trace(
                benchmark, n_instructions=self.trace_length, seed=self.seed,
                use_cache=self.use_trace_cache,
            )
        return self._traces[benchmark]

    def _run(self, cells: List[SweepCell]) -> List[PredictionStats]:
        with get_sink().span("predictions", cells=len(cells),
                             jobs=self.jobs):
            return run_cells(
                cells, jobs=self.jobs,
                trace_length=self.trace_length, seed=self.seed,
                use_trace_cache=self.use_trace_cache,
                result_cache=self._result_cache,
                trace_provider=self.trace,
                backend=self.backend,
            )

    # ------------------------------------------------------------------
    def predictions(self, cells: Sequence[Tuple[str, EngineConfig]]
                    ) -> List[PredictionStats]:
        """Batch prediction API: the sweep fast path.

        Returns one :class:`PredictionStats` per ``(benchmark, config)``
        cell, in order.  Memoised cells are free; the rest go through
        :func:`repro.runner.run_cells` — persistent result cache first,
        then ``self.jobs`` worker processes.  Experiments call this once
        with every cell they will need, then read single cells through
        :meth:`prediction`, which hits the memo.
        """
        missing = [
            cell for cell in dict.fromkeys(cells)
            if cell not in self._predictions
        ]
        if missing:
            computed = self._run([SweepCell(*cell) for cell in missing])
            self._predictions.update(zip(missing, computed))
        return [self._predictions[cell] for cell in cells]

    def prediction(self, benchmark: str,
                   config: EngineConfig) -> PredictionStats:
        """Fetch-engine simulation, memoised per ``(benchmark, config)``."""
        return self.predictions([(benchmark, config)])[0]

    def baseline(self, benchmark: str) -> PredictionStats:
        """BTB-only prediction stats, memoised."""
        return self.prediction(benchmark, EngineConfig())

    def cycle_counts(self, cells: Sequence[Tuple[str, EngineConfig]]
                     ) -> List[int]:
        """Batch timing API: execution cycles of ``self.machine`` per cell.

        The cells run through :func:`repro.runner.run_cells` with the
        machine, so each is timed in the process that simulates it and
        its cycles persist under a :func:`~repro.runner.timing_key` — a
        warm re-run skips the timing model as well as the simulations.
        The stats that come back fill the prediction memo too.
        """
        missing = [
            cell for cell in dict.fromkeys(cells) if cell not in self._cycles
        ]
        if missing:
            computed = self._run([
                SweepCell(benchmark, config, self.machine)
                for benchmark, config in missing
            ])
            for cell, stats in zip(missing, computed):
                assert isinstance(stats, TimedStats)
                self._cycles[cell] = stats.cycles
                self._predictions.setdefault(cell, stats)
        return [self._cycles[cell] for cell in cells]

    def cycles(self, benchmark: str, config: EngineConfig) -> int:
        """Execution cycles of the machine with this predictor config."""
        return self.cycle_counts([(benchmark, config)])[0]

    def baseline_cycles(self, benchmark: str) -> int:
        """Cycles of the BTB-only base machine (the paper's reference)."""
        return self.cycles(benchmark, EngineConfig())

    def execution_time_reduction(self, benchmark: str,
                                 config: EngineConfig) -> float:
        """The paper's headline metric: (T_base - T_config) / T_base,
        where the base machine predicts indirect jumps with the BTB only."""
        base = self.baseline_cycles(benchmark)
        with_config = self.cycles(benchmark, config)
        return (base - with_config) / base if base else 0.0


def run_experiment(name: str, ctx: Optional[ExperimentContext] = None) -> ExperimentTable:
    """Run a named experiment and return its table."""
    if name not in EXPERIMENT_MODULES:
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(EXPERIMENT_MODULES))}"
        )
    module = importlib.import_module(EXPERIMENT_MODULES[name])
    with get_sink().span("experiment", experiment=name):
        return module.run(ctx or ExperimentContext())


def sweep_rows(labels: Sequence[str],
               values: Dict[str, List[float]]) -> List[Tuple[str, List[float]]]:
    """Build table rows from a dict keyed by row label."""
    return [(label, values[label]) for label in labels]
