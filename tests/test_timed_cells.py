"""Cycles are a cell product: every way of timing a cell agrees.

The timing model runs in whichever process simulates a cell, so the
cycles of ``run_cells`` with a pool, ``run_cells`` in-process and a
direct ``run_timing`` over a freshly collected mispredict mask must be
bit-identical — for every config the paper's execution-time tables time.
"""

import importlib

import pytest

from repro.experiments.common import EXPERIMENT_MODULES, ExperimentContext
from repro.pipeline import MachineConfig, memory_penalties, run_timing
from repro.predictors import PredictionStats, simulate
from repro.runner import SweepCell, TimedStats, run_cells
from repro.workloads import get_trace

TRACE_LENGTH = 4_000

#: The experiments with an execution-time column.
TIMED_EXPERIMENTS = ("table5", "table6", "table7", "table8", "table9",
                     "figures12_13", "headline", "oo_future_work")


class _RecordingContext(ExperimentContext):
    """Collects the configs an experiment times, computing nothing."""

    def __init__(self):
        super().__init__(trace_length=TRACE_LENGTH, use_result_cache=False)
        self.timed = []

    def cycle_counts(self, cells):
        self.timed.extend(config for _, config in cells)
        return [1] * len(cells)

    def predictions(self, cells):
        return [PredictionStats() for _ in cells]


def _timed_configs():
    ctx = _RecordingContext()
    for name in TIMED_EXPERIMENTS:
        importlib.import_module(EXPERIMENT_MODULES[name]).run(ctx)
    return list(dict.fromkeys(ctx.timed))


@pytest.mark.parametrize("workload", ["perl", "gcc"])
def test_cycles_bit_identical_across_pool_serial_and_direct(workload):
    configs = _timed_configs()
    assert len(configs) > 50
    machine = MachineConfig()
    cells = [SweepCell(workload, config, machine) for config in configs]
    pooled = run_cells(cells, jobs=2, trace_length=TRACE_LENGTH)
    serial = run_cells(cells, jobs=1, trace_length=TRACE_LENGTH)
    trace = get_trace(workload, n_instructions=TRACE_LENGTH)
    penalties = memory_penalties(trace, machine)
    for config, one, two in zip(configs, pooled, serial):
        mask = simulate(trace, config, collect_mask=True).mispredict_mask
        direct = run_timing(trace, machine, mask, penalties).cycles
        assert isinstance(one, TimedStats) and isinstance(two, TimedStats)
        assert one.cycles == two.cycles == direct, config
        assert one.mispredict_mask is None and two.mispredict_mask is None
