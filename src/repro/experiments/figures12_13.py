"""Figures 12/13 — tagless (512 entries) vs tagged (256 entries).

The paper's closing comparison: for equal-ish cost, a tagless cache has
twice the entries but suffers interference; a tagged cache pays capacity
for isolation.  Finding: "a tagless target cache outperforms tagged target
caches with a small degree of set-associativity.  On the other hand, a
tagged target cache with 4 or more entries per set outperforms the tagless
target cache."  Both use gshare-style History-Xor indexing with 9-bit
global pattern history; metric is execution-time reduction, one series per
benchmark across the tagged cache's associativity.
"""

from __future__ import annotations

from repro.experiments.common import (
    FOCUS_BENCHMARKS,
    ExperimentContext,
    ExperimentTable,
)
from repro.experiments.configs import tagged_engine, tagless_engine
from repro.predictors import EngineConfig

ASSOCIATIVITIES = [1, 2, 4, 8, 16]


def run(ctx: ExperimentContext) -> ExperimentTable:
    cells = [(benchmark, EngineConfig()) for benchmark in FOCUS_BENCHMARKS]
    cells += [
        (benchmark, config)
        for benchmark in FOCUS_BENCHMARKS
        for config in [tagged_engine(assoc=a) for a in ASSOCIATIVITIES]
        + [tagless_engine()]
    ]
    ctx.cycle_counts(cells)
    columns = [f"tagged {a}-way" for a in ASSOCIATIVITIES] + ["tagless 512"]
    rows = []
    for benchmark in FOCUS_BENCHMARKS:
        values = [
            ctx.execution_time_reduction(benchmark, tagged_engine(assoc=assoc))
            for assoc in ASSOCIATIVITIES
        ]
        values.append(
            ctx.execution_time_reduction(benchmark, tagless_engine())
        )
        rows.append((benchmark, values))
    return ExperimentTable(
        experiment_id="Figures 12-13",
        title="Tagless (512e) vs tagged (256e) target cache "
              "(exec-time reduction)",
        columns=columns,
        rows=rows,
        notes="paper crossover: tagless beats 1-2 way tagged; >=4-way "
              "tagged beats tagless",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
