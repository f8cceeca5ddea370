"""Table 8 — tagged target caches indexed with path history.

256-entry History-Xor tagged caches whose history is a 9-bit *path*
register (1 bit per target, the best §4.2.2 configuration), across the
five path schemes and a set-associativity sweep.  Paper finding: "as in
the tagless schemes, using pattern history results in better performance
for gcc and using global path history results in better performance for
perl" — compare against Table 9's pattern-history numbers.
"""

from __future__ import annotations

from repro.experiments.common import (
    FOCUS_BENCHMARKS,
    ExperimentContext,
    ExperimentTable,
)
from repro.experiments.configs import (
    PATH_SCHEME_LABELS,
    path_scheme_history,
    tagged_engine,
)
from repro.predictors import EngineConfig

ASSOCIATIVITIES = [1, 2, 4, 8, 16]


def _config(scheme: str, assoc: int) -> EngineConfig:
    history = path_scheme_history(scheme, bits=9, bits_per_target=1)
    return tagged_engine(assoc=assoc, history=history)


def run(ctx: ExperimentContext) -> ExperimentTable:
    cells = [(benchmark, EngineConfig()) for benchmark in FOCUS_BENCHMARKS]
    cells += [
        (benchmark, _config(scheme, assoc))
        for benchmark in FOCUS_BENCHMARKS
        for assoc in ASSOCIATIVITIES
        for scheme in PATH_SCHEME_LABELS
    ]
    ctx.cycle_counts(cells)
    rows = []
    for benchmark in FOCUS_BENCHMARKS:
        for assoc in ASSOCIATIVITIES:
            values = [
                ctx.execution_time_reduction(benchmark, _config(scheme, assoc))
                for scheme in PATH_SCHEME_LABELS
            ]
            rows.append((f"{benchmark} {assoc}-way", values))
    return ExperimentTable(
        experiment_id="Table 8",
        title="Tagged target cache with 9-bit path history "
              "(exec-time reduction)",
        columns=list(PATH_SCHEME_LABELS),
        rows=rows,
        notes="compare to Table 9 pattern history: path wins on perl, "
              "pattern wins on gcc (paper §4.3.2)",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
