"""Table 6 — path history: bits recorded per target address.

With a fixed 9-bit register there is "a tradeoff between identifying more
branches in the past history and better identifying each branch": recording
k bits per target keeps only 9/k targets.  The paper finds the benefit
*decreases* as bits-per-target increases (especially for the Control and
Branch schemes, whose uncorrelated entries displace useful history), i.e.
one well-chosen bit from each of nine targets beats three bits from each of
three targets.
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
    tagless_engine,
)
from repro.predictors import EngineConfig

BITS_PER_TARGET = [1, 2, 3]


def _config(scheme: str, bits_per_target: int) -> EngineConfig:
    history = path_scheme_history(
        scheme, bits=9, bits_per_target=bits_per_target, address_bit=2
    )
    return tagless_engine(history=history)


def run(ctx: ExperimentContext) -> ExperimentTable:
    cells = [(benchmark, EngineConfig()) for benchmark in FOCUS_BENCHMARKS]
    cells += [
        (benchmark, _config(scheme, bits_per_target))
        for benchmark in FOCUS_BENCHMARKS
        for bits_per_target in BITS_PER_TARGET
        for scheme in PATH_SCHEME_LABELS
    ]
    ctx.cycle_counts(cells)
    rows = []
    for benchmark in FOCUS_BENCHMARKS:
        for bits_per_target in BITS_PER_TARGET:
            values = [
                ctx.execution_time_reduction(
                    benchmark, _config(scheme, bits_per_target)
                )
                for scheme in PATH_SCHEME_LABELS
            ]
            rows.append((f"{benchmark} {bits_per_target}b/target", values))
    return ExperimentTable(
        experiment_id="Table 6",
        title="Path history bits-per-target: execution-time reduction",
        columns=list(PATH_SCHEME_LABELS),
        rows=rows,
        notes="paper: with 9 history bits, more bits per target = fewer "
              "targets remembered = less benefit",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
