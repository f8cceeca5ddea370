"""Table 9 — tagged target cache: 9 vs 16 pattern-history bits.

Tag storage frees the history length from the table size, so a tagged
cache can index/tag with more history than a 512-entry tagless cache's 9
bits.  Paper finding: "For caches with a high degree of set-associativity,
using more history bits results in a significant performance improvement
... For target caches with a small degree of set-associativity, using more
history bits degrades performance" — longer history means more distinct
(jump, history) pairs competing for sets.
"""

from __future__ import annotations

from repro.experiments.common import (
    FOCUS_BENCHMARKS,
    ExperimentContext,
    ExperimentTable,
)
from repro.experiments.configs import pattern_history, tagged_engine
from repro.predictors import EngineConfig

ASSOCIATIVITIES = [1, 2, 4, 8, 16, 32]
HISTORY_BITS = [9, 16]


def _config(assoc: int, bits: int) -> EngineConfig:
    return tagged_engine(
        assoc=assoc, history_bits=bits, history=pattern_history(bits)
    )


def run(ctx: ExperimentContext) -> ExperimentTable:
    cells = [(benchmark, EngineConfig()) for benchmark in FOCUS_BENCHMARKS]
    cells += [
        (benchmark, _config(assoc, bits))
        for benchmark in FOCUS_BENCHMARKS
        for assoc in ASSOCIATIVITIES
        for bits in HISTORY_BITS
    ]
    ctx.cycle_counts(cells)
    rows = []
    for benchmark in FOCUS_BENCHMARKS:
        for assoc in ASSOCIATIVITIES:
            values = [
                ctx.execution_time_reduction(benchmark, _config(assoc, bits))
                for bits in HISTORY_BITS
            ]
            rows.append((f"{benchmark} {assoc}-way", values))
    return ExperimentTable(
        experiment_id="Table 9",
        title="Tagged target cache: 9 vs 16 pattern-history bits "
              "(exec-time reduction)",
        columns=[f"{bits} bits" for bits in HISTORY_BITS],
        rows=rows,
        notes="paper: longer history wins only at high associativity; at "
              "low associativity the extra contexts cause conflict misses",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
