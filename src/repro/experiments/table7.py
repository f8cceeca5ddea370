"""Table 7 — tagged target cache: indexing scheme vs set-associativity.

256-entry tagged caches with global pattern history (9 bits).  Three
index/tag derivations (paper §4.3.1):

* *Address* — low address bits pick the set: every (history, target) pair
  of one jump lands in one set, so low associativity thrashes badly;
* *History Concatenate* — low history bits pick the set;
* *History XOR* — address XOR history picks the set, spreading one jump's
  contexts across all sets.

Paper finding: Address needs high associativity to be usable; the two
history-based schemes are nearly flat in associativity, with XOR best
overall.  Metric: execution-time reduction over the BTB-only machine.
"""

from __future__ import annotations

from repro.experiments.common import (
    FOCUS_BENCHMARKS,
    ExperimentContext,
    ExperimentTable,
)
from repro.experiments.configs import tagged_engine
from repro.predictors import EngineConfig
from repro.predictors.target_cache import TaggedIndexing

ASSOCIATIVITIES = [1, 2, 4, 8, 16, 32]
INDEXINGS = [
    ("Addr", TaggedIndexing.ADDRESS),
    ("Hist-Concat", TaggedIndexing.HISTORY_CONCAT),
    ("Hist-Xor", TaggedIndexing.HISTORY_XOR),
]


def run(ctx: ExperimentContext) -> ExperimentTable:
    cells = [(benchmark, EngineConfig()) for benchmark in FOCUS_BENCHMARKS]
    cells += [
        (benchmark, tagged_engine(assoc=assoc, indexing=indexing))
        for benchmark in FOCUS_BENCHMARKS
        for assoc in ASSOCIATIVITIES
        for _, indexing in INDEXINGS
    ]
    ctx.cycle_counts(cells)
    rows = []
    for benchmark in FOCUS_BENCHMARKS:
        for assoc in ASSOCIATIVITIES:
            values = []
            for _, indexing in INDEXINGS:
                config = tagged_engine(assoc=assoc, indexing=indexing)
                values.append(ctx.execution_time_reduction(benchmark, config))
            rows.append((f"{benchmark} {assoc}-way", values))
    return ExperimentTable(
        experiment_id="Table 7",
        title="Tagged target cache (256 entries): indexing scheme vs "
              "associativity (exec-time reduction)",
        columns=[label for label, _ in INDEXINGS],
        rows=rows,
        notes="paper: Address indexing suffers conflict misses at low "
              "associativity; History-Xor is insensitive to it",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
