"""Extension — from the target cache to ITTAGE.

The calibration note on this reproduction observes that the paper
"influenced modern ITTAGE predictors"; this experiment makes the lineage
quantitative.  For every workload (the eight SPECint95-alikes plus the two
OO kernels) it compares:

* the BTB baseline (1997's status quo);
* the paper's best single-history target cache (512-entry tagless, history
  chosen per §4.2.3: ind-jmp path for the interpreter-like workloads,
  pattern for the rest);
* the cascaded filter (the immediate follow-on literature);
* ITTAGE-lite (geometric history lengths, tagged components, confidence
  counters — the design that won).

Expected shape: each generation dominates the previous, with the largest
steps exactly where history *length* requirements vary across jumps.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentContext, ExperimentTable
from repro.experiments.configs import (
    path_scheme_history,
    pattern_history,
    tagless_engine,
)
from repro.predictors import EngineConfig, HistoryConfig, HistorySource
from repro.predictors.history import PathFilter
from repro.predictors.target_cache import TargetCacheConfig

BENCHMARKS = ("compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex",
              "xlisp", "richards", "deltablue")

#: workloads whose dispatch is an interpreter-style loop where path
#: history wins (m88ksim's decode switch prefers pattern history: the
#: operand-test branches before each dispatch encode the simulated pc)
_PATH_BENCHMARKS = {"perl", "richards", "deltablue"}


def best_classic_history(benchmark: str) -> HistoryConfig:
    if benchmark in _PATH_BENCHMARKS:
        return path_scheme_history("ind jmp", bits=10, bits_per_target=2)
    return pattern_history(9)


def ittage_engine(entries_per_component: int = 128) -> EngineConfig:
    return EngineConfig(
        target_cache=TargetCacheConfig(kind="ittage",
                                       entries=entries_per_component),
        history=HistoryConfig(source=HistorySource.PATH_GLOBAL, bits=48,
                              path_filter=PathFilter.CONTROL),
    )


def _cascade_engine(history: HistoryConfig) -> EngineConfig:
    return EngineConfig(
        target_cache=TargetCacheConfig(kind="cascaded", entries=256, assoc=4),
        history=history,
    )


def run(ctx: ExperimentContext) -> ExperimentTable:
    ctx.predictions([
        (benchmark, config)
        for benchmark in BENCHMARKS
        for config in (
            EngineConfig(),
            tagless_engine(history=best_classic_history(benchmark)),
            _cascade_engine(best_classic_history(benchmark)),
            ittage_engine(),
        )
    ])
    rows = []
    for benchmark in BENCHMARKS:
        base = ctx.baseline(benchmark).indirect_mispred_rate
        history = best_classic_history(benchmark)
        classic = ctx.prediction(
            benchmark, tagless_engine(history=history)
        ).indirect_mispred_rate
        cascade = ctx.prediction(
            benchmark, _cascade_engine(history)
        ).indirect_mispred_rate
        ittage = ctx.prediction(
            benchmark, ittage_engine()
        ).indirect_mispred_rate
        rows.append((benchmark, [base, classic, cascade, ittage]))
    # Generation columns carry the registry labels of the configs actually
    # simulated (history varies per benchmark; the cache geometry doesn't).
    classic_config = tagless_engine().target_cache
    cascade_config = _cascade_engine(pattern_history(9)).target_cache
    ittage_config = ittage_engine().target_cache
    assert classic_config is not None
    assert cascade_config is not None and ittage_config is not None
    return ExperimentTable(
        experiment_id="Extension: lineage",
        title="BTB -> target cache -> cascade -> ITTAGE-lite "
              "(indirect misprediction)",
        columns=["BTB", classic_config.label(), cascade_config.label(),
                 ittage_config.label()],
        rows=rows,
        notes="each generation of the paper's lineage; ITTAGE-lite uses "
              "4 components x 128 entries with geometric history lengths",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
