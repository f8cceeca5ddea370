"""Headline claims (abstract / §5).

"For the perl and gcc benchmarks, this mechanism reduces the indirect jump
misprediction rate by 93.4% and 63.3% and the overall execution time by
14.9% and 4.3%" (numbers partly garbled in the source text; the shape is
what we reproduce: a huge relative misprediction reduction on both, a
double-digit execution-time win on perl and a smaller one on gcc).

The "best" configuration per benchmark follows §4.2.3: the Indirect-Jmp
global path history for perl, the gshare pattern history for gcc, both on
the 512-entry tagless cache (and a 16-way tagged cache as the paper's
best-overall design point).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentContext, ExperimentTable
from repro.experiments.configs import (
    path_scheme_history,
    pattern_history,
    tagged_engine,
    tagless_engine,
)
from repro.predictors import EngineConfig

BEST_TAGLESS = {
    "perl": tagless_engine(history=path_scheme_history("ind jmp")),
    "gcc": tagless_engine(history=pattern_history(9)),
}
BEST_TAGGED = {
    "perl": tagged_engine(assoc=16, history=path_scheme_history("ind jmp")),
    "gcc": tagged_engine(assoc=16, history_bits=16,
                         history=pattern_history(16)),
}


def run(ctx: ExperimentContext) -> ExperimentTable:
    ctx.cycle_counts([
        (benchmark, config)
        for benchmark in ("perl", "gcc")
        for config in (EngineConfig(), BEST_TAGLESS[benchmark],
                       BEST_TAGGED[benchmark])
    ])
    rows = []
    for benchmark in ("perl", "gcc"):
        base = ctx.baseline(benchmark).indirect_mispred_rate
        tagless_stats = ctx.prediction(benchmark, BEST_TAGLESS[benchmark])
        tagless_rate = tagless_stats.indirect_mispred_rate
        mispred_reduction = (base - tagless_rate) / base if base else 0.0
        exec_reduction = ctx.execution_time_reduction(
            benchmark, BEST_TAGLESS[benchmark]
        )
        tagged_exec = ctx.execution_time_reduction(
            benchmark, BEST_TAGGED[benchmark]
        )
        rows.append((benchmark, [
            base, tagless_rate, mispred_reduction, exec_reduction, tagged_exec,
        ]))
    return ExperimentTable(
        experiment_id="Headline",
        title="Abstract/§5 claims: target cache vs BTB on perl and gcc",
        columns=["BTB mispred", "TC mispred", "mispred reduction",
                 "exec reduction (tagless)", "exec reduction (16-way tagged)"],
        rows=rows,
        notes="paper: mispredictions cut 93.4% (perl) / 63.3% (gcc); "
              "execution time cut ~14% (perl) / ~5% (gcc) at ~0.6% indirect "
              "density — our synthetic workloads have 2-3x that density, so "
              "absolute exec reductions scale up accordingly",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
