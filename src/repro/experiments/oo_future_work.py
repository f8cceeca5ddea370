"""§5 future work — target caches on object-oriented workloads.

The paper ends by predicting that "for object oriented programs where more
indirect branches may be executed, tagged caches should provide even
greater performance benefits", deferring C++ benchmarks to future work.
This experiment carries that work out on the two classic OO-polymorphism
kernels (richards and deltablue, rebuilt as guest workloads): BTB baseline
vs the tagless cache vs a set-associative tagged cache, with the best
history per the paper's own methodology (path history, since both kernels
are dispatch loops like perl).

Also reported: indirect-jump density, which is several times the SPECint95
numbers — the premise behind the paper's §5 prediction.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentContext, ExperimentTable
from repro.experiments.configs import (
    path_scheme_history,
    tagged_engine,
    tagless_engine,
)
from repro.predictors import EngineConfig
from repro.trace.stats import branch_mix

BENCHMARKS = ("richards", "deltablue")

#: Both kernels dispatch through densely packed method tables, so one
#: address bit per target aliases; two bits per target is the §4.2.2-style
#: sweet spot here.
_HISTORY = path_scheme_history("ind jmp", bits=10, bits_per_target=2)


def run(ctx: ExperimentContext) -> ExperimentTable:
    ctx.cycle_counts([
        (benchmark, config)
        for benchmark in BENCHMARKS
        for config in (EngineConfig(), tagged_engine(assoc=8, history=_HISTORY))
    ])
    ctx.predictions([
        (benchmark, tagless_engine(history=_HISTORY))
        for benchmark in BENCHMARKS
    ])
    rows = []
    for benchmark in BENCHMARKS:
        trace = ctx.trace(benchmark)
        mix = branch_mix(trace)
        base = ctx.baseline(benchmark)
        tagless = ctx.prediction(benchmark, tagless_engine(history=_HISTORY))
        tagged = ctx.prediction(
            benchmark, tagged_engine(assoc=8, history=_HISTORY)
        )
        exec_reduction = ctx.execution_time_reduction(
            benchmark, tagged_engine(assoc=8, history=_HISTORY)
        )
        rows.append((benchmark, [
            mix.indirect_fraction,
            base.indirect_mispred_rate,
            tagless.indirect_mispred_rate,
            tagged.indirect_mispred_rate,
            exec_reduction,
        ]))
    return ExperimentTable(
        experiment_id="§5 future work",
        title="Target caches on OO workloads (richards / deltablue)",
        columns=["indirect density", "BTB mispred", "tagless TC",
                 "tagged 8-way TC", "exec reduction (tagged)"],
        rows=rows,
        notes="the paper's closing prediction: high indirect density makes "
              "the target cache's win on OO code even larger than on "
              "SPECint95 C code",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
