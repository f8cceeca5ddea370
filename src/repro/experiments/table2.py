"""Table 2 — default vs 2-bit BTB target-update strategy.

Calder & Grunwald's 2-bit strategy waits for two consecutive target misses
before replacing a BTB entry's stored target.  The paper's finding is that
it is a *mixed* win on C code: it "reduced the misprediction rates for the
compress, gcc, ijpeg, and perl benchmarks, but increased the misprediction
rates for the m88ksim, vortex, and xlisp benchmarks" — and either way it
remains far above what the target cache achieves.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentContext, ExperimentTable
from repro.predictors import EngineConfig
from repro.predictors.btb import UpdateStrategy
from repro.workloads import workload_names


def run(ctx: ExperimentContext) -> ExperimentTable:
    rows = []
    two_bit = EngineConfig(btb_strategy=UpdateStrategy.TWO_BIT)
    ctx.predictions([
        (name, config)
        for config in (EngineConfig(), two_bit)
        for name in workload_names()
    ])
    for name in workload_names():
        default_rate = ctx.baseline(name).indirect_mispred_rate
        two_bit_rate = ctx.prediction(name, two_bit).indirect_mispred_rate
        rows.append((name, [default_rate, two_bit_rate,
                            two_bit_rate - default_rate]))
    return ExperimentTable(
        experiment_id="Table 2",
        title="BTB indirect misprediction: default vs 2-bit update strategy",
        columns=["BTB", "2-bit BTB", "delta"],
        rows=rows,
        notes="paper: 2-bit helps compress/gcc/ijpeg/perl, hurts "
              "m88ksim/vortex/xlisp — a mixed result either way dwarfed by "
              "the target cache",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
