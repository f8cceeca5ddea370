"""Table 5 — path history: which target-address bit to record.

Each qualifying instruction contributes one bit of its destination address
to the 9-bit path history register; this experiment sweeps *which* bit
(paper rows "addr bit 2..9" — bits 0-1 are always zero on a word-aligned
ISA).  Metric: reduction in execution time over the BTB-only machine, for
each path-history scheme (per-address, and the four global filters).

Paper finding: "the lower address bits provide more information than the
higher address bits" — the benefit decays as the recorded bit moves up.
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

ADDRESS_BITS = list(range(2, 8))


def _config(scheme: str, address_bit: int) -> EngineConfig:
    history = path_scheme_history(
        scheme, bits=9, bits_per_target=1, address_bit=address_bit
    )
    return tagless_engine(history=history)


def run(ctx: ExperimentContext) -> ExperimentTable:
    # time every cell (and the BTB-only baselines) in one parallel batch
    cells = [(benchmark, EngineConfig()) for benchmark in FOCUS_BENCHMARKS]
    cells += [
        (benchmark, _config(scheme, address_bit))
        for benchmark in FOCUS_BENCHMARKS
        for address_bit in ADDRESS_BITS
        for scheme in PATH_SCHEME_LABELS
    ]
    ctx.cycle_counts(cells)
    rows = []
    for benchmark in FOCUS_BENCHMARKS:
        for address_bit in ADDRESS_BITS:
            values = [
                ctx.execution_time_reduction(
                    benchmark, _config(scheme, address_bit)
                )
                for scheme in PATH_SCHEME_LABELS
            ]
            rows.append((f"{benchmark} bit {address_bit}", values))
    return ExperimentTable(
        experiment_id="Table 5",
        title="Path history address-bit selection: execution-time reduction",
        columns=list(PATH_SCHEME_LABELS),
        rows=rows,
        notes="paper: low bits carry the information; benefit decays for "
              "higher bits",
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext()).format())


if __name__ == "__main__":  # pragma: no cover
    main()
