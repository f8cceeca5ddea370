"""One measured step of a benchmark workload, run in a fresh process.

``run.py`` starts this script once per step so every step begins with
the process-level state a user's command begins with (no in-process
memos, no warm pool).  It prints one JSON object on its last stdout
line.  Steps::

    paper                              every experiment on one context
    traces  --benchmarks a,b,...       generate traces into the trace cache
    sweep   --docs FILE                run_cells over each spec document
    direct  --docs FILE                rows of each document, no result cache
    traced  --workload W [--untraced]  serial run of the workload, by layer

A warm run is the same step again over the caches a cold step filled,
in its own fresh process.

Caches, seed and sizes come from the arguments and the ``REPRO_*``
environment that ``run.py`` sets up for each run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from tracing import Tracer, install_repo_layers, load_repo_layers

_FOOTER = re.compile(r"\[[0-9]+\.[0-9]+s\]")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def table_digest(table: Any) -> str:
    """Digest of a formatted experiment table, wall-time footers stripped."""
    return digest(_FOOTER.sub("", table.format()))


def stats_digest(stats: Any) -> str:
    """Digest of a :class:`PredictionStats`' counters."""
    kinds = sorted((kind.value, c.executed, c.mispredicted)
                   for kind, c in stats.per_kind.items())
    return digest(json.dumps([stats.instructions, stats.btb_lookups,
                              stats.btb_hits, kinds]))


def rows_digest(rows: List[Dict[str, Any]]) -> str:
    """Digest of a sweep job's rows, as the service returns them."""
    return digest(json.dumps(rows, sort_keys=True))


def service_rows(plan: Any, stats_of: Dict[Tuple[str, Any], Any]
                 ) -> List[Dict[str, Any]]:
    """The rows ``GET /sweeps/{id}`` returns for ``plan``."""
    rows = []
    for row in plan.rows:
        stats = stats_of[(row.benchmark, row.config)]
        rows.append({"label": row.label, "benchmark": row.benchmark,
                     "indirect": stats.indirect_mispred_rate,
                     "conditional": stats.conditional_mispred_rate,
                     "overall": stats.overall_mispred_rate})
    return rows


# ----------------------------------------------------------------------
def paper_pass(n: int, seed: int, jobs: int) -> Dict[str, Any]:
    """Run every experiment on one fresh context; digest every table."""
    from repro.experiments import (
        EXPERIMENT_MODULES,
        ExperimentContext,
        run_experiment,
    )

    start = time.perf_counter()
    ctx = ExperimentContext(trace_length=n, seed=seed, jobs=jobs)
    seconds: Dict[str, float] = {}
    tables = {}
    for name in EXPERIMENT_MODULES:
        begin = time.perf_counter()
        tables[name] = run_experiment(name, ctx)
        seconds[name] = time.perf_counter() - begin
    wall = time.perf_counter() - start
    return {"wall_s": wall, "units": seconds,
            "digests": {name: table_digest(table)
                        for name, table in tables.items()}}


def sweep_pass(documents: List[Tuple[str, Any]], n: int, seed: int,
               jobs: int) -> Dict[str, Any]:
    """Run each document through ``run_cells``; digest every row."""
    from repro.runner import ResultCache, SweepCell, run_cells
    from repro.sweepspec import parse_spec_document

    cache = ResultCache.from_env()
    start = time.perf_counter()
    seconds: Dict[str, float] = {}
    results = []
    for name, document in documents:
        begin = time.perf_counter()
        plan = parse_spec_document(document)
        stats = run_cells([SweepCell(b, c) for b, c in plan.cells()], jobs,
                          trace_length=n, seed=seed, result_cache=cache)
        seconds[name] = time.perf_counter() - begin
        results.append((name, plan, stats))
    wall = time.perf_counter() - start
    return {"wall_s": wall, "units": seconds,
            "digests": {f"{name}|{row.benchmark}|{row.label}": stats_digest(one)
                        for name, plan, stats in results
                        for row, one in zip(plan.rows, stats)}}


def direct_rows(documents: List[Any], n: int, seed: int,
                jobs: int) -> Dict[str, Any]:
    """Row digests of each document computed by ``run_cells`` directly."""
    from repro.runner import SweepCell, run_cells
    from repro.sweepspec import parse_spec_document

    plans = [parse_spec_document(document) for document in documents]
    cells = list(dict.fromkeys(cell for plan in plans
                               for cell in plan.cells()))
    stats = run_cells([SweepCell(b, c) for b, c in cells], jobs,
                      trace_length=n, seed=seed, result_cache=None)
    stats_of = dict(zip(cells, stats))
    return {"digests": {str(i): rows_digest(service_rows(plan, stats_of))
                        for i, plan in enumerate(plans)}}


def generate_traces(benchmarks: List[str], n: int, seed: int) -> None:
    from repro.workloads import get_trace

    for name in benchmarks:
        get_trace(name, n_instructions=n, seed=seed)


def traced_pass(workload: str, documents: Optional[List[Tuple[str, Any]]],
                n: int, seed: int, trace: bool) -> Dict[str, Any]:
    """One serial run of ``workload``, split by layer when ``trace``.

    Serial (one job), so every wrapped call runs in this process.  The
    cold and the warm run of a traced pass are two such steps, each in a
    fresh process, as in the end-to-end pass.
    """
    load_repo_layers()  # in both modes, so no import is timed in one only
    tracer = Tracer()
    if trace:
        install_repo_layers(tracer)
    try:
        if workload == "paper_tables":
            out = paper_pass(n, seed, jobs=1)
        else:
            assert documents is not None
            out = sweep_pass(documents, n, seed, jobs=1)
    finally:
        tracer.restore()
    return {"wall_s": out["wall_s"], "digests": out["digests"],
            "self_s": dict(tracer.self_s),
            "inclusive_s": dict(tracer.inclusive_s),
            "counts": {k: v for k, v in tracer.counts.items()
                       if not k.startswith("_")}}


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=("paper", "traces", "sweep",
                                         "direct", "traced"))
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() when the parent started us")
    parser.add_argument("--n", type=int, required=True,
                        help="instructions per trace")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--benchmarks", default="")
    parser.add_argument("--docs", default=None)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--untraced", action="store_true")
    args = parser.parse_args(argv)

    import repro.experiments  # noqa: F401  (the program's import cost)
    import repro.runner  # noqa: F401

    ready_s = time.time() - args.spawned
    documents = None
    if args.docs is not None:
        with open(args.docs) as handle:
            documents = json.load(handle)
    if args.step == "paper":
        out = paper_pass(args.n, args.seed, args.jobs)
    elif args.step == "traces":
        generate_traces(args.benchmarks.split(","), args.n, args.seed)
        out = {}
    elif args.step == "sweep":
        out = sweep_pass([tuple(d) for d in documents], args.n, args.seed,
                         args.jobs)
    elif args.step == "direct":
        out = direct_rows(documents, args.n, args.seed, args.jobs)
    else:
        out = traced_pass(args.workload,
                          None if documents is None
                          else [tuple(d) for d in documents],
                          args.n, args.seed, trace=not args.untraced)
    out["ready_s"] = ready_s
    out["done_s"] = time.time() - args.spawned
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
