"""Ledger summaries and bench-trajectory comparison for ``repro report``.

Two consumers live here:

* :func:`summarize` / :func:`format_summary` — read a merged JSONL run
  ledger and produce the operational picture: per-phase wall-clock
  breakdown, result- and trace-cache hit rates, the slowest sweep cells,
  and pool worker utilization (busy time of worker-recorded cell spans
  over the pool's wall-clock window).
* :func:`compare_bench` / :func:`format_compare` — diff two
  ``BENCH_sweep.json`` payloads (see :mod:`repro.bench`) and flag any
  per-cell timing metric that regressed by more than a threshold.  The
  CLI turns a flagged comparison into a non-zero exit code, which is what
  lets CI gate on the bench trajectory.

Everything here is read-only and tolerant: unknown event kinds and
missing payload keys are skipped, never fatal, so old ledgers and old
bench payloads keep working as the schemas grow.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

#: Bench metrics where *lower is better*; regressions are increases.
#: Metrics absent from a payload (older schema) are skipped, so payloads
#: from before the per-tier breakdown stay comparable.
_BENCH_TIME_METRICS = (
    "reference.per_cell_s",
    "stream_kernel.build_s",
    "stream_kernel.warm_per_cell_s",
    "tiers.engine_per_cell_s",
    "tiers.streams_per_cell_s",
    "tiers.vector_per_cell_s",
    "server.build_s",
    "server.streams_per_cell_s",
    "lowering.per_lowering.jump_table.streams_per_cell_s",
    "lowering.per_lowering.if_tree.streams_per_cell_s",
    "lowering.per_lowering.clustered.streams_per_cell_s",
)

#: Bench metrics where *higher is better*; reported, never gating (they
#: are ratios of the timed metrics above, so gating them would double-count).
_BENCH_INFO_METRICS = (
    "speedup.per_cell",
    "speedup.including_build",
    "tiers.speedup.vector_vs_streams",
    "tiers.speedup.vector_vs_engine",
    "server.recovered",
    "lowering.recovered",
)


def read_ledger(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a merged JSONL ledger; malformed lines raise ``ValueError``."""
    records: List[Dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: malformed ledger line: {exc}")
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: ledger line is not an object")
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Ledger summary.
# ----------------------------------------------------------------------
def summarize(records: List[Dict[str, Any]], top: int = 10) -> Dict[str, Any]:
    """Aggregate ledger records into the ``repro report`` summary payload."""
    phase_totals: Dict[str, Tuple[int, float]] = {}
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    occurrences: Dict[str, int] = {}
    worker_pids: Set[Any] = set()
    parent_pids: Set[Any] = set()
    cells: List[Dict[str, Any]] = []
    pool_wall = 0.0

    for record in records:
        kind = record.get("kind")
        name = record.get("name", "")
        pid = record.get("pid")
        if kind == "run":
            if record.get("role") == "worker":
                worker_pids.add(pid)
            else:
                parent_pids.add(pid)
        elif kind == "span":
            duration = float(record.get("dur", 0.0))
            count, total = phase_totals.get(name, (0, 0.0))
            phase_totals[name] = (count + 1, total + duration)
            if name == "cell":
                cells.append(record)
            elif name == "pool.run":
                pool_wall += duration
        elif kind == "counter":
            counters[name] = counters.get(name, 0) + int(record.get("value", 0))
        elif kind == "gauge":
            gauges[name] = float(record.get("value", 0.0))
        elif kind == "event":
            occurrences[name] = occurrences.get(name, 0) + 1

    phases = [
        {"name": name, "count": count, "total_s": total,
         "mean_s": total / count if count else 0.0}
        for name, (count, total) in phase_totals.items()
    ]
    phases.sort(key=lambda p: (-float(p["total_s"]), str(p["name"])))

    slowest = sorted(cells, key=lambda r: -float(r.get("dur", 0.0)))[:top]
    summary: Dict[str, Any] = {
        "events": len(records),
        "pids": {"parent": sorted(p for p in parent_pids if p is not None),
                 "worker": sorted(p for p in worker_pids if p is not None)},
        "phases": phases,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "occurrences": dict(sorted(occurrences.items())),
        # Cell-level result-cache rate, file-level counters as fallback.
        "cache": _cache_rates(counters, "runner.cell_cache",
                              "result_cache.load"),
        "trace_cache": _cache_rates(counters, "trace_cache.load"),
        "cells": {
            "count": len(cells),
            "total_s": sum(float(r.get("dur", 0.0)) for r in cells),
            "slowest": [
                {"dur_s": float(r.get("dur", 0.0)), "pid": r.get("pid"),
                 **dict(r.get("meta") or {})}
                for r in slowest
            ],
        },
        "pool": _pool_utilization(pool_wall, gauges, cells, worker_pids),
    }
    return summary


def _cache_rates(counters: Dict[str, int],
                 *sources: str) -> Optional[Dict[str, Any]]:
    """Hit rate from the first ``<source>.hit`` / ``<source>.miss`` pair
    present in ``counters``, or ``None`` if none is."""
    for source in sources:
        if f"{source}.hit" in counters or f"{source}.miss" in counters:
            hits = counters.get(f"{source}.hit", 0)
            misses = counters.get(f"{source}.miss", 0)
            total = hits + misses
            return {"hits": hits, "misses": misses,
                    "hit_rate": hits / total if total else 0.0,
                    "source": source}
    return None


def _pool_utilization(pool_wall: float, gauges: Dict[str, float],
                      cells: List[Dict[str, Any]],
                      worker_pids: Set[Any]) -> Optional[Dict[str, Any]]:
    if pool_wall <= 0.0:
        return None
    jobs = int(gauges.get("pool.jobs", 0))
    busy = sum(
        float(r.get("dur", 0.0)) for r in cells if r.get("pid") in worker_pids
    )
    utilization = busy / (pool_wall * jobs) if jobs else 0.0
    return {"wall_s": pool_wall, "jobs": jobs, "busy_s": busy,
            "utilization": utilization}


def format_summary(summary: Dict[str, Any]) -> str:
    """Human-readable one-screen rendering of :func:`summarize` output."""
    lines = [
        f"run ledger: {summary['events']} events from "
        f"{len(summary['pids']['parent'])} parent + "
        f"{len(summary['pids']['worker'])} worker process(es)"
    ]
    if summary["phases"]:
        lines.append("phases (by total wall-clock):")
        for phase in summary["phases"]:
            lines.append(
                f"  {phase['name']:<24} {phase['total_s']:>9.3f}s  "
                f"x{phase['count']:<6} ({phase['mean_s'] * 1e3:.2f} ms avg)"
            )
    for label, key in (("result cache", "cache"),
                       ("trace cache", "trace_cache")):
        cache = summary.get(key)
        if cache is not None:
            lines.append(
                f"{label}: {cache['hits']} hit(s) / {cache['misses']} miss(es) "
                f"({cache['hit_rate']:.1%} hit rate, {cache['source']})"
            )
    pool = summary["pool"]
    if pool is not None:
        lines.append(
            f"pool: {pool['jobs']} worker(s), {pool['wall_s']:.3f}s wall, "
            f"{pool['busy_s']:.3f}s busy ({pool['utilization']:.1%} utilization)"
        )
    slowest = summary["cells"]["slowest"]
    if slowest:
        lines.append(f"slowest cells (top {len(slowest)}):")
        for cell in slowest:
            extras = ", ".join(
                f"{key}={value}" for key, value in sorted(cell.items())
                if key not in ("dur_s",)
            )
            lines.append(f"  {cell['dur_s'] * 1e3:>9.2f} ms  {extras}")
    if summary["occurrences"]:
        rendered = ", ".join(
            f"{name} x{count}"
            for name, count in summary["occurrences"].items()
        )
        lines.append(f"events: {rendered}")
    counters = summary["counters"]
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<32} {value:>10}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Bench payload comparison.
# ----------------------------------------------------------------------
def _lookup(payload: Dict[str, Any], dotted: str) -> Optional[float]:
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def compare_bench(old: Dict[str, Any], new: Dict[str, Any],
                  threshold_pct: float = 20.0) -> Dict[str, Any]:
    """Diff two ``BENCH_sweep.json`` payloads.

    A *timing* metric (seconds per cell, build seconds) regresses when the
    new value exceeds the old by more than ``threshold_pct`` percent;
    speedup ratios are reported for context but never gate, since they
    are derived from the timed metrics.  Metrics missing from either
    payload are skipped, keeping old payload versions comparable.

    A payload may declare its own metric lists via top-level
    ``gate_metrics`` / ``info_metrics`` keys (``BENCH_serve.json`` does:
    latency percentiles gate, throughput and hit rates inform).  When the
    *new* payload carries them they replace the sweep-bench defaults, so
    one ``repro report --compare`` command gates every bench flavour.
    """
    gate_names = new.get("gate_metrics")
    if not isinstance(gate_names, list):
        gate_names = list(_BENCH_TIME_METRICS)
    info_names = new.get("info_metrics")
    if not isinstance(info_names, list):
        info_names = list(_BENCH_INFO_METRICS)
    metrics: List[Dict[str, Any]] = []
    regressed = False
    for name in gate_names:
        old_value = _lookup(old, name)
        new_value = _lookup(new, name)
        if old_value is None or new_value is None or old_value <= 0.0:
            continue
        change_pct = 100.0 * (new_value - old_value) / old_value
        metric_regressed = change_pct > threshold_pct
        regressed = regressed or metric_regressed
        metrics.append({"name": name, "old": old_value, "new": new_value,
                        "change_pct": change_pct,
                        "regressed": metric_regressed})
    info: List[Dict[str, Any]] = []
    for name in info_names:
        old_value = _lookup(old, name)
        new_value = _lookup(new, name)
        if old_value is None or new_value is None or old_value <= 0.0:
            continue
        info.append({"name": name, "old": old_value, "new": new_value,
                     "change_pct": 100.0 * (new_value - old_value) / old_value})
    return {"threshold_pct": threshold_pct, "metrics": metrics, "info": info,
            "regressed": regressed}


def format_compare(result: Dict[str, Any]) -> str:
    """Render a :func:`compare_bench` result for the terminal."""
    lines = [f"bench comparison (regression threshold "
             f"{result['threshold_pct']:.0f}%):"]
    for metric in result["metrics"]:
        marker = "REGRESSED" if metric["regressed"] else "ok"
        lines.append(
            f"  {metric['name']:<32} {metric['old']:>12.6f} -> "
            f"{metric['new']:>12.6f}  {metric['change_pct']:>+7.1f}%  {marker}"
        )
    for metric in result["info"]:
        lines.append(
            f"  {metric['name']:<32} {metric['old']:>12.2f} -> "
            f"{metric['new']:>12.2f}  {metric['change_pct']:>+7.1f}%  (info)"
        )
    if not result["metrics"]:
        lines.append("  no comparable timing metrics found")
    lines.append(
        "regression detected" if result["regressed"] else "no regression"
    )
    return "\n".join(lines)
