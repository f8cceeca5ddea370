"""``repro report``: ledger summaries and the bench comparison gate."""

import json

import pytest

from repro.cli import main
from repro.obs import compare_bench, format_compare, format_summary, read_ledger, summarize


def _ledger_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


_SAMPLE = [
    {"t": 1.0, "pid": 100, "kind": "run", "name": "start", "role": "parent",
     "schema": 1},
    {"t": 1.0, "pid": 200, "kind": "run", "name": "start", "role": "worker",
     "schema": 1},
    {"t": 1.0, "pid": 201, "kind": "run", "name": "start", "role": "worker",
     "schema": 1},
    {"t": 1.1, "pid": 100, "kind": "gauge", "name": "pool.jobs", "value": 2},
    {"t": 1.2, "pid": 100, "kind": "event", "name": "pool.chunk",
     "meta": {"benchmark": "perl", "cells": 2}},
    {"t": 1.3, "pid": 200, "kind": "span", "name": "cell", "dur": 0.3,
     "meta": {"benchmark": "perl", "kernel": "stream"}},
    {"t": 1.4, "pid": 201, "kind": "span", "name": "cell", "dur": 0.5,
     "meta": {"benchmark": "gcc", "kernel": "stream"}},
    {"t": 1.5, "pid": 100, "kind": "span", "name": "pool.run", "dur": 1.0},
    {"t": 1.6, "pid": 100, "kind": "counter",
     "name": "runner.cell_cache.hit", "value": 6},
    {"t": 1.6, "pid": 100, "kind": "counter",
     "name": "runner.cell_cache.miss", "value": 2},
]


class TestReadLedger:
    def test_round_trips_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _ledger_lines(path, _SAMPLE)
        assert read_ledger(path) == _SAMPLE

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind":"span"}\nnot json\n')
        with pytest.raises(ValueError, match="2: malformed"):
            read_ledger(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(ValueError, match="not an object"):
            read_ledger(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('\n{"kind":"event","name":"x"}\n\n')
        assert len(read_ledger(path)) == 1


class TestSummarize:
    def test_pids_phases_cache_and_pool(self):
        summary = summarize(_SAMPLE)
        assert summary["events"] == len(_SAMPLE)
        assert summary["pids"] == {"parent": [100], "worker": [200, 201]}
        phases = {p["name"]: p for p in summary["phases"]}
        assert phases["cell"]["count"] == 2
        assert phases["cell"]["total_s"] == pytest.approx(0.8)
        assert phases["pool.run"]["total_s"] == pytest.approx(1.0)
        # phases sorted by total, descending
        assert summary["phases"][0]["name"] == "pool.run"
        cache = summary["cache"]
        assert cache["hits"] == 6 and cache["misses"] == 2
        assert cache["hit_rate"] == pytest.approx(0.75)
        pool = summary["pool"]
        assert pool["jobs"] == 2
        assert pool["busy_s"] == pytest.approx(0.8)
        assert pool["utilization"] == pytest.approx(0.8 / (1.0 * 2))

    def test_slowest_cells_ranked_and_limited(self):
        summary = summarize(_SAMPLE, top=1)
        [slowest] = summary["cells"]["slowest"]
        assert slowest["dur_s"] == pytest.approx(0.5)
        assert slowest["benchmark"] == "gcc"

    def test_no_pool_run_means_no_pool_section(self):
        summary = summarize([r for r in _SAMPLE if r.get("name") != "pool.run"])
        assert summary["pool"] is None

    def test_no_cache_counters_means_no_cache_section(self):
        summary = summarize([r for r in _SAMPLE if r["kind"] != "counter"])
        assert summary["cache"] is None

    def test_file_level_cache_counters_are_the_fallback(self):
        records = [
            {"pid": 1, "kind": "counter", "name": "result_cache.load.hit",
             "value": 3},
            {"pid": 1, "kind": "counter", "name": "result_cache.load.miss",
             "value": 1},
        ]
        cache = summarize(records)["cache"]
        assert cache["hits"] == 3
        assert cache["source"] == "result_cache.load"

    def test_trace_cache_rate_is_reported_beside_the_result_cache(self):
        records = _SAMPLE + [
            {"pid": 200, "kind": "counter", "name": "trace_cache.load.hit",
             "value": 1},
            {"pid": 100, "kind": "counter", "name": "trace_cache.load.miss",
             "value": 3},
        ]
        summary = summarize(records)
        assert summary["cache"]["source"] == "runner.cell_cache"
        traces = summary["trace_cache"]
        assert (traces["hits"], traces["misses"]) == (1, 3)
        assert traces["hit_rate"] == pytest.approx(0.25)
        text = format_summary(summary)
        assert "result cache: 6 hit(s)" in text
        assert "trace cache: 1 hit(s) / 3 miss(es) (25.0% hit rate" in text
        assert summarize(_SAMPLE)["trace_cache"] is None

    def test_format_summary_renders_the_key_lines(self):
        text = format_summary(summarize(_SAMPLE))
        assert "2 worker process(es)" in text
        assert "pool.run" in text
        assert "75.0% hit rate" in text
        assert "utilization" in text


def _bench_payload(per_cell=0.002, build=0.05, warm=0.0002):
    return {
        "schema": 1,
        "reference": {"per_cell_s": per_cell},
        "stream_kernel": {"build_s": build, "warm_per_cell_s": warm},
        "speedup": {"per_cell": per_cell / warm,
                    "including_build": 1.5},
    }


class TestCompareBench:
    def test_no_regression_when_equal(self):
        result = compare_bench(_bench_payload(), _bench_payload())
        assert not result["regressed"]
        assert all(not m["regressed"] for m in result["metrics"])

    def test_flags_a_metric_beyond_threshold(self):
        result = compare_bench(_bench_payload(),
                               _bench_payload(per_cell=0.004),
                               threshold_pct=20.0)
        assert result["regressed"]
        regressed = {m["name"] for m in result["metrics"] if m["regressed"]}
        assert regressed == {"reference.per_cell_s"}
        [metric] = [m for m in result["metrics"]
                    if m["name"] == "reference.per_cell_s"]
        assert metric["change_pct"] == pytest.approx(100.0)

    def test_improvement_never_regresses(self):
        result = compare_bench(_bench_payload(),
                               _bench_payload(per_cell=0.0001))
        assert not result["regressed"]

    def test_threshold_is_respected(self):
        old, new = _bench_payload(), _bench_payload(per_cell=0.0025)
        assert compare_bench(old, new, threshold_pct=20.0)["regressed"]
        assert not compare_bench(old, new, threshold_pct=30.0)["regressed"]

    def test_speedups_are_info_only(self):
        old = _bench_payload()
        new = _bench_payload()
        new["speedup"]["per_cell"] = 0.01  # catastrophic ratio, same timings
        result = compare_bench(old, new)
        assert not result["regressed"]
        assert any(m["name"] == "speedup.per_cell" for m in result["info"])

    def test_missing_metrics_are_skipped(self):
        result = compare_bench({"schema": 1}, _bench_payload())
        assert result["metrics"] == []
        assert not result["regressed"]

    def test_tier_metrics_gate_the_vector_backend(self):
        def with_tiers(vector=0.0001):
            payload = _bench_payload()
            payload["tiers"] = {
                "engine_per_cell_s": 0.04,
                "streams_per_cell_s": 0.0005,
                "vector_per_cell_s": vector,
                "speedup": {"vector_vs_streams": 0.0005 / vector,
                            "vector_vs_engine": 0.04 / vector},
            }
            return payload

        result = compare_bench(with_tiers(), with_tiers(vector=0.0002),
                               threshold_pct=20.0)
        assert result["regressed"]
        regressed = {m["name"] for m in result["metrics"] if m["regressed"]}
        assert regressed == {"tiers.vector_per_cell_s"}
        assert any(m["name"] == "tiers.speedup.vector_vs_streams"
                   for m in result["info"])

    def test_pre_tier_payloads_stay_comparable(self):
        # old payload predates the per-tier breakdown: its absence is a
        # skip, never a regression
        old = _bench_payload()
        new = _bench_payload()
        new["tiers"] = {"engine_per_cell_s": 0.04,
                        "streams_per_cell_s": 0.0005,
                        "vector_per_cell_s": 0.0001}
        result = compare_bench(old, new)
        assert not result["regressed"]
        assert not any(m["name"].startswith("tiers.")
                       for m in result["metrics"])

    def test_format_compare_marks_regressions(self):
        result = compare_bench(_bench_payload(),
                               _bench_payload(per_cell=0.004))
        text = format_compare(result)
        assert "REGRESSED" in text
        assert "regression detected" in text


class TestReportCommand:
    def test_summarises_a_ledger(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        _ledger_lines(path, _SAMPLE)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "worker process(es)" in out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        _ledger_lines(path, _SAMPLE)
        assert main(["report", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pids"]["worker"] == [200, 201]

    def test_missing_ledger_is_an_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_ledger_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_text("garbage\n")
        assert main(["report", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_compare_exits_nonzero_on_regression(self, tmp_path, capsys):
        old = tmp_path / "OLD.json"
        new = tmp_path / "NEW.json"
        old.write_text(json.dumps(_bench_payload()))
        new.write_text(json.dumps(_bench_payload(per_cell=0.004)))
        assert main(["report", "--compare", str(old), str(new)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_passes_when_clean(self, tmp_path, capsys):
        old = tmp_path / "OLD.json"
        new = tmp_path / "NEW.json"
        old.write_text(json.dumps(_bench_payload()))
        new.write_text(json.dumps(_bench_payload()))
        assert main(["report", "--compare", str(old), str(new)]) == 0

    def test_compare_threshold_flag(self, tmp_path):
        old = tmp_path / "OLD.json"
        new = tmp_path / "NEW.json"
        old.write_text(json.dumps(_bench_payload()))
        new.write_text(json.dumps(_bench_payload(per_cell=0.0025)))
        assert main(["report", "--compare", str(old), str(new),
                     "--threshold", "20"]) == 1
        assert main(["report", "--compare", str(old), str(new),
                     "--threshold", "30"]) == 0

    def test_compare_soft_fails_without_a_previous_payload(self, tmp_path,
                                                           capsys):
        new = tmp_path / "NEW.json"
        new.write_text(json.dumps(_bench_payload()))
        assert main(["report", "--compare", str(tmp_path / "none.json"),
                     str(new)]) == 0
        assert "skipping comparison" in capsys.readouterr().err

    def test_compare_requires_the_new_payload(self, tmp_path, capsys):
        old = tmp_path / "OLD.json"
        old.write_text(json.dumps(_bench_payload()))
        assert main(["report", "--compare", str(old),
                     str(tmp_path / "missing.json")]) == 2


class TestPayloadDeclaredMetrics:
    """``BENCH_serve.json`` declares its own gate/info metric lists; the
    comparator must honour them so one CLI command gates every flavour."""

    def _serve_payload(self, p50=0.020, p95=0.050, rps=200.0):
        return {
            "schema": 1,
            "bench": "serve",
            "latency": {"p50_s": p50, "p95_s": p95, "p99_s": p95 * 1.2},
            "throughput": {"requests_per_s": rps},
            "gate_metrics": ["latency.p50_s", "latency.p95_s",
                             "latency.p99_s"],
            "info_metrics": ["throughput.requests_per_s"],
        }

    def test_declared_gate_metrics_gate(self):
        result = compare_bench(self._serve_payload(),
                               self._serve_payload(p50=0.030),
                               threshold_pct=20.0)
        assert result["regressed"]
        names = {metric["name"] for metric in result["metrics"]}
        assert "latency.p50_s" in names
        # Sweep-bench defaults are not consulted for a declaring payload.
        assert "reference.per_cell_s" not in names

    def test_declared_info_metrics_never_gate(self):
        result = compare_bench(self._serve_payload(rps=1000.0),
                               self._serve_payload(rps=10.0),
                               threshold_pct=20.0)
        assert not result["regressed"]
        info_names = {metric["name"] for metric in result["info"]}
        assert "throughput.requests_per_s" in info_names

    def test_within_threshold_passes(self):
        result = compare_bench(self._serve_payload(),
                               self._serve_payload(p50=0.021),
                               threshold_pct=20.0)
        assert not result["regressed"]

    def test_undeclared_payloads_keep_sweep_defaults(self):
        result = compare_bench(_bench_payload(), _bench_payload())
        names = {metric["name"] for metric in result["metrics"]}
        assert "reference.per_cell_s" in names
