"""Tests of the benchmark harness itself (not of the program).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


@pytest.fixture
def caches(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> Path:
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "rc"))
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


def _small_paper_run() -> Dict[str, str]:
    from repro.experiments import ExperimentContext, run_experiment

    ctx = ExperimentContext(trace_length=3000, seed=5, jobs=1)
    return {name: worker.table_digest(run_experiment(name, ctx))
            for name in ("table4", "table5")}


def _call_counts(codes: set, work: Callable[[], Any]) -> Counter:
    counts: Counter = Counter()

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call" and frame.f_code in codes:
            counts[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return counts


def _bindings() -> Dict[Any, Any]:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith("repro")
            for attr, value in list(vars(module).items())
            if callable(value)}


def test_wrappers_restore_originals_and_add_no_calls(
        caches: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    import repro.experiments  # noqa: F401
    from repro.runner import ResultCache
    from repro.trace.trace import Trace

    tracer = tracing.Tracer()
    tracing.install_repo_layers(tracer)
    originals = [orig for _, _, orig in tracer._patches]
    tracer.restore()
    before = _bindings()
    load, from_raw = ResultCache.__dict__["load"], Trace.__dict__["from_raw"]
    codes = {getattr(fn, "__func__", fn).__code__ for fn in originals}

    monkeypatch.setenv("REPRO_RESULT_CACHE", str(caches / "plain"))
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(caches / "plain_tc"))
    plain = _call_counts(codes, _small_paper_run)

    monkeypatch.setenv("REPRO_RESULT_CACHE", str(caches / "traced"))
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(caches / "traced_tc"))
    with tracing.Tracer() as tracer:
        tracing.install_repo_layers(tracer)
        traced = _call_counts(codes, _small_paper_run)
        assert tracer.counts["pipeline.timing_calls"] > 0

    assert traced == plain
    assert plain["run_timing"] > 0 and plain["simulate_vector"] > 0
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    wrapper_code = tracing.Tracer().wrap(len, "x").__code__
    assert not any(getattr(value, "__code__", None) is wrapper_code
                   for value in after.values())
    assert ResultCache.__dict__["load"] is load
    assert Trace.__dict__["from_raw"] is from_raw


def test_self_times_do_not_double_count() -> None:
    fake = types.ModuleType("fakepkg")

    def inner() -> None:
        time.sleep(0.02)

    def outer() -> None:
        time.sleep(0.01)
        fake.inner()
        fake.inner()

    fake.inner, fake.outer = inner, outer
    sys.modules["fakepkg"] = fake
    try:
        with tracing.Tracer() as tracer:
            tracer.patch_function(inner, "b", package="fakepkg")
            tracer.patch_function(outer, "a", package="fakepkg")
            start = time.perf_counter()
            fake.outer()
            wall = time.perf_counter() - start
        assert fake.outer is outer and fake.inner is inner
    finally:
        del sys.modules["fakepkg"]
    assert tracer.self_s["b"] == pytest.approx(0.04, abs=0.015)
    assert tracer.self_s["a"] == pytest.approx(0.01, abs=0.015)
    assert 0 <= wall - sum(tracer.self_s.values()) < 0.005


def test_layers_and_unattributed_sum_to_traced_wall(caches: Path) -> None:
    documents = [(name, {**doc, "benchmarks": ["perl", "gcc"]})
                 for name, doc in specs.design_documents()[:3]]
    cold, warm = [worker.traced_pass("design_sweep", documents, 3000, 5,
                                     trace=True) for _ in range(2)]
    metrics = run.layer_metrics(run.cold_plus_warm(cold, warm))
    attributed = sum(metrics[name] for name in run.SELF_TIME_METRICS)
    assert attributed + metrics["unattributed_s"] == pytest.approx(
        metrics["traced_wall_s"], rel=1e-9)
    assert 0 <= metrics["unattributed_s"] < metrics["traced_wall_s"]
    assert cold["digests"] == warm["digests"]
    from repro.sweepspec import parse_spec_document

    cells = {cell for _, doc in documents
             for cell in parse_spec_document(doc).cells()}
    assert metrics["runner.cells_computed"] == len(cells)
    assert metrics["runner.cache_hit_ratio"] >= 0.5
    assert set(metrics) <= set(run.PER_LAYER)


def test_tampered_digest_is_reported_as_failure() -> None:
    recorded = json.loads(run.DIGESTS.read_text())
    expected = dict(recorded["workloads"]["paper_tables"])
    checks = run.Checks(expected)
    checks.outputs(dict(expected), "cold")
    assert (checks.attempted, checks.failed) == (len(expected), 0)

    tampered = dict(expected)
    name = sorted(tampered)[0]
    tampered[name] = "0" * 16
    checks = run.Checks(tampered)
    checks.outputs(dict(expected), "cold")
    assert checks.failed == 1 and name in checks.problems[0]


def test_warm_differing_from_cold_is_a_failure() -> None:
    checks = run.Checks(None)
    checks.outputs({"a": "1", "b": "2"}, "cold")
    checks.outputs({"a": "1", "b": "3"}, "warm", reference={"a": "1", "b": "2"})
    assert (checks.attempted, checks.failed) == (4, 1)


def test_metric_names_match_benchmark_json() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(
        run.TRACE_LENGTH)
    from repro.experiments import EXPERIMENT_MODULES

    assert run.EXPERIMENTS == list(EXPERIMENT_MODULES)


def test_generated_documents_parse() -> None:
    from repro.sweepspec import parse_spec_document

    grid = [parse_spec_document(doc) for _, doc in specs.design_documents()]
    assert sum(len(plan.rows) for plan in grid) > 1000
    population = [parse_spec_document(doc)
                  for doc in specs.served_population()]
    assert len({cell for plan in population for cell in plan.cells()}) > 200
    assert specs.zipf_mix(3, 96, 50) == specs.zipf_mix(3, 96, 50)
    assert specs.zipf_mix(3, 96, 50) != specs.zipf_mix(4, 96, 50)
