"""The repo benchmark: two workloads, measured end to end or by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that splits the workload by layer.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries medians, high percentiles and
sample counts.  The exit code is 0 only when every output matched.
See ``perfbench/README.md`` for the workloads and metrics.

This file uses the standard library only: every step that runs the
program starts a fresh process (``worker.py`` or ``repro serve``) with
its own trace and result caches under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from specs import (  # noqa: E402
    DESIGN_BENCHMARKS,
    design_documents,
    served_population,
    zipf_mix,
)
from worker import rows_digest  # noqa: E402

#: Instructions per generated trace, per workload.
TRACE_LENGTH = {"paper_tables": 10_000, "design_sweep": 10_000}
JOBS = 2                 # worker processes / client connections (nproc = 2)
#: Warm runs per pass, each in its own fresh process (short and noisy,
#: so two).
WARM_RUNS = 2
SERVED_REQUESTS = 160    # requests per served pass (cold, then replayed warm)
SERVICE_PASSES = 2       # served passes in design_sweep's traced run
MIN_SETUPS = 3           # setup samples per run, for a median
STEP_TIMEOUT_S = 150.0
DIGESTS = HERE / "digests.json"

END_TO_END = {"wall_s": "s", "warm_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "latency_p50_ms": "ms",
              "latency_p95_ms": "ms"}

EXPERIMENTS = ["table1", "figures1_8", "table2", "table4", "table5", "table6",
               "table7", "table8", "table9", "figures12_13", "headline",
               "oo_future_work", "cascaded", "modern", "capacity",
               "server_btb", "switch_lowering", "calibration"]
TIERS = ["vector", "streams", "engine"]
SERVICE_COUNTERS = ["submitted", "dedup", "cache_hit", "computed", "errors"]
PER_LAYER: Dict[str, str] = {
    "guest.vm_s": "s", "guest.vm_instr": "count",
    "guest.vm_minstr_per_s": "Minstr/s", "workloads.build_s": "s",
    "trace.gen_s": "s", "trace.save_s": "s", "trace.save_bytes": "bytes",
    "trace.load_s": "s", "trace.hits": "count", "trace.misses": "count",
    "predictors.decode_s": "s", "predictors.stream_build_s": "s",
    "predictors.stream_builds": "count",
    **{f"predictors.cell_s.{t}": "s" for t in TIERS},
    **{f"predictors.cells.{t}": "count" for t in TIERS},
    "pipeline.timing_s": "s", "pipeline.timing_calls": "count",
    "pipeline.timing_minstr_per_s": "Minstr/s", "pipeline.penalties_s": "s",
    "runner.cache_load_s": "s", "runner.cache_store_s": "s",
    "runner.cycles_io_s": "s", "runner.cache_bytes": "bytes",
    "runner.cache_hit_ratio": "ratio", "runner.keys_s": "s",
    "runner.run_cells_self_s": "s", "runner.cells_requested": "count",
    "runner.cells_computed": "count", "runner.mask_bytes": "bytes",
    "experiments.self_s": "s",
    **{f"experiments.{name}_s": "s" for name in EXPERIMENTS},
    "service.submit_ms_p50": "ms", "service.wait_ms_p50": "ms",
    "service.wait_ms_p95": "ms",
    **{f"service.{name}": "count" for name in SERVICE_COUNTERS},
    "service.saved_ratio": "ratio",
    "traced_wall_s": "s", "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}
#: Wrapped-layer self times; with ``unattributed_s`` they sum to
#: ``traced_wall_s``.
SELF_TIME_METRICS = [
    "guest.vm_s", "workloads.build_s", "trace.gen_s", "trace.save_s",
    "trace.load_s", "predictors.decode_s", "predictors.stream_build_s",
    *[f"predictors.cell_s.{t}" for t in TIERS], "pipeline.timing_s",
    "pipeline.penalties_s", "runner.cache_load_s", "runner.cache_store_s",
    "runner.cycles_io_s", "runner.keys_s", "runner.run_cells_self_s",
    "experiments.self_s",
]


class StepFailed(RuntimeError):
    """A step of the program exited badly or printed no result."""


def percentile(values: List[float], q: float) -> float:
    """Percentile ``q`` (0..1), interpolated between the nearest ranks.

    With few values (18 tables, 10 documents) this weighs the slowest
    two rather than taking the slowest alone.
    """
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


class Window:
    """Repeats passes while the next one is expected to end in time."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.monotonic()
        self.passes = 0

    def more(self) -> bool:
        elapsed = time.monotonic() - self.start
        if self.passes and elapsed * (self.passes + 1) / self.passes > self.seconds:
            return False
        self.passes += 1
        return True


def summary(values: List[float]) -> Dict[str, float]:
    return {"median": statistics.median(values),
            "p95": percentile(values, 0.95), "n": len(values)}


# ----------------------------------------------------------------------
# Processes: every one is started in its own session and reaped.
# ----------------------------------------------------------------------
def _reap(proc: "subprocess.Popen[Any]", grace_s: float) -> None:
    """SIGTERM the process group, wait, then SIGKILL what is left."""
    for sig, wait_s in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 10.0)):
        try:
            os.killpg(proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            proc.wait(timeout=wait_s)
            break
        except subprocess.TimeoutExpired:
            continue
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
    except (ProcessLookupError, PermissionError):
        pass


class Run:
    """One benchmark run: its work directory, environment and children."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.n = TRACE_LENGTH[workload]
        self.work = root / ".bench_work" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self._dirs = 0
        self._servers: List["subprocess.Popen[Any]"] = []
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def fresh_dir(self, kind: str) -> str:
        self._dirs += 1
        path = self.work / f"{kind}{self._dirs}"
        path.mkdir(parents=True)
        return str(path)

    def _env(self, trace_cache: str, result_cache: str) -> Dict[str, str]:
        return {**self.env, "REPRO_TRACE_CACHE": trace_cache,
                "REPRO_RESULT_CACHE": result_cache}

    def step(self, name: str, caches: Tuple[str, str], *extra: str
             ) -> Dict[str, Any]:
        """Run one ``worker.py`` step in a fresh process; return its JSON."""
        cmd = [sys.executable, str(HERE / "worker.py"), name,
               "--spawned", repr(time.time()), "--n", str(self.n),
               "--seed", str(self.seed), *extra]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self._env(*caches),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _reap(proc, 1.0)
            raise StepFailed(f"{name}: no result in {STEP_TIMEOUT_S:.0f}s")
        finally:
            _reap(proc, 1.0)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise StepFailed(f"{name} exited {proc.returncode}: "
                             f"{err.strip()[-2000:]}")
        return json.loads(lines[-1])

    def start_server(self, caches: Tuple[str, str]) -> Tuple[Any, int]:
        """Start ``repro serve --port 0`` and wait until it answers."""
        log = self.work / f"serve{len(self._servers)}.log"
        with open(log, "w") as handle:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", "1", "--trace-length", str(self.n),
                 "--seed", str(self.seed)],
                cwd=self.root, env=self._env(*caches), stdout=handle,
                stderr=subprocess.STDOUT, start_new_session=True)
        self._servers.append(proc)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            text = log.read_text()
            if "listening on http://" in text:
                port = int(text.split("listening on http://", 1)[1]
                           .split()[0].rsplit(":", 1)[1])
                if http_json(port, "GET", "/healthz")["ok"]:
                    return proc, port
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        raise StepFailed(f"repro serve did not start: {log.read_text()[-2000:]}")

    def stop_server(self, proc: "subprocess.Popen[Any]") -> None:
        """Stop a server so its pool workers are joined, then reap.

        SIGINT to the server alone makes ``repro serve`` close its pool
        and join the workers, so none is orphaned; the group is killed
        only if that does not end it in time.
        """
        try:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=10.0)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
        _reap(proc, 10.0)
        if proc in self._servers:
            self._servers.remove(proc)

    def close(self) -> None:
        for proc in list(self._servers):
            self.stop_server(proc)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


# ----------------------------------------------------------------------
# The served-mix client: a closed loop over keep-alive connections that
# waits on each job's event stream instead of polling.
# ----------------------------------------------------------------------
def http_json(port: int, method: str, path: str,
              body: Optional[Any] = None) -> Any:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        return _exchange(conn, method, path, body)
    finally:
        conn.close()


def _exchange(conn: http.client.HTTPConnection, method: str, path: str,
              body: Optional[Any] = None) -> Any:
    payload = None if body is None else json.dumps(body).encode()
    headers = {} if payload is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    data = response.read()
    if response.status not in (200, 202):
        raise StepFailed(f"{method} {path}: HTTP {response.status} {data[:200]!r}")
    if path.endswith("/events"):
        return [json.loads(line) for line in data.splitlines() if line]
    return json.loads(data)


def closed_loop(port: int, documents: List[Any], mix: List[int]
                ) -> List[Dict[str, Any]]:
    """Send ``mix`` (document indices) over ``JOBS`` connections.

    Each connection submits one document, waits for its ``done`` event
    on ``GET /sweeps/{id}/events``, reads the rows, then sends the next.
    """
    pending = list(reversed(range(len(mix))))
    lock = threading.Lock()
    records: List[Optional[Dict[str, Any]]] = [None] * len(mix)

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    slot = pending.pop()
                record: Dict[str, Any] = {"doc": mix[slot], "ok": False}
                records[slot] = record
                try:
                    start = time.perf_counter()
                    job = _exchange(conn, "POST", "/sweeps",
                                    documents[mix[slot]])
                    accepted = time.perf_counter()
                    events = _exchange(conn, "GET",
                                       f"/sweeps/{job['id']}/events")
                    done = time.perf_counter()
                    result = _exchange(conn, "GET", f"/sweeps/{job['id']}")
                except (OSError, StepFailed, ValueError) as exc:
                    record["error"] = str(exc)
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=120)
                    continue
                record.update(
                    submit_ms=1e3 * (accepted - start),
                    wait_ms=1e3 * (done - accepted),
                    ok=bool(events) and events[-1].get("status") == "done"
                    and result.get("status") == "done",
                    rows=result.get("rows", []))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(JOBS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


# ----------------------------------------------------------------------
# Workloads.  Each pass returns its timings plus the digests to check.
# ----------------------------------------------------------------------
class Checks:
    """Counts operations and output mismatches across a run."""

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first: Dict[str, str] = {}
        self.problems: List[str] = []

    def outputs(self, digests: Dict[str, str], what: str,
                reference: Optional[Dict[str, str]] = None,
                attempted: Optional[int] = None) -> None:
        """Check one step's outputs against every reference available.

        ``reference`` is the same pass's cold outputs (for a warm step);
        the run's first output under each key is the reference for every
        later one; the recorded digests apply on their seed.
        """
        self.attempted += len(digests) if attempted is None else attempted
        for key, value in digests.items():
            wanted = [self.first.setdefault(key, value)]
            if reference is not None:
                wanted.append(reference.get(key))
            if self.expected is not None:
                wanted.append(self.expected.get(key))
            if any(value != other for other in wanted):
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{what} {key}: {value} != {wanted}")

    def lost(self, count: int, why: str) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(why)


def cold_and_warm(run: Run, step: str, caches: Tuple[str, str],
                  checks: Checks, *extra: str) -> Dict[str, Any]:
    """A cold step, then warm steps over its caches, each a fresh process.

    Checks every step's outputs (warm against cold); returns the pass's
    timings.
    """
    cold = run.step(step, caches, "--jobs", str(JOBS), *extra)
    warms = [run.step(step, caches, "--jobs", str(JOBS), *extra)
             for _ in range(WARM_RUNS)]
    checks.outputs(cold["digests"], "cold")
    for warm in warms:
        checks.outputs(warm["digests"], "warm", reference=cold["digests"])
    return {"wall_s": cold["wall_s"],
            "warm_s": [warm["wall_s"] for warm in warms],
            "setup_s": [one["ready_s"] for one in [cold] + warms],
            "units_ms": {unit: 1e3 * s for unit, s in cold["units"].items()}}


def paper_tables(run: Run, checks: Checks) -> Dict[str, Any]:
    caches = (run.fresh_dir("tc"), run.fresh_dir("rc"))
    return cold_and_warm(run, "paper", caches, checks)


def _documents_file(run: Run, name: str, documents: Any) -> str:
    path = run.work / name
    if not path.exists():
        path.write_text(json.dumps(documents))
    return str(path)


def design_setup(run: Run) -> Tuple[str, float]:
    """Generate every grid benchmark's trace into a fresh trace cache."""
    trace_cache = run.fresh_dir("tc")
    out = run.step("traces", (trace_cache, "0"), "--benchmarks",
                   ",".join(DESIGN_BENCHMARKS))
    return trace_cache, out["done_s"]


def design_sweep(run: Run, checks: Checks) -> Dict[str, Any]:
    docs = _documents_file(run, "design.json", design_documents())
    trace_cache, setup = design_setup(run)
    caches = (trace_cache, run.fresh_dir("rc"))
    out = cold_and_warm(run, "sweep", caches, checks, "--docs", docs)
    out["setup_s"] = [setup]
    return out


def _served_digests(records: List[Any]) -> Tuple[Dict[str, str], int]:
    digests: Dict[str, str] = {}
    bad = 0
    for record in records:
        if not record["ok"]:
            bad += 1
            continue
        value = rows_digest(record["rows"])
        if digests.setdefault(str(record["doc"]), value) != value:
            bad += 1
    return digests, bad


def served_pass(run: Run, trace_cache: str, checks: Checks,
                observed: Dict[str, str], number: int) -> Dict[str, Any]:
    """Pass ``number`` of the served mix: a fresh server, cold then warm.

    Which requests compute, which are in-flight duplicates and which hit
    the cache depends on the order, so every pass draws another order of
    the mix from the run's seed.
    """
    documents = served_population()
    mix = zipf_mix(run.seed * 1000 + number, len(documents), SERVED_REQUESTS)
    proc, port = run.start_server((trace_cache, run.fresh_dir("rc")))
    try:
        before = http_json(port, "GET", "/stats")["scheduler"]
        cold = closed_loop(port, documents, mix)
        after = http_json(port, "GET", "/stats")["scheduler"]
        warm = closed_loop(port, documents, mix)
    finally:
        run.stop_server(proc)
    for half in (cold, warm):
        digests, bad = _served_digests(half)
        checks.outputs(digests, "served", attempted=len(half) - bad)
        if bad:
            checks.lost(bad, f"{bad} served requests failed or disagreed")
        observed.update(digests)
    return {"records": [r for r in cold if r["ok"]],
            "stats": {k: after[k] - before[k] for k in SERVICE_COUNTERS}}


def service_layers(run: Run, trace_cache: str, checks: Checks
                   ) -> Dict[str, float]:
    """The service layer: the served mix against ``repro serve``.

    Client-side timings plus ``/stats`` deltas over ``SERVICE_PASSES``
    passes; every document's rows must equal those a direct
    ``run_cells`` (no result cache) computes.
    """
    observed: Dict[str, str] = {}
    passes = [served_pass(run, trace_cache, checks, observed, number)
              for number in range(SERVICE_PASSES)]
    docs = _documents_file(run, "served.json", served_population())
    direct = run.step("direct", (trace_cache, "0"), "--docs", docs,
                      "--jobs", str(JOBS))["digests"]
    for key, value in observed.items():
        if direct[key] != value:
            checks.lost(1, f"served document {key} differs from run_cells")
    records = [r for one in passes for r in one["records"]]
    waits = [r["wait_ms"] for r in records]
    metrics = {
        "service.submit_ms_p50": statistics.median(
            r["submit_ms"] for r in records),
        "service.wait_ms_p50": statistics.median(waits),
        "service.wait_ms_p95": percentile(waits, 0.95),
        **{f"service.{name}": statistics.median(p["stats"][name]
                                                for p in passes)
           for name in SERVICE_COUNTERS},
    }
    submitted = metrics["service.submitted"]
    metrics["service.saved_ratio"] = (
        (metrics["service.dedup"] + metrics["service.cache_hit"]) / submitted
        if submitted else 0.0)
    return metrics


# ----------------------------------------------------------------------
def measure(run: Run, seconds: float, checks: Checks) -> Dict[str, Any]:
    """Repeat the workload's pass within ``seconds``; medians of each timing."""
    passes: List[Dict[str, Any]] = []
    window = Window(seconds)
    while window.more():
        if run.workload == "paper_tables":
            passes.append(paper_tables(run, checks))
        else:
            passes.append(design_sweep(run, checks))
    setups = [s for one in passes for s in one["setup_s"]]
    while len(setups) < MIN_SETUPS:  # a paper_tables pass gives three
        setups.append(design_setup(run)[1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # A table or a spec document is the same work in every pass, so it
    # counts once, at its median over passes.
    by_unit: Dict[str, List[float]] = {}
    for one in passes:
        for unit, ms in one["units_ms"].items():
            by_unit.setdefault(unit, []).append(ms)
    latencies = [statistics.median(values) for values in by_unit.values()]
    details = {"passes": len(passes),
               "wall_s": summary([p["wall_s"] for p in passes]),
               "warm_s": summary([s for p in passes for s in p["warm_s"]]),
               "setup_s": summary(setups), "latency_ms": summary(latencies)}
    metrics = {
        "wall_s": details["wall_s"]["median"],
        "warm_s": details["warm_s"]["median"],
        "setup_s": details["setup_s"]["median"],
        "peak_rss_mb": peak_rss_mb,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": percentile(latencies, 0.95),
    }
    return {"metrics": metrics, "details": details}


def measure_layers(run: Run, seconds: float, checks: Checks
                   ) -> Dict[str, Any]:
    """The traced run: per-layer metrics, untraced and traced alternately.

    ``design_sweep``'s traced run also serves the served mix, for the
    service layer.
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    window = Window(seconds)
    extra: List[str] = ["--workload", run.workload]
    trace_cache = None
    service: Dict[str, float] = {}
    if run.workload == "design_sweep":
        extra += ["--docs", _documents_file(run, "design.json",
                                            design_documents())]
        trace_cache, _ = design_setup(run)  # as in the end-to-end pass
        service = service_layers(run, trace_cache, checks)
    plain: List[float] = []
    traced: List[Dict[str, Any]] = []
    while window.more():
        # Alternate which goes first, so drift of the host's speed during
        # a pair does not bias the overhead.
        for untraced in ((True, False) if len(traced) % 2 == 0
                         else (False, True)):
            caches = (trace_cache or run.fresh_dir("tc"), run.fresh_dir("rc"))
            mode = ["--untraced"] if untraced else []
            cold = run.step("traced", caches, *extra, *mode)
            warm = run.step("traced", caches, *extra, *mode)
            checks.outputs(cold["digests"], "traced cold")
            checks.outputs(warm["digests"], "traced warm",
                           reference=cold["digests"])
            out = cold_plus_warm(cold, warm)
            if untraced:
                plain.append(out["wall_s"])
            else:
                traced.append(out)
    runs = [layer_metrics(out) for out in traced]
    for name in metrics:
        values = [one.get(name, 0.0) for one in runs]
        metrics[name] = statistics.median(values)
    metrics["trace_overhead_ratio"] = (
        statistics.median([o["wall_s"] for o in traced])
        / statistics.median(plain) - 1.0)
    metrics.update(service)
    return metrics


def cold_plus_warm(cold: Dict[str, Any], warm: Dict[str, Any]
                   ) -> Dict[str, Any]:
    """One traced pass from its cold and warm ``worker.py traced`` steps.

    Self times and counts add up; the inclusive time of each experiment
    is the warm step's.
    """
    def added(key: str) -> Dict[str, float]:
        total = dict(cold[key])
        for name, value in warm[key].items():
            total[name] = total.get(name, 0.0) + value
        return total

    return {"wall_s": cold["wall_s"] + warm["wall_s"],
            "self_s": added("self_s"), "counts": added("counts"),
            "warm_inclusive_s": warm["inclusive_s"]}


def layer_metrics(out: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see :func:`cold_plus_warm`)."""
    self_s: Dict[str, float] = out["self_s"]
    counts: Dict[str, float] = out["counts"]
    metrics = {name: self_s.get(name, 0.0) for name in SELF_TIME_METRICS}
    metrics.update({name: counts.get(name, 0.0) for name in PER_LAYER
                    if PER_LAYER[name] in ("count", "bytes")})
    metrics.update({k: v for k, v in out["warm_inclusive_s"].items()
                    if k in PER_LAYER})
    vm_s, timing_s = metrics["guest.vm_s"], metrics["pipeline.timing_s"]
    metrics["guest.vm_minstr_per_s"] = (
        counts.get("guest.vm_instr", 0.0) / vm_s / 1e6 if vm_s else 0.0)
    metrics["pipeline.timing_minstr_per_s"] = (
        counts.get("pipeline.timing_instr", 0.0) / timing_s / 1e6
        if timing_s else 0.0)
    hits = counts.get("runner.cache_hits", 0.0)
    loads = hits + counts.get("runner.cache_misses", 0.0)
    metrics["runner.cache_hit_ratio"] = hits / loads if loads else 0.0
    metrics["runner.cells_computed"] = sum(
        counts.get(f"predictors.cells.{t}", 0.0) for t in TIERS)
    metrics["traced_wall_s"] = out["wall_s"]
    metrics["unattributed_s"] = out["wall_s"] - sum(
        self_s.get(name, 0.0) for name in SELF_TIME_METRICS)
    return metrics


# ----------------------------------------------------------------------
def load_expected(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not DIGESTS.exists():
        return None
    recorded = json.loads(DIGESTS.read_text())
    if (recorded["seed"], recorded["trace_length"]) != (seed, TRACE_LENGTH):
        return None
    return recorded["workloads"].get(workload)


def record_digests(workload: str, seed: int, digests: Dict[str, str]) -> None:
    recorded = {"seed": seed, "trace_length": TRACE_LENGTH, "workloads": {}}
    if DIGESTS.exists():
        previous = json.loads(DIGESTS.read_text())
        if (previous["seed"], previous["trace_length"]) == (seed, TRACE_LENGTH):
            recorded = previous
    recorded["workloads"][workload] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TRACE_LENGTH))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this run's output digests to "
                             "digests.json instead of checking them")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    # Make SIGTERM unwind through the finally below, so children are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Handled, not ignored, so children start with the default SIGINT
    # action even when this process was started with SIGINT ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    run = Run(root, args.workload, args.seed)
    checks = Checks(None if args.record
                    else load_expected(args.workload, args.seed))
    try:
        if args.trace:
            metrics = measure_layers(run, args.seconds, checks)
            details: Dict[str, Any] = {}
            units = PER_LAYER
        else:
            result = measure(run, args.seconds, checks)
            metrics, details = result["metrics"], result["details"]
            units = END_TO_END
    except StepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    if args.record:
        record_digests(args.workload, args.seed, checks.first)
    details["problems"] = checks.problems
    print(json.dumps({"details": details}))
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
