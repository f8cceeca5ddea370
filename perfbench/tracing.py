"""Per-layer attribution by wrapping the program's public functions.

A :class:`Tracer` replaces chosen functions and methods with timing
wrappers wherever the ``repro`` package binds them (module attributes
and class attributes), and puts the originals back on exit.  Each
wrapper charges its *self* time (its duration minus the durations of the
wrapped calls made inside it) to one metric, so the self times of every
metric plus the time spent outside any wrapped call add up to the traced
wall clock with no double counting.

Nothing under ``src/`` changes: the spans live here, around the calls
into each layer.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``hook(tracer, result, args, kwargs)`` runs inside the span and records
#: counts; it must not call any wrapped function.
Hook = Callable[["Tracer", Any, Tuple[Any, ...], Dict[str, Any]], None]


class Tracer:
    """Self-time accounting over a set of wrapped callables."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: inclusive seconds of labelled spans, by label
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self._children: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable[..., Any], metric: str,
             hook: Optional[Hook] = None,
             label: Optional[Callable[..., str]] = None
             ) -> Callable[..., Any]:
        """Return a wrapper of ``fn`` charging its self time to ``metric``.

        ``label(*args, **kwargs)``, when given, names a metric that also
        receives the call's inclusive time.
        """
        children = self._children
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, result, args, kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                self_s[metric] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                if label is not None:
                    inclusive_s[label(*args, **kwargs)] += elapsed

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # ------------------------------------------------------------------
    def patch_function(self, fn: Callable[..., Any], metric: str,
                       hook: Optional[Hook] = None,
                       label: Optional[Callable[..., str]] = None,
                       package: str = "repro") -> None:
        """Rebind ``fn`` to its wrapper in every loaded module of ``package``.

        Callers import functions by name, so one function may be bound in
        several modules; every binding is replaced.
        """
        wrapper = self.wrap(fn, metric, hook, label)
        replaced = False
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package
                                      or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    replaced = True
        if not replaced:
            raise LookupError(f"{fn!r} is not bound in any {package} module")

    def patch_method(self, cls: type, attr: str, metric: str,
                     hook: Optional[Hook] = None) -> None:
        """Wrap ``cls.attr`` (a plain method or a classmethod) in place."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self.wrap(original.__func__, metric, hook))
        else:
            replacement = self.wrap(original, metric, hook)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        """Put every original back, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


# ----------------------------------------------------------------------
# The repo's layers: which public callables belong to which metric.
# ----------------------------------------------------------------------
def _count(name: str, amount: Callable[..., float] = lambda *a: 1.0) -> Hook:
    def hook(tracer: Tracer, result: Any, args: Tuple[Any, ...],
             kwargs: Dict[str, Any]) -> None:
        tracer.counts[name] += amount(result, args, kwargs)
    return hook


def _hooks(*hooks: Hook) -> Hook:
    def hook(tracer: Tracer, result: Any, args: Tuple[Any, ...],
             kwargs: Dict[str, Any]) -> None:
        for one in hooks:
            one(tracer, result, args, kwargs)
    return hook


def _trace_lookup(tracer: Tracer, result: Any, args: Tuple[Any, ...],
                  kwargs: Dict[str, Any]) -> None:
    # A lookup that ran the guest VM was a miss; anything else a hit.
    runs = tracer.counts["guest.vm_calls"]
    key = "trace.misses" if runs > tracer.counts["_vm_calls_seen"] else "trace.hits"
    tracer.counts[key] += 1
    tracer.counts["_vm_calls_seen"] = runs


def _cache_load(tracer: Tracer, result: Any, args: Tuple[Any, ...],
                kwargs: Dict[str, Any]) -> None:
    tracer.counts["runner.cache_hits" if result is not None
                  else "runner.cache_misses"] += 1


def _stored_bytes(path_of: str) -> Hook:
    def hook(tracer: Tracer, result: Any, args: Tuple[Any, ...],
             kwargs: Dict[str, Any]) -> None:
        cache, key = args[0], args[1]
        tracer.counts["runner.cache_bytes"] += os.path.getsize(
            getattr(cache, path_of)(key))
    return hook


def _run_cells_hook(tracer: Tracer, result: Any, args: Tuple[Any, ...],
                    kwargs: Dict[str, Any]) -> None:
    cells = args[0]
    tracer.counts["runner.cells_requested"] += len(cells)
    unique = {id(stats): stats for stats in result}
    tracer.counts["runner.mask_bytes"] += sum(
        stats.mispredict_mask.nbytes for stats in unique.values()
        if stats.mispredict_mask is not None)


def load_repo_layers() -> None:
    """Import every module a traced pass calls into.

    Experiment modules load lazily; loading them before wrapping means
    any name they bind at import time is patched and restored with the
    rest, and that no import falls inside a timed pass.
    """
    import importlib

    from repro.experiments.common import EXPERIMENT_MODULES

    for module in EXPERIMENT_MODULES.values():
        importlib.import_module(module)


def install_repo_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of the ``repro`` package.

    Layers and the callables charged to them:

    * ``guest`` — ``run_program`` (the guest VM);
    * ``workloads`` — ``WorkloadSpec.build`` and ``get_trace``'s own glue;
    * ``trace`` — ``Trace.from_raw``/``validate`` (generation),
      ``save_trace``, ``load_trace`` and ``cached_trace`` (lookup);
    * ``predictors`` — ``decode_branches``, ``build_streams`` and the three
      cell kernels ``simulate_vector``/``simulate_streamed``/``simulate``;
    * ``pipeline`` — ``run_timing`` and ``memory_penalties``;
    * ``runner`` — ``ResultCache`` reads and writes, ``cell_key``/
      ``timing_key`` and ``run_cells``'s own glue;
    * ``experiments`` — ``run_experiment``'s own glue (table building and
      :class:`ExperimentContext` bookkeeping).
    """
    from repro.experiments.common import run_experiment
    from repro.guest.vm import run_program
    from repro.pipeline import memory_penalties, run_timing
    from repro.predictors import (
        build_streams,
        decode_branches,
        simulate,
        simulate_streamed,
        simulate_vector,
    )
    from repro.runner import ResultCache, cell_key, run_cells, timing_key
    from repro.trace import io as trace_io
    from repro.trace.trace import Trace
    from repro.workloads import get_trace
    from repro.workloads.registry import WorkloadSpec

    def instructions(result: Any, args: Tuple[Any, ...],
                     kwargs: Dict[str, Any]) -> float:
        return float(len(result.pc))

    def timed_instructions(result: Any, args: Tuple[Any, ...],
                           kwargs: Dict[str, Any]) -> float:
        return float(len(args[0]))

    def saved_bytes(result: Any, args: Tuple[Any, ...],
                    kwargs: Dict[str, Any]) -> float:
        return float(os.path.getsize(args[1]))

    load_repo_layers()
    patch = tracer.patch_function
    patch(run_program, "guest.vm_s", _hooks(_count("guest.vm_calls"),
                                            _count("guest.vm_instr",
                                                   instructions)))
    tracer.patch_method(WorkloadSpec, "build", "workloads.build_s")
    patch(get_trace, "workloads.build_s")
    tracer.patch_method(Trace, "from_raw", "trace.gen_s")
    tracer.patch_method(Trace, "validate", "trace.gen_s")
    patch(trace_io.save_trace, "trace.save_s",
          _count("trace.save_bytes", saved_bytes))
    patch(trace_io.load_trace, "trace.load_s")
    patch(trace_io.cached_trace, "trace.load_s", _trace_lookup)
    patch(decode_branches, "predictors.decode_s")
    patch(build_streams, "predictors.stream_build_s",
          _count("predictors.stream_builds"))
    for fn, tier in ((simulate_vector, "vector"),
                     (simulate_streamed, "streams"), (simulate, "engine")):
        patch(fn, f"predictors.cell_s.{tier}",
              _count(f"predictors.cells.{tier}"))
    patch(run_timing, "pipeline.timing_s",
          _hooks(_count("pipeline.timing_calls"),
                 _count("pipeline.timing_instr", timed_instructions)))
    patch(memory_penalties, "pipeline.penalties_s")
    tracer.patch_method(ResultCache, "load", "runner.cache_load_s",
                        _cache_load)
    tracer.patch_method(ResultCache, "store", "runner.cache_store_s",
                        _stored_bytes("_path"))
    tracer.patch_method(ResultCache, "load_cycles", "runner.cycles_io_s")
    tracer.patch_method(ResultCache, "store_cycles", "runner.cycles_io_s",
                        _stored_bytes("_cycles_path"))
    patch(cell_key, "runner.keys_s")
    patch(timing_key, "runner.keys_s")
    patch(run_cells, "runner.run_cells_self_s", _run_cells_hook)
    patch(run_experiment, "experiments.self_s",
          label=lambda name, *args, **kwargs: f"experiments.{name}_s")
