"""Determinism lint: sources of run-to-run nondeterminism in the kernel.

PR 1's parallel sweep runner is only sound because a cell's result is a
pure function of (trace, config, code): the persistent result cache replays
stored outputs, and the process pool reassembles results by cell index.
Anything that sneaks wall-clock time, unseeded randomness, environment
state, or hash-randomised iteration order into the simulation kernel breaks
that contract *silently* — cached and fresh runs diverge with no error.

Rules (checked inside ``predictors/``, ``pipeline/``, ``runner/``,
``obs/`` — telemetry must not perturb results, so its few legitimate
wall-clock/environment reads carry explicit suppressions —
``guest/lowering``, where any nondeterminism would fork the emitted code
out from under the trace fingerprint, and ``store.py``, which holds the
cached results):

``det-unseeded-random``
    Module-level ``random.*`` / ``numpy.random.*`` calls.  Seeded generator
    construction (``random.Random(seed)``, ``np.random.default_rng(seed)``)
    is allowed; the global-state functions are not.
``det-wall-clock``
    ``time.time()``-family and ``datetime.now()``-family calls.
``det-env-read``
    ``os.environ`` / ``os.getenv`` access.  Results must not depend on the
    environment; knobs that only relocate caches or size worker pools are
    suppressed explicitly at the call site.
``det-set-iteration``
    Iterating a set/frozenset literal or constructor directly: iteration
    order depends on hash randomisation for str-keyed sets.  Sort first.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.astutil import import_aliases, resolve_dotted
from repro.analysis.base import Finding, Project, SourceFile

#: One detected impurity: ``(rule, lineno, message)``.  The transitive
#: purity pass (:mod:`repro.analysis.purity`) consumes these directly,
#: so the lexical and call-graph passes share one set of detectors.
Impurity = Tuple[str, int, str]

#: Package-relative paths the determinism rules apply to.  The switch
#: lowerings are in scope because a lowering must be a pure function of
#: the switch spec: an RNG or environment read there would let the *same*
#: workload fingerprint produce different code across runs.
SCOPE = ("predictors/", "pipeline/", "runner/", "obs/", "guest/lowering",
         "store.py")

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.clock",
    }
)
_DATE_LIKE = ("datetime.now", "datetime.utcnow", "datetime.today", "date.today")

#: ``random.<name>`` attributes that are deterministic to *construct*.
_SEEDED_RANDOM_FACTORIES = frozenset({"Random", "SystemRandom"})

#: ``numpy.random.<name>`` factories acceptable when given an explicit seed.
_SEEDED_NUMPY_FACTORIES = frozenset({"default_rng", "RandomState", "Generator"})


def _call_impurity(node: ast.Call, aliases: Dict[str, str]) -> List[Impurity]:
    dotted = resolve_dotted(node.func, aliases)
    if dotted is None:
        return []
    if dotted.startswith("random."):
        tail = dotted.split(".", 1)[1]
        if tail.split(".")[0] not in _SEEDED_RANDOM_FACTORIES:
            return [
                (
                    "det-unseeded-random", node.lineno,
                    f"call to '{dotted}' uses the global (unseeded) RNG; "
                    "construct a seeded random.Random instead",
                )
            ]
        return []
    if dotted.startswith("numpy.random."):
        tail = dotted.rsplit(".", 1)[1]
        if tail in _SEEDED_NUMPY_FACTORIES and (node.args or node.keywords):
            return []
        message = (
            f"call to '{dotted}' draws from numpy's global RNG; "
            "use np.random.default_rng(seed)"
            if tail not in _SEEDED_NUMPY_FACTORIES
            else f"'{dotted}' constructed without an explicit seed"
        )
        return [("det-unseeded-random", node.lineno, message)]
    if dotted in _WALL_CLOCK or dotted.endswith(_DATE_LIKE):
        return [
            (
                "det-wall-clock", node.lineno,
                f"call to '{dotted}' reads the wall clock; results must "
                "not depend on time",
            )
        ]
    if dotted == "os.getenv":
        return [
            (
                "det-env-read", node.lineno,
                "os.getenv() makes behaviour depend on the environment",
            )
        ]
    return []


def _environ_impurity(
    node: ast.Attribute, aliases: Dict[str, str]
) -> List[Impurity]:
    if node.attr != "environ":
        return []
    dotted = resolve_dotted(node, aliases)
    if dotted != "os.environ":
        return []
    return [
        (
            "det-env-read", node.lineno,
            "os.environ access makes behaviour depend on the environment",
        )
    ]


def _set_iter_impurity(iter_node: ast.AST) -> List[Impurity]:
    reason: Optional[str] = None
    if isinstance(iter_node, (ast.Set, ast.SetComp)):
        reason = "a set literal"
    elif (
        isinstance(iter_node, ast.Call)
        and isinstance(iter_node.func, ast.Name)
        and iter_node.func.id in ("set", "frozenset")
    ):
        reason = f"a {iter_node.func.id}() value"
    if reason is None:
        return []
    lineno = getattr(iter_node, "lineno", 1)
    return [
        (
            "det-set-iteration", lineno,
            f"iterating {reason} directly: set order varies under hash "
            "randomisation; wrap in sorted(...)",
        )
    ]


def scan_impurities(root: ast.AST, aliases: Dict[str, str]) -> List[Impurity]:
    """Every determinism hazard under ``root`` as ``(rule, line, message)``.

    ``root`` may be a whole module (the lexical checker) or a single
    function definition (the transitive purity pass); ``aliases`` are the
    defining module's import aliases either way.
    """
    impurities: List[Impurity] = []
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            impurities.extend(_call_impurity(node, aliases))
        elif isinstance(node, ast.Attribute):
            impurities.extend(_environ_impurity(node, aliases))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            impurities.extend(_set_iter_impurity(node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                impurities.extend(_set_iter_impurity(generator.iter))
    return impurities


class DeterminismChecker:
    """Flag nondeterminism hazards in the simulation/runner code."""

    name = "determinism"
    description = (
        "unseeded RNG, wall-clock, os.environ, and set-iteration hazards in "
        "predictors/, pipeline/, runner/, obs/, guest/lowering and store.py"
    )

    def __init__(self, scope: Sequence[str] = SCOPE) -> None:
        self.scope = tuple(scope)

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for source in project.files_under(*self.scope):
            findings.extend(self.check_file(source))
        return findings

    # ------------------------------------------------------------------
    def check_file(self, source: SourceFile) -> List[Finding]:
        aliases = import_aliases(source.tree)
        return [
            Finding(rule, source.relpath, line, message)
            for rule, line, message in scan_impurities(source.tree, aliases)
        ]
