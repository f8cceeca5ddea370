"""The obs-discipline checker: telemetry hygiene on synthetic sources."""

import textwrap
from pathlib import Path

from repro.analysis import CHECKERS
from repro.analysis.base import Project, SourceFile
from repro.analysis.obs_discipline import ObsDisciplineChecker

_OBS_IMPORT = "from repro.obs import get_sink\n"


def _project(code, relpath="runner/pool.py", with_import=True):
    text = (_OBS_IMPORT if with_import else "") + textwrap.dedent(code)
    return Project(Path("."), [SourceFile.from_text(relpath, text)])


def _run(code, relpath="runner/pool.py", with_import=True, hot_paths=()):
    checker = ObsDisciplineChecker(hot_paths=hot_paths)
    return checker.run(_project(code, relpath, with_import))


class TestHotPathRule:
    HOT = (("predictors/engine.py", "simulate", False),)

    def test_incr_inside_a_hot_loop_is_flagged(self):
        code = """
        def simulate(records):
            sink = get_sink()
            for record in records:
                sink.incr("branches")
        """
        findings = _run(code, relpath="predictors/engine.py",
                        hot_paths=self.HOT)
        assert [f.rule for f in findings] == ["obs-in-hot-path"]
        assert "incr" in findings[0].message

    def test_span_inside_a_hot_loop_is_flagged(self):
        code = """
        def simulate(records):
            sink = get_sink()
            for record in records:
                with sink.span("branch"):
                    pass
        """
        findings = _run(code, relpath="predictors/engine.py",
                        hot_paths=self.HOT)
        assert "obs-in-hot-path" in [f.rule for f in findings]

    def test_get_sink_inside_a_hot_loop_is_flagged(self):
        code = """
        def simulate(records):
            for record in records:
                get_sink()
        """
        findings = _run(code, relpath="predictors/engine.py",
                        hot_paths=self.HOT)
        assert [f.rule for f in findings] == ["obs-in-hot-path"]

    def test_telemetry_around_the_loop_is_allowed(self):
        code = """
        def simulate(records):
            sink = get_sink()
            with sink.span("simulate"):
                for record in records:
                    pass
            sink.incr("runs")
        """
        assert _run(code, relpath="predictors/engine.py",
                    hot_paths=self.HOT) == []

    def test_whole_body_hot_function_is_covered(self):
        code = """
        class Engine:
            def process_branch(self, pc):
                self.sink.incr("branches")
        """
        hot = (("predictors/engine.py", "Engine.process_branch", True),)
        findings = _run(code, relpath="predictors/engine.py", hot_paths=hot)
        assert [f.rule for f in findings] == ["obs-in-hot-path"]

    def test_files_not_importing_obs_are_ignored(self):
        # 'event' and 'flush' are generic method names; without the
        # repro.obs import they must not trip the rule.
        code = """
        def simulate(records):
            for record in records:
                record.event("x")
                record.flush()
        """
        assert _run(code, relpath="predictors/engine.py",
                    with_import=False, hot_paths=self.HOT) == []


class TestSpanManagedRule:
    def test_bare_span_call_is_flagged(self):
        code = """
        def run(sink):
            sink.span("phase")
        """
        findings = _run(code)
        assert [f.rule for f in findings] == ["obs-span-unmanaged"]

    def test_assigned_span_is_flagged(self):
        code = """
        def run(sink):
            span = sink.span("phase")
            return span
        """
        findings = _run(code)
        assert [f.rule for f in findings] == ["obs-span-unmanaged"]

    def test_with_managed_span_is_allowed(self):
        code = """
        def run(sink):
            with sink.span("phase", benchmark="perl"):
                pass
        """
        assert _run(code) == []

    def test_chained_get_sink_span_is_allowed(self):
        code = """
        def run():
            with get_sink().span("phase"):
                pass
        """
        assert _run(code) == []

    def test_multi_item_with_counts_every_item(self):
        code = """
        def run(a, b):
            with a.span("one"), b.span("two"):
                pass
        """
        assert _run(code) == []

    def test_span_name_on_unrelated_api_without_import_is_ignored(self):
        code = """
        def run(tracer):
            tracer.span("not-ours")
        """
        assert _run(code, with_import=False) == []


class TestShippedTree:
    def test_registered_in_the_checker_registry(self):
        assert any(isinstance(c, ObsDisciplineChecker) for c in CHECKERS)

    def test_shipped_sources_are_clean(self):
        project = Project.load()
        findings = ObsDisciplineChecker().run(project)
        assert findings == [], [f.format() for f in findings]

    def test_instrumented_modules_are_actually_checked(self):
        # the rule only fires in files importing repro.obs; the modules the
        # subsystem instruments must all qualify, or the lint is vacuous
        from repro.analysis.obs_discipline import _imports_obs

        project = Project.load()
        for relpath in ("runner/pool.py", "runner/cache.py", "store.py",
                        "predictors/streams.py", "bench.py",
                        "experiments/common.py"):
            source = project.file(relpath)
            assert source is not None, relpath
            assert _imports_obs(source.tree), relpath
