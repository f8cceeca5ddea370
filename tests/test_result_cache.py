"""The persistent result cache: key stability, invalidation, round-trips.

The cache is only safe if every input that can change a simulation result
changes the key — and nothing else does.  These tests pin both directions.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.guest.isa import BranchKind
from repro.pipeline import MachineConfig
from repro.predictors import (
    DirectionConfig,
    EngineConfig,
    HistoryConfig,
    HistorySource,
    PredictionStats,
    TargetCacheConfig,
    simulate,
)
from repro.predictors.btb import UpdateStrategy
from repro.runner import (
    ResultCache,
    SweepCell,
    cell_key,
    config_token,
    run_cells,
    timing_key,
)

LENGTH = 20_000
SEED = 1997


def key(config=EngineConfig(), benchmark="perl", length=LENGTH, seed=SEED):
    return cell_key(benchmark, config, length, seed)


class TestKeyInvalidation:
    def test_trace_length_change_misses(self):
        assert key(length=LENGTH) != key(length=LENGTH + 1)

    def test_seed_change_misses(self):
        assert key(seed=SEED) != key(seed=SEED + 1)

    def test_benchmark_change_misses(self):
        assert key(benchmark="perl") != key(benchmark="gcc")

    @pytest.mark.parametrize("change", [
        dict(btb_sets=128),
        dict(btb_ways=2),
        dict(btb_strategy=UpdateStrategy.TWO_BIT),
        dict(ras_depth=16),
        dict(direction=DirectionConfig(scheme="gag")),
        dict(target_cache=TargetCacheConfig(kind="tagless")),
        dict(history=HistoryConfig(source=HistorySource.PATH_GLOBAL)),
        dict(target_cache_handles_returns=True),
    ])
    def test_every_engine_config_field_is_in_the_key(self, change):
        changed = dataclasses.replace(EngineConfig(), **change)
        assert key(config=changed) != key(config=EngineConfig())

    def test_nested_history_field_is_in_the_key(self):
        a = EngineConfig(history=HistoryConfig(bits=9))
        b = EngineConfig(history=HistoryConfig(bits=10))
        assert key(config=a) != key(config=b)

    def test_unrelated_environment_change_still_hits(self, monkeypatch):
        before = key()
        monkeypatch.setenv("SOME_UNRELATED_VARIABLE", "changed")
        monkeypatch.setenv("REPRO_BENCH_TRACE_LENGTH", "123")
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert key() == before

    def test_a_pre_rendered_spec_gives_the_same_key(self):
        config = EngineConfig(target_cache=TargetCacheConfig(kind="tagless"))
        assert cell_key("perl", config, LENGTH, SEED,
                        spec=config.to_spec()) == key(config=config)
        machine = MachineConfig()
        assert timing_key("perl", config, LENGTH, SEED, machine,
                          spec=config.to_spec()) == \
            timing_key("perl", config, LENGTH, SEED, machine)

    def test_equal_configs_can_render_different_keys(self):
        # Why run_cells memoises rendered specs by identity, not equality.
        a = EngineConfig(target_cache_handles_returns=True)
        b = EngineConfig(target_cache_handles_returns=1)
        assert a == b and hash(a) == hash(b)
        assert key(config=a) != key(config=b)

    def test_key_is_deterministic_across_calls(self):
        assert key() == key()

    def test_config_token_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            config_token(object())


def _assert_same_counters(a, b):
    assert a.instructions == b.instructions
    assert a.btb_lookups == b.btb_lookups
    assert a.btb_hits == b.btb_hits
    for kind in BranchKind:
        assert a.counters(kind).executed == b.counters(kind).executed
        assert a.counters(kind).mispredicted == b.counters(kind).mispredicted


#: The fields of a stats entry: counters only, never a mispredict mask.
_ENTRY_FIELDS = {"version", "instructions", "btb_lookups", "btb_hits", "kinds"}


class TestResultCacheStore:
    def test_round_trip(self, tmp_path):
        from repro.workloads import get_trace

        trace = get_trace("perl", n_instructions=LENGTH)
        stats = simulate(trace, EngineConfig(), collect_mask=True)
        cache = ResultCache(tmp_path)
        cache.store("a" * 64, stats)
        loaded = cache.load("a" * 64)
        assert loaded is not None
        _assert_same_counters(loaded, stats)
        assert loaded.mispredict_mask is None

    def test_stored_entry_holds_no_mask(self, tmp_path):
        from repro.workloads import get_trace

        trace = get_trace("perl", n_instructions=LENGTH)
        stats = simulate(trace, EngineConfig(), collect_mask=True)
        cache = ResultCache(tmp_path)
        cache.store("b" * 64, stats)
        entry = json.loads(cache._path("b" * 64).read_text())
        assert set(entry) == _ENTRY_FIELDS

    def test_npz_entry_of_the_old_format_is_neither_read_nor_deleted(
            self, tmp_path):
        """Stats entries were once npz archives beside today's json ones:
        a directory shared with an older checkout keeps both."""
        stats = PredictionStats(instructions=100, btb_lookups=10, btb_hits=7)
        stats.counters(BranchKind.IND_JUMP).executed = 4
        cache = ResultCache(tmp_path)
        old = cache._path("c" * 64).with_suffix(".npz")
        old.parent.mkdir(parents=True)
        np.savez_compressed(
            old, version=np.int64(1), instructions=np.int64(100),
            btb_lookups=np.int64(10), btb_hits=np.int64(7),
            kind_values=np.array([BranchKind.IND_JUMP.value]),
            executed=np.array([4]), mispredicted=np.array([0]))
        before = old.read_bytes()
        assert cache.load("c" * 64) is None
        cache.store("c" * 64, stats)
        assert cache.load("c" * 64) == stats
        assert old.read_bytes() == before

    @pytest.mark.parametrize("change", [
        {"btb_hits": None},  # None drops the field
        {"kinds": [[99, 4, 1]]},
        {"kinds": 5},
        {"kinds": [[6, 4]]},
        {"kinds": [6, 4, 1]},
        {"kinds": {"641": 0}},
        {"kinds": [[6, "4", 1]]},
        {"instructions": -1},
    ], ids=["missing-field", "unknown-kind", "kinds-not-a-list",
            "pair-not-triple", "flat-list", "object", "string-count",
            "negative-count"])
    def test_json_of_the_wrong_shape_is_an_evicted_miss(self, tmp_path,
                                                        change):
        cache = ResultCache(tmp_path)
        cache.store("d" * 64, PredictionStats(instructions=100))
        path = cache._path("d" * 64)
        entry = {**json.loads(path.read_text()), **change}
        path.write_text(json.dumps(
            {k: v for k, v in entry.items() if v is not None}))
        assert cache.load("d" * 64) is None
        assert not path.exists(), "a wrong-shape entry must be evicted"

    def test_missing_key_is_a_miss(self, tmp_path):
        assert ResultCache(tmp_path).load("d" * 64) is None


class TestCacheBehaviourInRunCells:
    def test_second_run_never_simulates(self, tmp_path, monkeypatch):
        import repro.runner.pool as pool_mod

        cache = ResultCache(tmp_path)
        cells = [
            SweepCell("perl", EngineConfig(), MachineConfig()),
            SweepCell("perl",
                      EngineConfig(target_cache=TargetCacheConfig(kind="tagless"))),
        ]
        first = run_cells(cells, jobs=1, trace_length=LENGTH,
                          result_cache=cache)

        calls = []
        for name in ("simulate", "simulate_streamed", "simulate_vector",
                     "run_timing"):
            real = getattr(pool_mod, name)

            def counting(*args, __real=real, **kwargs):
                calls.append(1)
                return __real(*args, **kwargs)

            monkeypatch.setattr(pool_mod, name, counting)
        second = run_cells(cells, jobs=1, trace_length=LENGTH,
                           result_cache=cache)
        assert not calls, "warm cache must not re-simulate or re-time any cell"
        for one, two in zip(first, second):
            _assert_same_counters(one, two)
            assert getattr(one, "cycles", None) == getattr(two, "cycles", None)
        assert second[0].cycles > 0

    def test_keys_of_a_multi_benchmark_document_are_cell_keys(
            self, tmp_path, monkeypatch):
        from repro.sweepspec import parse_spec_document

        plan = parse_spec_document({
            "benchmarks": ["perl", "gcc", "compress"],
            "cells": [{"preset": "btb-only"},
                      {"engine": {"target_cache": {"kind": "tagless"}}}],
        })
        machine = MachineConfig()
        cells = [SweepCell(b, c) for b, c in plan.cells()] + [
            SweepCell(b, c, machine) for b, c in plan.cells()[:2]]
        cache = ResultCache(tmp_path)
        asked = []
        for name in ("load", "load_cycles"):
            real = getattr(cache, name)
            monkeypatch.setattr(
                cache, name,
                lambda key, __real=real, __name=name: (
                    asked.append((__name, key)), __real(key))[1])
        run_cells(cells, jobs=1, trace_length=5_000, result_cache=cache)
        # Each config is rendered once for its three benchmarks; every key
        # must still be exactly what cell_key and timing_key return.
        expected = [("load", cell_key(b, c, 5_000, SEED))
                    for b, c in plan.cells()]
        expected += [("load_cycles", timing_key(b, c, 5_000, SEED, machine))
                     for b, c in plan.cells()[:2]]
        assert sorted(set(asked)) == sorted(set(expected))
        assert len(set(asked)) == len(plan.cells()) + 2

    def test_timed_cells_store_no_mask(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        run_cells([SweepCell("perl", EngineConfig(), MachineConfig())],
                  jobs=1, trace_length=LENGTH, result_cache=cache)
        entries = [path for path in cache.directory.rglob("*.json")
                   if not path.name.endswith(".cycles.json")]
        assert len(entries) == 1
        assert len(list(cache.directory.rglob("*.cycles.json"))) == 1
        assert set(json.loads(entries[0].read_text())) == _ENTRY_FIELDS

    def test_interrupted_sweep_keeps_its_finished_cells(self, tmp_path,
                                                        monkeypatch):
        import repro.runner.pool as pool_mod
        from repro.workloads import get_trace

        cache = ResultCache(tmp_path)
        configs = [EngineConfig(),
                   EngineConfig(target_cache=TargetCacheConfig(kind="tagless"))]
        cells = [SweepCell(benchmark, config)
                 for benchmark in ("perl", "gcc") for config in configs]

        def perl_only(benchmark):
            if benchmark != "perl":
                raise RuntimeError("crashed before gcc")
            return get_trace(benchmark, n_instructions=LENGTH)

        with pytest.raises(RuntimeError):
            run_cells(cells, jobs=1, trace_length=LENGTH, result_cache=cache,
                      trace_provider=perl_only)
        for config in configs:
            assert cache.load(key(config, "perl")) is not None
            assert cache.load(key(config, "gcc")) is None

        simulated = []
        real_run_cell = pool_mod._run_cell

        def recording(memo, benchmark, *args):
            simulated.append(benchmark)
            return real_run_cell(memo, benchmark, *args)

        monkeypatch.setattr(pool_mod, "_run_cell", recording)
        run_cells(cells, jobs=1, trace_length=LENGTH, result_cache=cache)
        assert simulated == ["gcc", "gcc"]

    def test_stats_hit_with_cycles_miss_stores_only_cycles(
            self, tmp_path, monkeypatch):
        import repro.runner.pool as pool_mod

        cache = ResultCache(tmp_path)
        [untimed] = run_cells([SweepCell("perl", EngineConfig())], jobs=1,
                              trace_length=LENGTH, result_cache=cache)
        calls = []
        real_run_timing = pool_mod.run_timing

        def counting_run_timing(*args, **kwargs):
            calls.append("run_timing")
            return real_run_timing(*args, **kwargs)

        def no_store(*args, **kwargs):
            calls.append("store")

        monkeypatch.setattr(pool_mod, "run_timing", counting_run_timing)
        monkeypatch.setattr(cache, "store", no_store)
        [timed] = run_cells(
            [SweepCell("perl", EngineConfig(), MachineConfig())],
            jobs=1, trace_length=LENGTH, result_cache=cache,
        )
        assert calls == ["run_timing"]
        _assert_same_counters(timed, untimed)
        assert timed.cycles > 0

    def test_changed_trace_length_re_simulates(self, tmp_path, monkeypatch):
        import repro.runner.pool as pool_mod

        cache = ResultCache(tmp_path)
        cells = [SweepCell("perl", EngineConfig())]
        run_cells(cells, jobs=1, trace_length=LENGTH, result_cache=cache)

        # Spy every execution tier: whichever the runner picks, a cache
        # miss must reach exactly one of them.
        calls = []
        for name in ("simulate", "simulate_streamed", "simulate_vector"):
            real = getattr(pool_mod, name)

            def counting(*args, __real=real, **kwargs):
                calls.append(1)
                return __real(*args, **kwargs)

            monkeypatch.setattr(pool_mod, name, counting)
        run_cells(cells, jobs=1, trace_length=LENGTH // 2, result_cache=cache)
        assert calls, "different trace length must miss the cache"

    def test_env_switch_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert ResultCache.from_env() is None

    def test_env_default_enables_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert ResultCache.from_env() is not None

    @pytest.mark.parametrize("value, expected", [
        ("1", "default"), ("ON", "default"), ("true", "default"),
        ("yes", "default"), ("0", None), ("custom", "custom"),
    ])
    def test_env_values_follow_the_obs_rule(self, monkeypatch, tmp_path,
                                            value, expected):
        """Like ``REPRO_OBS``: an off value, an on value, or a directory —
        an on value never becomes a directory named after itself."""
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_RESULT_CACHE", value)
        cache = ResultCache.from_env()
        if expected is None:
            assert cache is None
        elif expected == "default":
            assert cache.directory == tmp_path / ".cache" / "repro-results"
        else:
            assert cache.directory == Path(value)


class TestCyclesCache:
    def test_timing_key_covers_the_machine(self):
        base = timing_key("perl", EngineConfig(), LENGTH, SEED, MachineConfig())
        assert base == timing_key("perl", EngineConfig(), LENGTH, SEED,
                                  MachineConfig())
        assert base != timing_key("perl", EngineConfig(), LENGTH, SEED,
                                  MachineConfig(fetch_width=8))
        assert base != timing_key("perl", EngineConfig(), LENGTH, SEED,
                                  MachineConfig(memory_latency=20))

    def test_timing_key_covers_the_cell(self):
        machine = MachineConfig()
        base = timing_key("perl", EngineConfig(), LENGTH, SEED, machine)
        assert base != timing_key("gcc", EngineConfig(), LENGTH, SEED, machine)
        assert base != timing_key("perl", EngineConfig(btb_sets=128), LENGTH,
                                  SEED, machine)
        assert base != timing_key("perl", EngineConfig(), LENGTH + 1, SEED,
                                  machine)

    def test_cycles_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_cycles("e" * 64, 12345)
        assert cache.load_cycles("e" * 64) == 12345
        assert cache.load_cycles("f" * 64) is None

    def test_warm_context_skips_run_timing(self, tmp_path, monkeypatch):
        import repro.runner.pool as pool_mod
        from repro.experiments.common import ExperimentContext

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        cold = ExperimentContext(trace_length=LENGTH)
        reference = cold.cycles("perl", EngineConfig())

        calls = []
        real_run_timing = pool_mod.run_timing

        def counting_run_timing(*args, **kwargs):
            calls.append(1)
            return real_run_timing(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "run_timing", counting_run_timing)
        warm = ExperimentContext(trace_length=LENGTH)
        assert warm.cycles("perl", EngineConfig()) == reference
        assert warm.baseline_cycles("perl") == reference
        assert not calls, "warm result cache must not re-run the timing model"


class TestTornEntries:
    """A machine crash after the atomic rename can leave a *torn*
    (truncated or zero-byte) entry on disk.  Such entries read as evictable
    misses, never as a crash.  Other damage, across every artifact kind,
    is covered in ``tests/test_store.py``."""

    def _store_real_entry(self, tmp_path):
        from repro.workloads import get_trace

        stats = simulate(get_trace("perl", n_instructions=LENGTH),
                         EngineConfig())
        cache = ResultCache(tmp_path)
        cache.store("e" * 64, stats)
        return cache, cache._path("e" * 64)

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.25, 0.5, 0.9])
    def test_truncated_entry_is_a_miss_and_evicts(self, tmp_path,
                                                  keep_fraction):
        cache, path = self._store_real_entry(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole[:int(len(whole) * keep_fraction)])
        assert cache.load("e" * 64) is None
        assert not path.exists(), "torn entry must be evicted"
        # And the next store/load round-trips normally again.
        from repro.workloads import get_trace

        stats = simulate(get_trace("perl", n_instructions=LENGTH),
                         EngineConfig())
        cache.store("e" * 64, stats)
        assert cache.load("e" * 64) is not None

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache, path = self._store_real_entry(tmp_path)
        leftovers = [p for p in path.parent.iterdir()
                     if p.suffix == ".tmp" or ".tmp" in p.name]
        assert leftovers == []


class TestClaims:
    """Cross-instance cell claims: atomic acquisition, stale takeover."""

    KEY = "f" * 64

    def test_claim_is_exclusive_until_released(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claims.claim(self.KEY)
        assert not cache.claims.claim(self.KEY)  # second claimant loses
        cache.claims.release(self.KEY)
        assert cache.claims.claim(self.KEY)  # and can win after release

    def test_release_is_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.claims.release(self.KEY)  # releasing an unclaimed key is a no-op
        assert cache.claims.claim(self.KEY)
        cache.claims.release(self.KEY)
        cache.claims.release(self.KEY)

    def test_stale_claim_is_taken_over(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claims.claim(self.KEY)
        # ttl 0: any existing claim counts as abandoned.
        assert cache.claims.claim(self.KEY, ttl_s=0.0)

    def test_fresh_claim_age_is_small(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claims.claim_age(self.KEY) is None
        cache.claims.claim(self.KEY)
        age = cache.claims.claim_age(self.KEY)
        assert age is not None and age < 60.0

    def test_two_caches_share_claims_via_directory(self, tmp_path):
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        assert a.claims.claim(self.KEY)
        assert not b.claims.claim(self.KEY)
        a.claims.release(self.KEY)
        assert b.claims.claim(self.KEY)

    @pytest.mark.parametrize("cut_in_at", ["stat", "unlink"])
    def test_one_of_two_breakers_of_a_stale_claim_wins(
            self, tmp_path, monkeypatch, cut_in_at):
        """Two claimers find the same stale claim: a rival runs its whole
        claim right after the first breaker's ``stat`` of the claim, or
        right before that breaker's ``unlink`` of it.  Exactly one wins."""
        cache = ResultCache(tmp_path)
        assert cache.claims.claim(self.KEY)
        path = cache.claims.path(self.KEY)
        time.sleep(0.3)  # stale under a 0.2 s TTL
        real = getattr(Path, cut_in_at)
        rival = []

        def interleaved(self_, *args, **kwargs):
            if self_ != path or rival:
                return real(self_, *args, **kwargs)
            rival.append(None)
            if cut_in_at == "unlink":
                rival[0] = cache.claims.claim(self.KEY, ttl_s=0.2)
                return real(self_, *args, **kwargs)
            result = real(self_, *args, **kwargs)
            rival[0] = cache.claims.claim(self.KEY, ttl_s=0.2)
            return result

        monkeypatch.setattr(Path, cut_in_at, interleaved)
        first = cache.claims.claim(self.KEY, ttl_s=0.2)
        assert len(rival) == 1, "the rival must have run"
        assert sorted([first, rival[0]]) == [False, True]
