"""Vector tier: bit-for-bit equivalence with the stream kernel and engine.

:mod:`repro.predictors.vector` is the third execution tier; like the
stream kernel underneath it, it exists purely as a performance layer.  Its
contract is byte-identical :class:`PredictionStats` (counters, BTB
statistics, per-instruction mispredict masks) to
:func:`repro.predictors.engine.simulate` for every config whose
target-cache kind declares ``vectorizable`` traits.  These tests pin that
contract across all eight workloads and the paper's Table 4/7/9 design
space — non-vectorizable Table 7/9 cells exercise the trait-based
fallback through :func:`repro.runner.run_cells` instead — plus the
last-write recurrence's three sort paths and a hypothesis sweep of random
vectorizable :class:`EngineConfig`s.
"""

import numpy as np
import pytest

from repro.guest.isa import BranchKind
from repro.pipeline import MachineConfig
from repro.predictors import (
    EngineConfig,
    HistoryConfig,
    HistorySource,
    TargetCacheConfig,
    build_streams,
    decode_branches,
    simulate,
    simulate_many_vector,
    simulate_streamed,
    simulate_vector,
    stream_signature,
    vector_supported,
)
from repro.predictors.btb import UpdateStrategy
from repro.predictors.direction import DirectionConfig
from repro.predictors.history import PathFilter
from repro.predictors.registry import registration
from repro.predictors.vector import _last_write_predictions
from repro.runner import BACKENDS, SweepCell, run_cells
from repro.workloads import get_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def _pattern(bits=9):
    return HistoryConfig(source=HistorySource.PATTERN, bits=bits)


def _path(path_filter, bits=9, bits_per_target=1, address_bit=2):
    return HistoryConfig(
        source=HistorySource.PATH_GLOBAL, bits=bits,
        bits_per_target=bits_per_target, address_bit=address_bit,
        path_filter=path_filter,
    )


#: Every vectorizable slice of the paper's design space: the BTB-only
#: baselines, Table 4's tagless index schemes (gag/gas/gshare over pattern
#: history), Table 5/6-style path histories, the Table 9 bounding
#: predictors (oracle, last_target), and the routing edge cases.
VECTOR_CONFIGS = [
    EngineConfig(),
    EngineConfig(btb_strategy=UpdateStrategy.TWO_BIT),
    # Table 4 cells
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless", scheme="gag"),
                 history=_pattern()),
    EngineConfig(
        target_cache=TargetCacheConfig(kind="tagless", scheme="gas",
                                       history_bits=8, address_bits=1),
        history=_pattern(),
    ),
    EngineConfig(
        target_cache=TargetCacheConfig(kind="tagless", scheme="gas",
                                       history_bits=6, address_bits=3),
        history=_pattern(),
    ),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless"),
                 history=_pattern()),
    # Table 5/6-style path histories feeding a tagless cache
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless"),
                 history=_path(PathFilter.IND_JMP, bits_per_target=3)),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless"),
                 history=_path(PathFilter.CALL_RET, address_bit=4)),
    EngineConfig(
        target_cache=TargetCacheConfig(kind="tagless"),
        history=HistoryConfig(source=HistorySource.PATH_PER_ADDRESS,
                              bits=9, bits_per_target=3),
    ),
    # Table 9 bounding predictors
    EngineConfig(target_cache=TargetCacheConfig(kind="oracle")),
    EngineConfig(target_cache=TargetCacheConfig(kind="last_target")),
    # routing edge cases
    EngineConfig(target_cache=TargetCacheConfig(kind="tagless"),
                 target_cache_handles_returns=True),
    EngineConfig(target_cache_handles_returns=True),
    EngineConfig(direction=DirectionConfig(scheme="pas", history_bits=6,
                                           address_bits=4),
                 target_cache=TargetCacheConfig(kind="tagless")),
]

#: Table 7/9 cells with stateful replacement: supported by the stream
#: kernel but *not* vectorizable — the runner must degrade per cell.
FALLBACK_CONFIGS = [
    EngineConfig(target_cache=TargetCacheConfig(kind="tagged", entries=64,
                                                assoc=1)),
    EngineConfig(target_cache=TargetCacheConfig(kind="tagged", entries=64,
                                                assoc=4)),
    EngineConfig(target_cache=TargetCacheConfig(kind="cascaded", entries=64,
                                                assoc=2)),
    EngineConfig(target_cache=TargetCacheConfig(kind="ittage", entries=128)),
]


def assert_identical(a, b):
    assert a.instructions == b.instructions
    assert a.btb_lookups == b.btb_lookups
    assert a.btb_hits == b.btb_hits
    for kind in BranchKind:
        assert a.counters(kind).executed == b.counters(kind).executed
        assert a.counters(kind).mispredicted == b.counters(kind).mispredicted
    if a.mispredict_mask is None:
        assert b.mispredict_mask is None
    else:
        assert np.array_equal(a.mispredict_mask, b.mispredict_mask)
    assert getattr(a, "cycles", None) == getattr(b, "cycles", None)


class TestEquivalenceAcrossWorkloads:
    def test_bit_identical_on_every_workload(self, all_small_traces):
        for name, trace in all_small_traces.items():
            decoded = decode_branches(trace)
            streams_memo = {}
            for config in VECTOR_CONFIGS:
                assert vector_supported(config), config
                signature = stream_signature(config)
                streams = streams_memo.get(signature)
                if streams is None:
                    streams = build_streams(decoded, signature)
                    streams_memo[signature] = streams
                reference = simulate(trace, config, collect_mask=True,
                                     decoded=decoded)
                streamed = simulate_streamed(streams, config,
                                             collect_mask=True)
                vectored = simulate_vector(streams, config,
                                           collect_mask=True)
                assert_identical(vectored, reference)
                assert_identical(vectored, streamed)
            # the amortisation claim: one stream set served many cells
            assert len(streams_memo) < len(VECTOR_CONFIGS)

    def test_simulate_many_vector_matches_batch(self, perl_trace):
        decoded = decode_branches(perl_trace)
        configs = VECTOR_CONFIGS[:8]
        vectored = simulate_many_vector(decoded, configs)
        for config, got in zip(configs, vectored):
            assert_identical(
                got, simulate(perl_trace, config, decoded=decoded)
            )

    def test_masks_optional_like_reference(self, perl_trace):
        decoded = decode_branches(perl_trace)
        config = VECTOR_CONFIGS[5]
        streams = build_streams(decoded, stream_signature(config))
        assert simulate_vector(streams, config).mispredict_mask is None
        mask = simulate_vector(streams, config,
                               collect_mask=True).mispredict_mask
        assert mask is not None and mask.dtype == np.bool_


class TestSupport:
    def test_vectorizable_kinds_are_supported(self):
        for config in VECTOR_CONFIGS:
            assert vector_supported(config)

    def test_stateful_kinds_are_not_supported(self):
        for config in FALLBACK_CONFIGS:
            assert not vector_supported(config)
            kind = config.target_cache.kind
            assert not registration(kind).traits.vectorizable

    def test_stream_preconditions_carry_over(self):
        # The vector tier sits above the stream kernel, so anything the
        # stream kernel rejects (history wider than 64 bits feeding a
        # target cache) is unsupported here too.
        wide = EngineConfig(target_cache=TargetCacheConfig(),
                            history=_pattern(bits=65))
        assert not vector_supported(wide)

    def test_backends_trait_ranks_vector_first(self):
        assert registration("tagless").traits.backends() == (
            "vector", "streams", "engine"
        )
        assert registration("tagged").traits.backends() == (
            "streams", "engine"
        )

    def test_mismatched_signature_raises(self, perl_trace):
        decoded = decode_branches(perl_trace)
        streams = build_streams(decoded, stream_signature(EngineConfig()))
        with pytest.raises(ValueError, match="does not project"):
            simulate_vector(streams, EngineConfig(btb_sets=64))

    def test_non_vectorizable_kind_raises(self, perl_trace):
        decoded = decode_branches(perl_trace)
        config = FALLBACK_CONFIGS[0]
        streams = build_streams(decoded, stream_signature(config))
        with pytest.raises(ValueError, match="not.*vectorizable"):
            simulate_vector(streams, config)


class TestLastWriteRecurrence:
    """The kernel against a transparent per-row replay, on all sort paths."""

    @staticmethod
    def _replay(indices, updates, targets):
        table = {}
        valid = np.zeros(len(indices), dtype=bool)
        hits = np.zeros(len(indices), dtype=np.int64)
        for j, index in enumerate(indices):
            if index in table:
                valid[j] = True
                hits[j] = table[index]
            if updates[j]:
                table[index] = targets[j]
        return valid, hits

    def _assert_matches(self, indices, updates, targets):
        valid, hits = _last_write_predictions(indices, updates, targets)
        expected_valid, expected_hits = self._replay(indices, updates, targets)
        assert np.array_equal(valid, expected_valid)
        # hit values only matter where a structural hit exists
        assert np.array_equal(hits[valid], expected_hits[expected_valid])

    def _random_case(self, rng, n, index_pool):
        indices = rng.choice(index_pool, size=n)
        updates = rng.random(n) < 0.8
        targets = rng.integers(1, 1 << 40, size=n, dtype=np.int64)
        return indices, updates, targets

    def test_radix_path_small_indices(self):
        rng = np.random.default_rng(7)
        pool = np.arange(512, dtype=np.int64)  # max < 2**15
        self._assert_matches(*self._random_case(rng, 4000, pool))

    def test_composite_key_path_mid_indices(self):
        rng = np.random.default_rng(8)
        pool = rng.integers(1 << 15, 1 << 30, size=64, dtype=np.int64)
        indices, updates, targets = self._random_case(rng, 4000, pool)
        assert int(indices.max()) >= (1 << 15)  # past the radix tier
        assert int(indices.max()) < (1 << 62) // len(indices)
        self._assert_matches(indices, updates, targets)

    def test_stable_sort_path_huge_indices(self):
        rng = np.random.default_rng(9)
        pool = rng.integers(1 << 55, 1 << 61, size=16, dtype=np.int64)
        indices, updates, targets = self._random_case(rng, 1000, pool)
        assert int(indices.max()) >= (1 << 62) // len(indices)
        self._assert_matches(indices, updates, targets)

    def test_no_row_sees_its_own_update(self):
        # One index, every row updates: row j must see row j-1's target.
        indices = np.zeros(5, dtype=np.int64)
        updates = np.ones(5, dtype=bool)
        targets = np.arange(10, 15, dtype=np.int64)
        valid, hits = _last_write_predictions(indices, updates, targets)
        assert valid.tolist() == [False, True, True, True, True]
        assert hits[1:].tolist() == [10, 11, 12, 13]

    def test_non_updating_rows_are_skipped(self):
        indices = np.zeros(4, dtype=np.int64)
        updates = np.array([True, False, False, True])
        targets = np.array([10, 20, 30, 40], dtype=np.int64)
        valid, hits = _last_write_predictions(indices, updates, targets)
        assert valid.tolist() == [False, True, True, True]
        # rows 1-3 all read row 0's write; row 3's own write is unseen
        assert hits[1:].tolist() == [10, 10, 10]

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        valid, hits = _last_write_predictions(
            empty, np.zeros(0, dtype=bool), empty
        )
        assert len(valid) == 0 and len(hits) == 0


class TestRunnerFallback:
    """run_cells degrades per cell: mixed sweeps stay bit-identical."""

    TRACE_LENGTH = 20_000

    def _cells(self):
        return [
            SweepCell("perl", config, MachineConfig())
            for config in (VECTOR_CONFIGS[2], FALLBACK_CONFIGS[0],
                           VECTOR_CONFIGS[9], FALLBACK_CONFIGS[2],
                           EngineConfig())
        ]

    def test_every_backend_is_bit_identical(self):
        results = {
            backend: run_cells(self._cells(), jobs=1,
                               trace_length=self.TRACE_LENGTH,
                               backend=backend)
            for backend in BACKENDS
        }
        for backend in ("engine", "streams", "vector"):
            for got, want in zip(results[backend], results["auto"]):
                assert_identical(got, want)

    def test_pool_path_matches_serial(self):
        serial = run_cells(self._cells(), jobs=1,
                           trace_length=self.TRACE_LENGTH, backend="vector")
        pooled = run_cells(self._cells(), jobs=2,
                           trace_length=self.TRACE_LENGTH, backend="vector")
        for got, want in zip(pooled, serial):
            assert_identical(got, want)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_cells(self._cells(), jobs=1,
                      trace_length=self.TRACE_LENGTH, backend="simd")

    def test_experiment_context_validates_backend(self):
        from repro.experiments.common import ExperimentContext

        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentContext(backend="simd")


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestRandomConfigs:
    @pytest.fixture(scope="class")
    def small_trace(self):
        return get_trace("go", n_instructions=15_000, use_cache=False)

    @pytest.fixture(scope="class")
    def prepared(self, small_trace):
        return small_trace, decode_branches(small_trace), {}

    if HAVE_HYPOTHESIS:
        engine_configs = st.builds(
            EngineConfig,
            btb_sets=st.sampled_from([64, 256]),
            btb_ways=st.sampled_from([1, 4]),
            btb_strategy=st.sampled_from(list(UpdateStrategy)),
            direction=st.builds(
                DirectionConfig,
                scheme=st.sampled_from(["gshare", "gag", "gas", "pas"]),
                history_bits=st.integers(min_value=2, max_value=14),
                address_bits=st.integers(min_value=0, max_value=4),
            ),
            ras_depth=st.integers(min_value=1, max_value=32),
            target_cache=st.one_of(
                st.none(),
                st.builds(
                    TargetCacheConfig,
                    kind=st.sampled_from(
                        ["tagless", "oracle", "last_target"]
                    ),
                    scheme=st.sampled_from(["gag", "gas", "gshare"]),
                    history_bits=st.integers(min_value=2, max_value=10),
                    address_bits=st.integers(min_value=0, max_value=3),
                ),
            ),
            history=st.builds(
                HistoryConfig,
                source=st.sampled_from(list(HistorySource)),
                bits=st.integers(min_value=4, max_value=24),
                bits_per_target=st.integers(min_value=1, max_value=4),
                address_bit=st.integers(min_value=0, max_value=5),
                path_filter=st.sampled_from(list(PathFilter)),
            ),
            target_cache_handles_returns=st.booleans(),
        )

        @settings(max_examples=25, deadline=None)
        @given(config=engine_configs)
        def test_random_config_bit_identical(self, prepared, config):
            trace, decoded, streams_memo = prepared
            assert vector_supported(config)
            signature = stream_signature(config)
            streams = streams_memo.get(signature)
            if streams is None:
                streams = build_streams(decoded, signature)
                streams_memo[signature] = streams
            reference = simulate(trace, config, collect_mask=True,
                                 decoded=decoded)
            vectored = simulate_vector(streams, config, collect_mask=True)
            assert_identical(vectored, reference)
