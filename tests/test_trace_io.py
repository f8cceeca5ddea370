"""Unit tests for trace serialisation and the disk cache."""

import numpy as np
import pytest

from repro.guest.builder import ProgramBuilder
from repro.guest.vm import run_program
from repro.trace.io import cached_trace, default_cache_dir, load_trace, save_trace
from repro.trace.trace import Trace


@pytest.fixture
def trace():
    b = ProgramBuilder()
    b.li(1, 3)
    b.label("loop")
    b.addi(1, 1, -1)
    b.store(1, 1, 0x10000)
    b.bne(1, 0, "loop")
    b.halt()
    return Trace.from_raw(run_program(b.build()))


def test_roundtrip(tmp_path, trace):
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace


def test_roundtrip_preserves_dtypes(tmp_path, trace):
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.pc.dtype == np.uint64
    assert loaded.src1.dtype == np.int8


def test_save_creates_parent_directories(tmp_path, trace):
    path = tmp_path / "deep" / "nested" / "t.npz"
    save_trace(trace, path)
    assert path.exists()


def test_version_mismatch_rejected(tmp_path, trace):
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    # rewrite with a bogus version
    data = dict(np.load(path))
    data["version"] = np.int64(999)
    np.savez_compressed(path, **data)
    with pytest.raises(ValueError, match="version"):
        load_trace(path)


def test_cached_trace_generates_once(tmp_path, trace):
    calls = []

    def generate():
        calls.append(1)
        return trace

    first = cached_trace("key", generate, cache_dir=tmp_path)
    second = cached_trace("key", generate, cache_dir=tmp_path)
    assert len(calls) == 1
    assert first == second == trace


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"


def test_workload_cache_key_tracks_code(tmp_path, monkeypatch):
    """Editing workload code must invalidate cached traces (fingerprint)."""
    from repro.workloads.registry import _code_fingerprint

    fingerprint = _code_fingerprint("repro.workloads.perl_like")
    assert len(fingerprint) == 10
    assert fingerprint == _code_fingerprint("repro.workloads.perl_like")
    assert fingerprint != _code_fingerprint("repro.workloads.gcc_like")
