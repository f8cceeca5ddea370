"""The artifact store: every kind of on-disk entry survives damage.

A machine crash after the store's fsync-free atomic rename can leave a
torn (zero-byte or truncated) entry; a stale entry carries another format
version; anything else may leave garbage.  For every artifact kind each
such entry must read as a miss, be evicted and counted, and be replaced
whole by the next write — never raise.
"""

import json

import numpy as np
import pytest

from repro.guest.builder import ProgramBuilder
from repro.guest.isa import BranchKind
from repro.guest.vm import run_program
from repro.obs import Sink, install
from repro.predictors import PredictionStats
from repro.runner import ResultCache
from repro.trace.io import cached_trace
from repro.trace.trace import Trace

KEY = "ab" + "c" * 62


def _trace():
    b = ProgramBuilder()
    b.li(1, 3)
    b.label("loop")
    b.addi(1, 1, -1)
    b.bne(1, 0, "loop")
    b.halt()
    return Trace.from_raw(run_program(b.build()))


def _stats():
    stats = PredictionStats(instructions=1000, btb_lookups=90, btb_hits=70)
    stats.counters(BranchKind.IND_JUMP).executed = 40
    stats.counters(BranchKind.IND_JUMP).mispredicted = 9
    stats.counters(BranchKind.COND_DIRECT).executed = 50
    return stats


class _Regenerate(Exception):
    """Raised by a trace generator: ``cached_trace`` missed."""


def _regenerate():
    raise _Regenerate


def _read_trace(directory):
    try:
        return cached_trace(KEY, _regenerate, cache_dir=directory)
    except _Regenerate:
        return None


#: artifact kind -> (store name in counters, value, write, read)
KINDS = {
    "trace": ("trace_cache", _trace(),
              lambda d, v: cached_trace(KEY, lambda: v, cache_dir=d),
              _read_trace),
    "stats": ("result_cache", _stats(),
              lambda d, v: ResultCache(d).store(KEY, v),
              lambda d: ResultCache(d).load(KEY)),
    "cycles": ("result_cache.cycles", 12345,
               lambda d, v: ResultCache(d).store_cycles(KEY, v),
               lambda d: ResultCache(d).load_cycles(KEY)),
}


def _zero_bytes(path):
    path.write_bytes(b"")


def _half_file(path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def _wrong_version(path):
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        return
    with np.load(path) as archive:
        data = dict(archive)
    data["version"] = np.int64(999)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **data)


def _garbage(path):
    path.write_bytes(b"not an entry of any kind")


DAMAGES = {"zero-bytes": _zero_bytes, "half-file": _half_file,
           "wrong-version": _wrong_version, "garbage": _garbage}


class _Counting(Sink):
    def __init__(self):
        self.counters = {}

    def incr(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value


@pytest.fixture
def counters():
    sink = _Counting()
    previous = install(sink)
    yield sink.counters
    install(previous)


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("kind", KINDS)
def test_damaged_entry_is_an_evicted_miss(tmp_path, counters, kind, damage):
    store, value, write, read = KINDS[kind]
    write(tmp_path, value)
    [entry] = [path for path in tmp_path.rglob("*") if path.is_file()]
    DAMAGES[damage](entry)
    counters.clear()

    assert read(tmp_path) is None, "a damaged entry must read as a miss"
    assert not entry.exists(), "and be evicted"
    assert counters == {f"{store}.evict": 1, f"{store}.load.miss": 1}

    write(tmp_path, value)
    assert read(tmp_path) == value, "the next write must round-trip"
    assert counters[f"{store}.load.hit"] == 1
