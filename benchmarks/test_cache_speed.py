"""Speed guard for the result cache's read path.

A warm sweep is one :meth:`ResultCache.load` per cell, so the entry codec
is the warm path's cost.  This guard times the loads of 200 stored
entries against a bare ``Path.read_bytes()`` of the same files: the ratio
cancels the machine's speed and the filesystem's, and only the codec's
own work remains.  A small json entry decodes at a few times the bare
read; a heavy codec (an npz archive per entry measured ~39x) fails the
bar.  Timing is min-of-rounds like the other speed guards, so scheduler
noise cannot fail the build.

Runs with plain pytest:
``PYTHONPATH=src python -m pytest -q benchmarks/test_cache_speed.py``.
"""

import time

from repro.guest.isa import BranchKind
from repro.predictors import PredictionStats
from repro.runner import ResultCache

N_ENTRIES = 200
ROUNDS = 5
#: Largest allowed load time over bare-read time.
MAX_RATIO = 8.0


def _stats(i):
    stats = PredictionStats(instructions=100_000 + i, btb_lookups=9_000,
                            btb_hits=8_000 + i)
    for kind in BranchKind:
        counter = stats.counters(kind)
        counter.executed = 1_000 + i
        counter.mispredicted = i
    return stats


def _min_time(func):
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_load_costs_little_more_than_reading_the_bytes(tmp_path):
    cache = ResultCache(tmp_path)
    keys = [f"{i:064x}" for i in range(N_ENTRIES)]
    for i, key in enumerate(keys):
        cache.store(key, _stats(i))
    paths = [cache._path(key) for key in keys]
    assert all(cache.load(key) == _stats(i) for i, key in enumerate(keys))

    load = _min_time(lambda: [cache.load(key) for key in keys])
    read = _min_time(lambda: [path.read_bytes() for path in paths])
    ratio = load / read
    print(f"\n{N_ENTRIES} entries: load {load * 1e6 / N_ENTRIES:.1f} us, "
          f"read_bytes {read * 1e6 / N_ENTRIES:.1f} us per entry "
          f"({ratio:.1f}x)")
    assert ratio <= MAX_RATIO, (
        f"ResultCache.load is {ratio:.1f}x a bare read (bar {MAX_RATIO}x)")
