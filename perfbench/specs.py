"""Generated inputs: the design-sweep grid and the served request mix.

Everything here is plain JSON in the ``repro sweep --spec`` / ``POST
/sweeps`` wire format, built with the standard library only, so the
program under test receives nothing but spec documents and a seed.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

SPEC_BENCHMARKS = ["compress", "gcc", "go", "ijpeg", "m88ksim", "perl",
                   "vortex", "xlisp"]
SERVER_BENCHMARKS = ["webserver_like", "db_like", "rpc_like"]
LOWERED_BENCHMARKS = ["perl@if_tree", "perl@clustered"]
DESIGN_BENCHMARKS = SPEC_BENCHMARKS + SERVER_BENCHMARKS + LOWERED_BENCHMARKS

#: Path-history scheme labels of the paper's Tables 5, 6 and 8.
PATH_SCHEMES = ["per-addr", "branch", "control", "ind_jmp", "call_ret"]

Spec = Dict[str, Any]


def pattern(bits: int = 9) -> Spec:
    return {"source": "pattern", "bits": bits}


def path(scheme: str, bits: int = 9, per_target: int = 1,
         address_bit: int = 2) -> Spec:
    spec: Spec = {"bits": bits, "bits_per_target": per_target,
                  "address_bit": address_bit}
    if scheme == "per-addr":
        spec["source"] = "path_per_address"
    else:
        spec.update(source="path_global", path_filter=scheme)
    return spec


def tagless(scheme: str = "gshare", bits: int = 9, address_bits: int = 0,
            history: Any = None) -> Spec:
    return {"target_cache": {"kind": "tagless", "scheme": scheme,
                             "history_bits": bits,
                             "address_bits": address_bits},
            "history": history or pattern(max(bits, 9))}


def tagged(assoc: int, indexing: str = "history_xor", bits: int = 9,
           history: Any = None) -> Spec:
    return {"target_cache": {"kind": "tagged", "entries": 256,
                             "assoc": assoc, "indexing": indexing,
                             "history_bits": bits},
            "history": history or pattern(max(bits, 9))}


PRESET_NAMES = ["btb-only", "tagless-gshare9", "tagged-4way", "cascaded-256",
                "ittage-lite", "btb2-micro", "oracle", "last-target"]


def _cells(specs: List[Tuple[str, Spec]]) -> List[Spec]:
    return [{"engine": spec, "label": label} for label, spec in specs]


def design_documents() -> List[Tuple[str, Spec]]:
    """One spec document per design family, each over every benchmark.

    The families are the paper's Tables 2 and 4-9, the named presets
    (every registered predictor kind), a stream-signature family (BTB
    geometry, RAS depth, returns through the target cache) and a
    long-history family that only the reference engine can run, so the
    grid spans all three kernel tiers and many stream signatures.
    """
    families: List[Tuple[str, List[Spec]]] = [
        ("table2", _cells([("default", {}),
                           ("two_bit", {"btb_strategy": "two_bit"})])),
        ("table4", _cells([
            (f"{s}({h},{a})", tagless(s, h, a))
            for s, h, a in [("gag", 9, 0), ("gas", 8, 1), ("gas", 7, 2),
                            ("gshare", 9, 0)]])),
        ("table5", _cells([
            (f"{s} bit{a}", tagless(history=path(s, address_bit=a)))
            for a in range(2, 8) for s in PATH_SCHEMES])),
        ("table6", _cells([
            (f"{s} {b}b", tagless(history=path(s, per_target=b)))
            for b in (1, 2, 3) for s in PATH_SCHEMES])),
        ("table7", _cells([
            (f"{i} {w}-way", tagged(w, i))
            for w in (1, 2, 4, 8, 16, 32)
            for i in ("address", "history_concat", "history_xor")])),
        ("table8", _cells([
            (f"{s} {w}-way", tagged(w, history=path(s)))
            for w in (1, 2, 4, 8, 16) for s in PATH_SCHEMES])),
        ("table9", _cells([
            (f"{b}bits {w}-way", tagged(w, bits=b, history=pattern(b)))
            for w in (1, 2, 4, 8, 16, 32) for b in (9, 16)])),
        ("presets", [{"preset": name} for name in PRESET_NAMES]),
        ("signatures", _cells([
            ("btb64x4", {"btb_sets": 64, **tagless()}),
            ("btb1024x2", {"btb_sets": 1024, "btb_ways": 2, **tagless()}),
            ("ras8", {"ras_depth": 8, **tagless()}),
            ("tc-returns", {"target_cache_handles_returns": True,
                            **tagless()}),
            ("dir-gag14", {"direction": {"scheme": "gag",
                                         "history_bits": 14},
                           **tagged(4)})])),
        ("long_history", _cells([
            (f"ittage path{b}", {
                "target_cache": {"kind": "ittage", "entries": 128},
                "history": {"source": "path_global", "bits": b,
                            "path_filter": "control"}})
            for b in (80, 128)])),
    ]
    return [(name, {"benchmarks": DESIGN_BENCHMARKS, "cells": cells})
            for name, cells in families]


SERVED_BENCHMARKS = ["gcc", "perl", "xlisp", "go", "m88ksim", "vortex",
                     "webserver_like", "db_like"]
#: Fixed seed of the served population; the run seed only picks the
#: requests from it (the Zipf mix), so every seed serves the same documents.
_POPULATION_SEED = 1997
SERVED_DOCUMENTS = 96    # documents in the served population
ZIPF_S = 1.1             # skew of the served request mix


def served_population() -> List[Spec]:
    """Multi-row spec documents over a few hundred distinct cells.

    Each document asks for two to four configurations on two or three
    benchmarks.  Configurations are drawn from a pool of tagless, tagged
    and preset cells, so documents overlap: popular documents repeat
    (result-cache hits) and distinct documents share cells (in-flight
    dedup when they run together).
    """
    rng = random.Random(_POPULATION_SEED)
    pool: List[Spec] = [{"preset": name} for name in PRESET_NAMES]
    pool += [{"engine": tagless(s, h, a)}
             for s, h, a in [("gag", 9, 0), ("gag", 10, 0), ("gas", 8, 1),
                             ("gas", 7, 2), ("gshare", 8, 0), ("gshare", 9, 0),
                             ("gshare", 10, 0), ("gshare", 11, 0)]]
    pool += [{"engine": tagless(history=path(s, address_bit=a))}
             for s in PATH_SCHEMES for a in (2, 3, 4)]
    pool += [{"engine": tagged(w, i)} for w in (1, 2, 8, 16)
             for i in ("address", "history_xor")]
    pool += [{"engine": tagged(4, history=path(s))} for s in PATH_SCHEMES]
    documents = []
    for _ in range(SERVED_DOCUMENTS):
        cells = rng.sample(pool, rng.randint(2, 4))
        benchmarks = sorted(rng.sample(SERVED_BENCHMARKS, rng.randint(2, 3)))
        documents.append({"benchmarks": benchmarks, "cells": cells})
    return documents


def zipf_mix(seed: int, population: int, requests: int) -> List[int]:
    """``requests`` document indices, Zipf(``ZIPF_S``)-popular, in seeded order.

    Document ``r`` has popularity rank ``r``; each gets its Zipf share of
    the requests (largest remainders round), so every seed sends the same
    multiset of documents and only the order changes with the seed.  The
    order decides which repeats are in-flight duplicates and which are
    result-cache hits.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(population)]
    shares = [requests * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(population),
                          key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:requests - sum(counts)]:
        counts[i] += 1
    mix = [i for i, count in enumerate(counts) for _ in range(count)]
    random.Random(seed).shuffle(mix)
    return mix
