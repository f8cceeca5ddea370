"""Run-ledger observability: spans, metrics, and JSONL event streams.

A zero-dependency instrumentation subsystem for the sweep stack.  Code
under measurement asks the process-global sink for telemetry primitives::

    from repro.obs import get_sink

    sink = get_sink()
    with sink.span("cell", benchmark="perl", kernel="stream"):
        stats = simulate_streamed(streams, config)
    sink.incr("result_cache.hit")

By default the sink is a no-op (:data:`NULL_SINK`) and the calls above
cost a handful of attribute lookups — the overhead guard in
``benchmarks/test_obs_overhead.py`` holds the enabled path under 3% on a
warm sweep and the disabled path at "no measurable cost".  Enabling obs
(``REPRO_OBS=1``, ``REPRO_OBS=/path/to.jsonl``, or ``repro ... --obs-ledger
FILE``) installs a :class:`LedgerSink` that records every event to a
process-safe JSONL run ledger, summarised by ``repro report``.

See ``docs/OBSERVABILITY.md`` for the event schema, the sink lifecycle
(per-PID shards merged by the parent), and report examples.
"""

from repro.obs.bootstrap import (
    DEFAULT_LEDGER,
    attach_worker,
    bootstrap,
    get_sink,
    install,
    parse_switch,
    shutdown,
)
from repro.obs.core import NULL_SINK, NULL_SPAN, NullSink, NullSpan, Sink, Span
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, LedgerSink
from repro.obs.report import (
    compare_bench,
    format_compare,
    format_summary,
    read_ledger,
    summarize,
)

__all__ = [
    "DEFAULT_LEDGER",
    "LEDGER_SCHEMA_VERSION",
    "LedgerSink",
    "NULL_SINK",
    "NULL_SPAN",
    "NullSink",
    "NullSpan",
    "Sink",
    "Span",
    "attach_worker",
    "bootstrap",
    "compare_bench",
    "format_compare",
    "format_summary",
    "get_sink",
    "install",
    "parse_switch",
    "read_ledger",
    "shutdown",
    "summarize",
]
