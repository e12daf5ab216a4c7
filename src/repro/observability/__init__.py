"""repro.observability — structured counters, event tracing, profiling.

The simulator's observability layer (see ``docs/observability.md``):

* :class:`CounterRegistry` / :class:`Counter` — named hierarchical
  counters every pipeline component publishes into
  (``core.stall.full_rob_cycles``, ``mem.l2.misses``,
  ``runahead.dvr.spawns``, ...). Each
  :class:`~repro.result.SimulationResult` carries a full snapshot in
  ``result.counters``.
* :class:`EventTrace` — a ring-buffered instruction-lifecycle and
  runahead event stream with JSONL/CSV exporters and a stable
  whole-stream digest (the golden-trace regression fingerprint).
* :class:`Observability` — the per-run facade binding both, plus
  ``on_cycle`` / ``on_interval`` profiling hooks.
* :func:`write_stats` / :func:`validate_stats` — the versioned
  ``repro run --stats-out`` JSON document and its schema check.

Tracing and hooks are strictly opt-in; a run without an
``Observability`` attached pays nothing per instruction.

The names resolve from their modules on first access (see
``repro._lazy_exports``), so a process that needs only the counters,
such as the result cache or a campaign's coordinator, loads neither the
probes nor the event trace.
"""

from .. import _lazy_exports

_EXPORTS = {
    ".counters": ("Counter", "CounterRegistry", "subtree"),
    ".export": ("STATS_SCHEMA", "stats_payload", "validate_stats", "write_stats"),
    ".probes": ("Observability",),
    ".trace": (
        "EV_COMPLETE", "EV_FETCH", "EV_ISSUE", "EV_RETIRE", "EV_RUNAHEAD_ENTER",
        "EV_RUNAHEAD_EXIT", "EV_VECTOR_DISPATCH", "EVENT_KINDS", "TRACE_FIELDS", "EventTrace",
        "TraceEvent",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())

__all__ = [
    "Counter",
    "CounterRegistry",
    "EventTrace",
    "EVENT_KINDS",
    "EV_COMPLETE",
    "EV_FETCH",
    "EV_ISSUE",
    "EV_RETIRE",
    "EV_RUNAHEAD_ENTER",
    "EV_RUNAHEAD_EXIT",
    "EV_VECTOR_DISPATCH",
    "Observability",
    "STATS_SCHEMA",
    "TRACE_FIELDS",
    "TraceEvent",
    "stats_payload",
    "subtree",
    "validate_stats",
    "write_stats",
]
