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
"""

from .counters import Counter, CounterRegistry, subtree
from .export import STATS_SCHEMA, stats_payload, validate_stats, write_stats
from .probes import Observability
from .trace import (
    EV_COMPLETE,
    EV_FETCH,
    EV_ISSUE,
    EV_RETIRE,
    EV_RUNAHEAD_ENTER,
    EV_RUNAHEAD_EXIT,
    EV_VECTOR_DISPATCH,
    EVENT_KINDS,
    TRACE_FIELDS,
    EventTrace,
    TraceEvent,
)

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
