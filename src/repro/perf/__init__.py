"""Simulation-performance layer: the stream's columns and the bench harness.

``repro.perf.trace`` holds the architectural stream as chunked columns
(:class:`ArchTrace`), which the functional stage fills and the timing
kernel reads by index, and the in-process memo that replays a stream
into every later run of the same (program, input, seed, limit) — the
stream is technique-independent because the simulator is
execution-driven at fetch (see DESIGN.md), so the runs of a sweep,
comparison or figure in one process share one functional execution.

``repro.perf.bench`` holds the measured kernels behind the
``repro bench`` CLI subcommand and ``benchmarks/test_perf_kernel.py``.
"""

from .trace import (
    ArchTrace,
    arch_trace_key,
    clear_trace_memo,
    load_trace,
    store_trace,
)

__all__ = [
    "ArchTrace",
    "arch_trace_key",
    "clear_trace_memo",
    "load_trace",
    "store_trace",
]
