"""Simulation-performance layer: trace capture/replay and the bench harness.

``repro.perf.trace`` captures the architectural :class:`DynInstr` stream
once per (program, input, seed) and replays it into any timing core or
runahead technique — the stream is technique-independent because the
simulator is execution-driven at fetch (see DESIGN.md), so the runs of
a sweep, comparison or figure in one process share one functional
execution.

``repro.perf.bench`` holds the measured kernels behind the
``repro bench`` CLI subcommand and ``benchmarks/test_perf_kernel.py``.
"""

from .trace import (
    ArchTrace,
    CaptureSource,
    ReplaySource,
    arch_trace_key,
    capture_arch_trace,
    clear_trace_memo,
    load_trace,
    store_trace,
)

__all__ = [
    "ArchTrace",
    "CaptureSource",
    "ReplaySource",
    "arch_trace_key",
    "capture_arch_trace",
    "clear_trace_memo",
    "load_trace",
    "store_trace",
]
