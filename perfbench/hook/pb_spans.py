"""Span recorder and profiler for the benchmark's traced and profiled passes.

A traced process replaces each layer's public entry point, at the name
its caller looks up, with a wrapper that records one span per call:
``[name, start, end, parent, op, tag]``.  ``parent`` is the index of the
enclosing span in the same thread (-1 for a root; ``end`` stays 0 for a
span still open when the process ends), ``op`` is shared by
every span of one spec or request, and ``tag`` is a small label some
layers add (cache hit or miss, the workload a build made, the technique
and instruction count of a timing run).  Spans stay in memory and are
written to ``<dir>/spans-<pid>.json`` when the process ends.

A profiled process instead runs ``cProfile`` and dumps
``<dir>/prof-<pid>.pstats`` when it ends.

Processes the benchmark starts itself call :func:`install`; processes
the program starts (campaign workers, the serve process and its pool)
get it from ``sitecustomize`` on their ``PYTHONPATH``.  Times come from
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so is
comparable across the processes of one pass.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

ENV_DIR = "PERFBENCH_SPAN_DIR"
ENV_MODE = "PERFBENCH_MODE"

clock = time.perf_counter

#: The op a serve request's spans belong to (set per request task).
_REQUEST_OP: contextvars.ContextVar = contextvars.ContextVar("pb_op", default=None)

_ACTIVE = None


class Recorder:
    """Spans of one process, written out once when it exits."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._start_process()

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self.started = clock()
        self.spans = []
        self.local = threading.local()
        self.ops = itertools.count()
        self.written = False

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def new_op(self) -> str:
        return f"{self.pid}:{next(self.ops)}"

    def wrap(self, name, fn, tag=None):
        """``fn`` recording one ``name`` span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            spans = self.spans
            parent = stack[-1] if stack else -1
            if parent >= 0:
                op = spans[parent][4]
            else:
                op = _REQUEST_OP.get() or self.new_op()
            record = [name, 0.0, 0.0, parent, op, None]
            stack.append(len(spans))
            spans.append(record)
            result = None
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = clock()
                stack.pop()
                if tag is not None:
                    record[5] = tag(args, kwargs, result)

        return traced

    def wrap_request(self, fn):
        """Async ``fn`` whose spans all share one fresh op id."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            token = _REQUEST_OP.set(self.new_op())
            try:
                return await fn(*args, **kwargs)
            finally:
                _REQUEST_OP.reset(token)

        return traced

    def write(self) -> None:
        if self.written:
            return
        self.written = True
        self.out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "pid": self.pid,
            "start": self.started,
            "end": clock(),
            "spans": self.spans,
        }
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(payload))


class Profiler:
    """cProfile over the whole process, dumped once when it exits."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._start_process()

    def _start_process(self) -> None:
        import cProfile

        self.pid = os.getpid()
        self.profile = cProfile.Profile()
        self.profile.enable()
        self.written = False

    def write(self) -> None:
        if self.written:
            return
        self.written = True
        self.profile.disable()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.profile.dump_stats(str(self.out_dir / f"prof-{self.pid}.pstats"))


def _hit(args, kwargs, result):
    return "hit" if result is not None else "miss"


def _built(args, kwargs, result):
    return json.dumps([args[0] if args else kwargs.get("name"), sorted(kwargs.items())])


def _timed(args, kwargs, result):
    return f"{result.technique}:{result.instructions}"


def _dumped(args, kwargs, result):
    payload = args[0] if args else None
    return payload.get("schema") if isinstance(payload, dict) else None


def _patch_layers(rec: Recorder) -> None:
    """Wrap each layer entry point at the name its callers look up."""
    import repro.audit
    import repro.experiments.batch as batch
    import repro.experiments.runner as runner
    import repro.experiments.serve as serve
    from repro.core.ooo import OoOCore
    from repro.experiments.cache import ResultCache
    from repro.experiments.spec import RunSpec

    RunSpec.resolved = rec.wrap("spec.resolved", RunSpec.resolved)
    RunSpec.key = rec.wrap("spec.key", RunSpec.key)
    ResultCache.get = rec.wrap("cache.get", ResultCache.get, _hit)
    ResultCache.put = rec.wrap("cache.put", ResultCache.put)
    runner.load_trace = rec.wrap("trace.load", runner.load_trace, _hit)
    runner.store_trace = rec.wrap("trace.store", runner.store_trace)
    runner.build_workload = rec.wrap("workloads.build", runner.build_workload, _built)
    OoOCore.run = rec.wrap("core.run", OoOCore.run, _timed)
    batch.run_simulation = rec.wrap("runner.run_simulation", batch.run_simulation)
    serve.stats_payload = rec.wrap("export.stats", serve.stats_payload)
    serve._dump = rec.wrap("export.dump", serve._dump, _dumped)
    serve.SimulationServer._run = rec.wrap_request(serve.SimulationServer._run)
    repro.audit.audit_timing_run = rec.wrap("audit.run", repro.audit.audit_timing_run)


def _after_pool_fork(tool) -> None:
    # A forked multiprocessing child starts with a copy of the parent's
    # state; it keeps only its own spans or profile and writes them at
    # its own exit, which multiprocessing runs through Finalize, not
    # atexit.
    import multiprocessing.util

    if isinstance(tool, Profiler):
        tool.profile.disable()
    tool._start_process()
    multiprocessing.util.Finalize(tool, tool.write, exitpriority=10)


def install():
    """Start tracing or profiling this process, as the environment asks.

    Returns the :class:`Recorder` or :class:`Profiler`, or ``None`` when
    the environment asks for neither.
    """
    global _ACTIVE
    mode = os.environ.get(ENV_MODE)
    out_dir = os.environ.get(ENV_DIR)
    if _ACTIVE is not None or not mode or not out_dir:
        return _ACTIVE
    if mode == "trace":
        tool = Recorder(Path(out_dir))
        _patch_layers(tool)
    elif mode == "profile":
        tool = Profiler(Path(out_dir))
    else:
        raise SystemExit(f"unknown {ENV_MODE} {mode!r}")
    import multiprocessing.util

    multiprocessing.util.register_after_fork(tool, _after_pool_fork)
    atexit.register(tool.write)
    _ACTIVE = tool
    return tool
