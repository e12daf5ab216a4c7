"""Measured kernels behind ``repro bench`` (simulator throughput).

Each kernel times one hot path of the simulator and reports throughput
in work-units per second (dynamic instructions for the core kernels,
accesses for the hierarchy, prefetches for the vector engine). The
interesting metric across machines is ``rel`` — each kernel's
throughput normalised to the ``functional_reference`` kernel, one
repeat of which runs right before each of the kernel's own repeats —
which cancels host speed, also when the host slows down mid-run, and
is what the CI regression gate compares (see ``check_regression``).

Kernels:

``functional_reference``
    The original un-predecoded interpreter
    (:meth:`~repro.core.functional.FunctionalCore.step_reference`),
    kept as the executable spec. Everything else is relative to this.
``stream_fill``
    The functional stage (:meth:`FunctionalCore.fill`), the one loop
    over the pre-decoded per-PC handlers, writing the stream's columns
    chunk by chunk, undo log and rollback included — the front-end
    cost of a fresh timing run.
``ooo_event_loop``
    The full OoO timing core on the plain baseline — functional stage +
    event-driven dataflow model + memory hierarchy — via
    :meth:`OoOCore.run`, the one timing kernel.
``hierarchy``
    The timed memory hierarchy access path alone.
``demand_translated``
    The same sweep through the fused demand path with the TLB enabled:
    L1-TLB hits, misses, and timed page-table walks in the mix — what
    translation costs the simulator (not the simulated machine).
``vector_engine``
    Vector Runahead's timed vector-chain executor (VIR/gather model)
    over a two-level stride-indirect chain: the slice-based chaining
    engine.
``batch_dispatch``
    The sweep fabric's per-spec overhead: ``run_batch`` over a spec
    list that is 100% cache hits, so the measured cost is spec
    normalization + content-address keying + one sharded-cache lookup
    per spec — everything a campaign pays *around* each simulation.

Results serialise as a ``repro.bench-core/1`` document (committed at
the repo root as ``BENCH_core.json``); ``docs/performance.md``
documents the schema and the regression policy.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..core.functional import FunctionalCore
from ..errors import ReproError, check_writable
from ..isa.program import ProgramBuilder
from ..memory.hierarchy import MemoryHierarchy
from ..memory.memory_image import MemoryImage
from ..workloads import build_workload
from .trace import ArchTrace

BENCH_SCHEMA = "repro.bench-core/1"

#: Workload driven by the functional/OoO kernels: camel's hash-chain
#: loop runs for millions of dynamic instructions, far past any bench
#: budget, so no kernel ever needs restart logic.
_BENCH_WORKLOAD = "camel"


def _functional_reference(n: int) -> Tuple[int, float]:
    wl = build_workload(_BENCH_WORKLOAD)
    step = FunctionalCore(wl.program, wl.memory).step_reference
    t0 = time.perf_counter()
    for _ in range(n):
        step()
    return n, time.perf_counter() - t0


def _stream_fill(n: int) -> Tuple[int, float]:
    wl = build_workload(_BENCH_WORKLOAD)
    fill = FunctionalCore(wl.program, wl.memory).fill
    stream = ArchTrace()
    t0 = time.perf_counter()
    while len(stream) < n:
        fill(stream, n)
    return len(stream), time.perf_counter() - t0


def _ooo_event_loop(n: int) -> Tuple[int, float]:
    from ..core.ooo import OoOCore
    from ..techniques import make_technique

    wl = build_workload(_BENCH_WORKLOAD)
    core = OoOCore(
        wl.program,
        wl.memory,
        SimConfig().with_max_instructions(n),
        technique=make_technique("ooo"),
        workload_name="bench",
    )
    t0 = time.perf_counter()
    result = core.run()
    return result.instructions, time.perf_counter() - t0


def _hierarchy(n: int) -> Tuple[int, float]:
    hierarchy = MemoryHierarchy(SimConfig().memory)
    access = hierarchy.access
    # 4 MiB stride-8 sweep: ~7/8 same-line hits, the rest misses that
    # walk the full L1/L2/L3/DRAM path — the mix the cores produce.
    span = 1 << 22
    t0 = time.perf_counter()
    for i in range(n):
        access((i * 8) % span, i, source="main")
    return n, time.perf_counter() - t0


def _demand_translated(n: int) -> Tuple[int, float]:
    from dataclasses import replace

    from ..config import TLBConfig

    cfg = SimConfig().memory
    hierarchy = MemoryHierarchy(replace(cfg, tlb=TLBConfig(enable=True)))
    demand_load = hierarchy.demand_load
    # Same 4 MiB stride-8 sweep as `hierarchy`, but through the fused
    # demand path with translation on: mostly L1-TLB hits, with steady
    # L1-TLB misses and page-table walks as the sweep crosses pages.
    span = 1 << 22
    t0 = time.perf_counter()
    for i in range(n):
        demand_load((i * 8) % span, i)
    return n, time.perf_counter() - t0


def _vector_engine(n: int) -> Tuple[int, float]:
    from ..runahead.vector_engine import VectorChainRun

    rng = np.random.default_rng(1)
    count = 512
    mem = MemoryImage()
    a = mem.allocate("A", rng.integers(0, count, count))
    bseg = mem.allocate("B", rng.integers(0, 1 << 20, count))
    b = ProgramBuilder()
    b.label("loop")
    b.load("r4", "r3")
    b.shli("r5", "r4", 3)
    b.add("r5", "r6", "r5")
    b.load("r7", "r5")
    b.addi("r3", "r3", 8)
    b.jmp("loop")
    program = b.build()
    hierarchy = MemoryHierarchy(SimConfig().memory)
    regs = [0] * 32
    regs[3] = a.base
    regs[6] = bseg.base
    lanes = [a.base + 8 * (lane + 1) for lane in range(16)]
    work = 0
    cycle = 0
    t0 = time.perf_counter()
    while work < n:
        run = VectorChainRun(
            program,
            mem,
            hierarchy,
            regs,
            lane_addresses=lanes,
            start_pc=0,
            start_cycle=cycle,
            end_pc=3,
            execute_end_pc=True,
            stop_pcs=(0,),
            vector_width=8,
            timeout=200,
        )
        run.run_to_completion()
        work += max(1, run.prefetches)
        cycle = run.finish_time + 1
    return work, time.perf_counter() - t0


def _batch_dispatch(n: int) -> Tuple[int, float]:
    import tempfile

    from ..experiments.batch import run_batch
    from ..experiments.cache import ResultCache
    from ..experiments.runner import run_simulation
    from ..experiments.spec import RunSpec

    result = run_simulation(_BENCH_WORKLOAD, "ooo", max_instructions=600)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        cache = ResultCache(root)
        # n distinct specs (dedup must not collapse them), all warm.
        specs = [
            RunSpec(_BENCH_WORKLOAD, max_instructions=600 + i) for i in range(n)
        ]
        for spec in specs:
            cache.put(spec.key(), result)
        t0 = time.perf_counter()
        run_batch(specs, cache=cache)
        seconds = time.perf_counter() - t0
        if cache.hits != n or cache.misses:
            raise ReproError(
                "batch_dispatch kernel expected an all-hit batch "
                f"(hits={cache.hits}, misses={cache.misses}, n={n})"
            )
    return n, seconds


#: name -> (kernel, default work units, unit label)
KERNELS: Dict[str, Tuple[Callable[[int], Tuple[int, float]], int, str]] = {
    "functional_reference": (_functional_reference, 40_000, "instr"),
    "stream_fill": (_stream_fill, 40_000, "instr"),
    "ooo_event_loop": (_ooo_event_loop, 15_000, "instr"),
    "hierarchy": (_hierarchy, 40_000, "access"),
    "demand_translated": (_demand_translated, 40_000, "access"),
    "vector_engine": (_vector_engine, 8_000, "prefetch"),
    "batch_dispatch": (_batch_dispatch, 1_500, "spec"),
}


#: The kernel every ``rel`` divides by.
REFERENCE = "functional_reference"


def _measure(name: str, scale: float) -> Dict:
    """One timed call of kernel ``name``, after a full collection."""
    fn, default_work, unit = KERNELS[name]
    gc.collect()
    work, seconds = fn(max(1, int(default_work * scale)))
    ips = work / seconds if seconds > 0 else 0.0
    return {"unit": unit, "work": work, "seconds": seconds, "ips": ips}


def run_bench(
    kernels: Optional[List[str]] = None,
    scale: float = 1.0,
    repeats: int = 3,
) -> Dict:
    """Run the selected kernels; best-of-``repeats`` per kernel.

    Returns the ``repro.bench-core/1`` payload. ``rel`` entries are
    present only when :data:`REFERENCE` is part of the run: then one
    reference repeat runs right before each repeat of every other
    kernel, and that kernel's ``rel`` is its best throughput over the
    best of the reference repeats beside it, so a slow phase of the
    host that covers a kernel's repeats slows its reference as well.
    """
    names = list(KERNELS) if kernels is None else list(kernels)
    unknown = [name for name in names if name not in KERNELS]
    if unknown:
        raise ReproError(
            f"unknown bench kernels: {', '.join(unknown)} "
            f"(available: {', '.join(KERNELS)})"
        )
    if repeats < 1:
        raise ReproError("bench repeats must be >= 1")
    paired = REFERENCE in names
    results: Dict[str, Dict] = {}
    for name in names:
        runs: List[Dict] = []
        references: List[float] = []
        for _ in range(repeats):
            if paired and name != REFERENCE:
                references.append(_measure(REFERENCE, scale)["ips"])
            runs.append(_measure(name, scale))
        best = max(runs, key=lambda entry: entry["ips"])
        if paired:
            # The reference's own rel is 1.0: its repeats are its pairs.
            reference_ips = max(references, default=best["ips"])
            if reference_ips > 0:
                best["rel"] = best["ips"] / reference_ips
        results[name] = best
    return {
        "schema": BENCH_SCHEMA,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "kernels": results,
    }


def render_table(payload: Dict) -> str:
    """Human-readable table of one bench payload."""
    lines = [
        f"{'kernel':<22} {'work':>8} {'seconds':>9} {'per-sec':>12} {'rel':>7}",
    ]
    for name, entry in payload.get("kernels", {}).items():
        rel = entry.get("rel")
        lines.append(
            f"{name:<22} {entry['work']:>8d} {entry['seconds']:>9.4f} "
            f"{entry['ips']:>12,.0f} "
            + (f"{rel:>6.2f}x" if rel is not None else f"{'-':>7}")
        )
    return "\n".join(lines)


def check_regression(
    current: Dict,
    baseline: Dict,
    tolerance: float = 0.30,
    absolute: bool = False,
) -> Tuple[List[str], int]:
    """Compare two bench payloads: ``(failure messages, kernels compared)``.

    By default compares ``rel`` (throughput normalised to the reference
    interpreter measured on the *same* host), which is stable across
    machines — the committed baseline was produced elsewhere. Pass
    ``absolute=True`` to gate on raw per-second throughput instead
    (only meaningful against a baseline from the same machine). The
    reference kernel itself is skipped in relative mode (its rel is
    1.0 by construction). A kernel missing the metric on either side is
    not compared: ``rel`` exists only when ``functional_reference`` ran.
    """
    metric = "ips" if absolute else "rel"
    failures: List[str] = []
    compared = 0
    baseline_kernels = baseline.get("kernels", {})
    for name, entry in current.get("kernels", {}).items():
        if not absolute and name == REFERENCE:
            continue
        base_entry = baseline_kernels.get(name)
        if base_entry is None or metric not in base_entry or metric not in entry:
            continue
        compared += 1
        floor = base_entry[metric] * (1.0 - tolerance)
        if entry[metric] < floor:
            failures.append(
                f"{name}: {metric} {entry[metric]:,.2f} is more than "
                f"{tolerance:.0%} below baseline {base_entry[metric]:,.2f}"
            )
    return failures, compared


def write_payload(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_payload(path: str) -> Dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read bench baseline {path!r}: {exc}") from exc
    if payload.get("schema") != BENCH_SCHEMA:
        raise ReproError(
            f"bench baseline {path!r} has schema "
            f"{payload.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    return payload


def main_bench(args) -> int:
    """Back end of the ``repro bench`` CLI subcommand.

    Exit codes: 0 ok, 1 a regression (or a ``--check`` that compared no
    kernel), 2 a usage error (unknown kernel, unwritable ``--json``,
    unreadable baseline), reported before any kernel runs.
    """
    kernels = args.kernels.split(",") if args.kernels else None
    try:
        if args.json:
            check_writable(args.json, "bench file")
        baseline = load_payload(args.check) if args.check else None
        payload = run_bench(kernels=kernels, scale=args.scale, repeats=args.repeats)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_table(payload))
    if args.json:
        try:
            write_payload(payload, args.json)
        except OSError as exc:
            print(f"error: cannot write bench file {args.json!r}: {exc}", file=sys.stderr)
            return 2
        print(f"bench file   : {args.json}", file=sys.stderr)
    if baseline is not None:
        failures, compared = check_regression(
            payload, baseline, tolerance=args.tolerance, absolute=args.absolute
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        if not compared:
            metric = "ips" if args.absolute else "rel"
            print(
                f"bench check  : FAILED, compared no kernels against "
                f"{args.check}: none of them has {metric!r} on both sides"
                + ("" if args.absolute else
                   " (rel needs functional_reference in --kernels)"),
                file=sys.stderr,
            )
            return 1
        print(
            f"bench check  : ok ({compared} compared, all within "
            f"{args.tolerance:.0%} of {args.check})",
            file=sys.stderr,
        )
    return 0
