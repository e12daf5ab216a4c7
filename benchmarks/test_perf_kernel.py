"""Simulator-throughput benchmarks for the pre-decoded kernel.

Unlike the figure benchmarks (which time whole experiments), these
measure the simulator's hot paths directly — the kernels behind the
``repro bench`` CLI subcommand — and report work-units simulated per
second in ``extra_info``. The final benchmark writes the versioned
``repro.bench-core/1`` document to ``BENCH_core.json`` in the working
directory, which CI uploads as an artifact and compares against the
committed baseline (``repro bench --check``; see docs/performance.md).
"""

from __future__ import annotations

import pytest

from repro.perf.bench import KERNELS, render_table, run_bench, write_payload

#: The paths named by the perf harness: the reference interpreter, the
#: pre-decoded functional stage, the OoO timing kernel, the hierarchy
#: access path, the VR vector engine, and the sweep fabric's per-spec
#: dispatch + cache-lookup overhead.
_MEASURED = (
    "functional_reference",
    "stream_fill",
    "ooo_event_loop",
    "hierarchy",
    "demand_translated",
    "vector_engine",
    "batch_dispatch",
)

#: ``ooo_loop`` entry of the v0-era committed BENCH_core.json — the
#: tick-driven loop the event kernel succeeded. Pinned here so the
#: no-regression floor survives baseline refreshes.
OLD_OOO_LOOP_REL = 0.402


@pytest.mark.parametrize("name", _MEASURED)
def test_kernel_throughput(benchmark, name):
    fn, default_work, unit = KERNELS[name]
    target = max(1, default_work // 2)
    work, seconds = benchmark.pedantic(lambda: fn(target), rounds=3, iterations=1)
    benchmark.extra_info["work_units"] = work
    benchmark.extra_info["unit"] = unit
    benchmark.extra_info["per_second"] = work / seconds if seconds else 0.0


def test_bench_payload(benchmark):
    """One full harness run; writes BENCH_core.json and gates the floors."""
    payload = benchmark.pedantic(
        lambda: run_bench(scale=0.5, repeats=2), rounds=1, iterations=1
    )
    write_payload(payload, "BENCH_core.json")
    table = render_table(payload)
    print("\n" + table)
    benchmark.extra_info["table"] = table
    # The pre-decoded claim: the functional stage every fresh run
    # executes beats the reference interpreter by >=2x (asserted with
    # headroom for noisy CI hosts).
    rel = payload["kernels"]["stream_fill"]["rel"]
    assert rel >= 1.5, f"pre-decoded stream_fill only {rel:.2f}x the reference"
    kernels = payload["kernels"]
    # No-regression floor against the pinned v0 ooo_loop rel: the
    # successor kernel must at least match the loop it replaced.
    event_rel = kernels["ooo_event_loop"]["rel"]
    assert event_rel >= OLD_OOO_LOOP_REL * 0.7, (
        f"ooo_event_loop rel {event_rel:.3f} fell below the "
        f"v0 ooo_loop floor {OLD_OOO_LOOP_REL * 0.7:.3f}"
    )
    # Translation gate: the TLB funnels demand loads through the unfused
    # access path, so it cannot match the fused tlb-off kernel — but it
    # must stay the same order of magnitude (measured ~0.5x; floored
    # with headroom so a quadratic walk bug trips the gate).
    tlb_ratio = (
        kernels["demand_translated"]["ips"] / kernels["hierarchy"]["ips"]
    )
    assert tlb_ratio >= 0.2, (
        f"translated demand path only {tlb_ratio:.2f}x the tlb-off path"
    )
