"""Generators for the paper's tables."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import RunaheadConfig, SimConfig
from ..runahead.hardware_cost import hardware_cost_bytes
from ..workloads import GAP_WORKLOADS, GRAPH_PROFILES
from ..workloads.gap import shared_input
from .batch import run_plan
from .report import ExperimentResult
from .spec import RunSpec


def table1_rows(config: Optional[SimConfig] = None) -> ExperimentResult:
    """Table 1: the baseline core configuration actually simulated."""
    cfg = config or SimConfig()
    core = cfg.core
    mem = cfg.memory
    rows = [
        ["ROB size", core.rob_size],
        ["Queue sizes", f"issue ({core.iq_size}), load ({core.lq_size}), store ({core.sq_size})"],
        ["Processor width", f"{core.width}-wide fetch/dispatch/rename/commit"],
        ["Pipeline depth", f"{core.frontend_stages} front-end stages"],
        ["Branch predictor", "TAGE-lite (stand-in for 8KB TAGE-SC-L)"],
        [
            "Functional units",
            f"{core.int_alu_units} int add ({core.int_alu_latency}c), "
            f"{core.int_mul_units} int mult ({core.int_mul_latency}c), "
            f"{core.int_div_units} int div ({core.int_div_latency}c), "
            f"{core.fp_add_units} fp add ({core.fp_add_latency}c), "
            f"{core.fp_mul_units} fp mult ({core.fp_mul_latency}c), "
            f"{core.fp_div_units} fp div ({core.fp_div_latency}c)",
        ],
        ["Memory ports", core.mem_ports],
        ["L1 D-cache", f"{mem.l1d.size_bytes // 1024} KB, assoc {mem.l1d.assoc}, "
                       f"{mem.l1d.latency}-cycle, {mem.l1d_mshrs} MSHRs, stride prefetcher"],
        ["L2 cache", f"{mem.l2.size_bytes // 1024} KB, assoc {mem.l2.assoc}, {mem.l2.latency}-cycle"],
        ["L3 cache", f"{mem.l3.size_bytes // 1024} KB, assoc {mem.l3.assoc}, {mem.l3.latency}-cycle"],
        [
            "Memory",
            f"{mem.dram_latency}-cycle min latency, "
            f"{mem.dram_bytes_per_cycle} B/cycle, request-based contention",
        ],
    ]
    return ExperimentResult(
        "table1",
        "Baseline configuration for the OoO core",
        ["parameter", "value"],
        rows,
        notes=["Matches paper Table 1 modulo the documented scaling (DESIGN.md)."],
    )


def table2_plan(
    instructions: int = 8_000,
    inputs: Optional[Sequence[str]] = None,
    kernels: Optional[Sequence[str]] = None,
):
    """The plan ``(specs, reduce)`` behind :func:`table2_rows`: every GAP
    kernel on the baseline OoO core, per graph input."""
    inputs = list(inputs or GRAPH_PROFILES)
    kernels = list(kernels or GAP_WORKLOADS)
    specs: List[RunSpec] = []
    points = []
    for profile in inputs:
        points.append((profile, range(len(specs), len(specs) + len(kernels))))
        specs.extend(
            RunSpec(kernel, technique="ooo", max_instructions=instructions, input_name=profile)
            for kernel in kernels
        )

    def reduce(results) -> ExperimentResult:
        rows = []
        for profile, runs in points:
            # The memoised input the runs built, not a rebuild.
            graph = shared_input(profile)[0]
            total_misses = sum(results[run].dram_accesses for run in runs)
            total_instructions = sum(results[run].instructions for run in runs)
            mpki = 1000.0 * total_misses / max(1, total_instructions)
            rows.append([profile, graph.num_nodes, graph.num_edges, mpki])
        return ExperimentResult(
            "table2",
            "Graph inputs (synthetic stand-ins) with measured LLC MPKI",
            ["input", "nodes", "edges", "llc_mpki"],
            rows,
            notes=[
                "Synthetic degree-profile stand-ins for the paper's inputs "
                "(KR/TW/ORK/LJN power-law, UR uniform); sizes scaled with the "
                "cache hierarchy. MPKI aggregated over the GAP kernels."
            ],
        )

    return specs, reduce


def table2_rows(
    instructions: int = 8_000,
    inputs: Optional[Sequence[str]] = None,
    kernels: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Table 2: graph inputs with measured LLC MPKI aggregated over the
    GAP kernels on the baseline OoO core."""
    return run_plan(table2_plan(instructions, inputs, kernels))


def hardware_cost_table(config: Optional[RunaheadConfig] = None) -> ExperimentResult:
    """Section 4.4: the byte cost of every DVR hardware structure.

    With the paper's configuration the total is exactly 1139 bytes.
    """
    costs = hardware_cost_bytes(config)
    rows = [[name, value] for name, value in costs.items() if name != "total"]
    rows.append(["total", costs["total"]])
    return ExperimentResult(
        "hwcost",
        "DVR hardware overhead in bytes (Section 4.4)",
        ["structure", "bytes"],
        rows,
        notes=["Paper total: 1139 bytes at the default configuration."],
    )
