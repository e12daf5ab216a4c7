"""Every figure in the paper's evaluation (Section 6), each one a plan.

A plan is a pair ``(specs, reduce)``: the :class:`RunSpec` list a
figure needs and a reducer that turns the results, in spec order, into
an :class:`ExperimentResult` whose rows mirror the paper's plotted
series. One loop over the figure's variables builds both, so the list a
figure runs is the list it reads. :func:`figure_plan` builds a plan by
figure name, :func:`figure_specs` returns just its list (what
``repro figure --dump-spec`` prints and ``repro batch``, campaigns and
serve run unchanged), and :func:`~repro.experiments.batch.run_plan`
runs it through one strict ``run_batch``. ``instructions`` bounds the
simulated region (the paper uses 500M; we default to regions that keep
a full figure under a few minutes of pure-Python simulation — see
DESIGN.md on scaling).

The generators (``figure2`` ... ``figure_tlb``) run their plan serially.
A serial batch reaches :func:`~repro.experiments.runner.run_simulation`,
which honours an ambient :class:`~repro.experiments.cache.ResultCache`
(see :func:`~repro.experiments.cache.use_cache`): regenerating a figure
after an edit re-runs only the changed points. ``run_plan(figure_plan(
name, ...), jobs=N)`` runs the same figure across N processes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..config import CoreConfig, SimConfig, TLBConfig
from ..errors import ReproError
from ..observability import subtree
from ..workloads import GAP_WORKLOADS, WORKLOAD_NAMES
from .batch import run_plan
from .report import ExperimentResult, harmonic_mean
from .spec import RunSpec


def _stall_fraction(result) -> float:
    """Backend-full stall share, read from the counter registry."""
    counters = result.counters
    return counters.get("core.stall.full_rob_cycles", 0.0) / max(
        1.0, counters.get("core.cycles", 1.0)
    )

# The paper's ROB sweep points (Figures 2 and 12).
ROB_SIZES = [128, 192, 224, 350, 512]
BASELINE_ROB = 350

# Default workload subset for the sweep figures (one per behaviour
# class) so a figure regenerates in minutes; pass workloads=... for all.
SWEEP_WORKLOADS = ["bfs", "sssp", "camel", "nas_cg"]

# The lanes x vector-width sweep points for the slice-engine figure:
# lane count sets how far ahead a chain fetches, vector width sets the
# slice granularity (lanes/width = slices per vectorised instruction).
LANE_POINTS = [32, 64, 128]
WIDTH_POINTS = [4, 8, 16]

# The page-size x TLB-reach sweep points for the virtual-memory figure:
# reach (L1-TLB entries x page size) decides how much of a pointer-chased
# graph the runahead engine can gather before stalling on walks.
TLB_PAGE_POINTS = [1024, 4096, 16384]
TLB_ENTRY_POINTS = [16, 64, 256]

# The sweep runs on graph workloads only: their pointer chases spray
# pages, which is where AraOS-style translation effects are largest.
TLB_WORKLOADS = ["bfs", "sssp"]


def _lanes_config(lanes: int, width: int) -> SimConfig:
    cfg = SimConfig()
    return cfg.with_runahead(
        replace(cfg.runahead, dvr_lanes=lanes, vr_lanes=lanes, vector_width=width)
    )


def _tlb_config(page_bytes: int, entries: int) -> SimConfig:
    """One grid point: ``entries`` L1-TLB entries over ``page_bytes`` pages.

    The L2 TLB scales with the L1 (8x entries) so the sweep varies
    total reach rather than the L1/L2 ratio.
    """
    cfg = SimConfig()
    return replace(
        cfg,
        memory=replace(
            cfg.memory,
            tlb=TLBConfig(
                enable=True,
                l1_entries=entries,
                l1_assoc=min(4, entries),
                l2_entries=entries * 8,
                l2_assoc=8,
                page_bytes=page_bytes,
            ),
        ),
    )


def _default(workloads: Optional[Sequence[str]], fallback: Sequence[str]) -> List[str]:
    return list(workloads) if workloads is not None else list(fallback)


def _sweep_config(rob: int, scale_backend: bool = True) -> SimConfig:
    """ROB sweep; Section 6.5 scales the back-end queues in proportion,
    while the main Figure 2/12 sweep can also be run with the Table 1
    queue sizes fixed (``scale_backend=False``)."""
    core = (
        CoreConfig().with_scaled_backend(rob)
        if scale_backend
        else CoreConfig().with_rob(rob)
    )
    return SimConfig().with_core(core)


def _add(specs: List[RunSpec], workload: str, technique: str, instructions: int, **fields) -> int:
    """Append one spec to a plan's list; the index its result will have."""
    specs.append(RunSpec(workload, technique=technique, max_instructions=instructions, **fields))
    return len(specs) - 1


def _speedup(result, baseline) -> float:
    return result.ipc / baseline.ipc if baseline.ipc else 0.0


_FIGURE7_TECHNIQUES = ("pre", "imp", "vr", "dvr", "oracle")
_FIGURE8_TECHNIQUES = ("vr", "dvr-offload", "dvr-discovery", "dvr")


def figure_plan(
    name: str,
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
    rob_sizes: Optional[Sequence[int]] = None,
    scale_backend: bool = True,
    inputs: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
):
    """The plan ``(specs, reduce)`` of figure ``name`` (a ``repro figure`` name).

    Arguments a figure does not take are ignored; an unknown name
    raises :class:`~repro.errors.ReproError`.
    """
    if name in ("figure2", "figure12"):
        plan = _figure2_plan if name == "figure2" else _figure12_plan
        return plan(workloads, instructions, rob_sizes, scale_backend)
    if name == "figure7":
        if techniques is None:
            techniques = _FIGURE7_TECHNIQUES
        return _figure7_plan(workloads, instructions, inputs, techniques)
    plans = {
        "figure8": _figure8_plan,
        "figure9": _figure9_plan,
        "figure10": _figure10_plan,
        "figure11": _figure11_plan,
        "lanes": _lanes_plan,
        "tlb": _tlb_plan,
    }
    if name not in plans:
        raise ReproError(f"no spec enumeration for figure {name!r}")
    return plans[name](workloads, instructions)


def figure_specs(
    name: str,
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
    rob_sizes: Optional[Sequence[int]] = None,
    scale_backend: bool = True,
    inputs: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
) -> List[RunSpec]:
    """The :class:`RunSpec` list figure ``name`` runs, in its plan's order."""
    return figure_plan(
        name, workloads, instructions, rob_sizes, scale_backend, inputs, techniques
    )[0]


def _rob_points(technique, workloads, instructions, rob_sizes, scale_backend):
    """Figures 2 and 12: per workload, the OoO@350 baseline, then OoO and
    ``technique`` at each ROB size (OoO@350 is the baseline itself).

    Returns the spec list and one ``(workload, rob, baseline, ooo,
    technique)`` index tuple per point.
    """
    specs: List[RunSpec] = []
    points = []
    for wl in _default(workloads, SWEEP_WORKLOADS):
        baseline_config = _sweep_config(BASELINE_ROB, scale_backend)
        base = _add(specs, wl, "ooo", instructions, config=baseline_config)
        for rob in list(rob_sizes or ROB_SIZES):
            cfg = _sweep_config(rob, scale_backend)
            ooo = base if rob == BASELINE_ROB else _add(specs, wl, "ooo", instructions, config=cfg)
            run = _add(specs, wl, technique, instructions, config=cfg)
            points.append((wl, rob, base, ooo, run))
    return specs, points


def _figure2_plan(workloads, instructions, rob_sizes, scale_backend):
    specs, points = _rob_points("vr", workloads, instructions, rob_sizes, scale_backend)

    def reduce(results) -> ExperimentResult:
        rows: List[List] = []
        series: Dict[str, Dict] = {}
        for name, rob, base, ooo, vr in points:
            baseline = results[base]
            norm_ooo = results[ooo].ipc / baseline.ipc
            norm_vr = results[vr].ipc / baseline.ipc
            stall = _stall_fraction(results[ooo])
            curves = series.setdefault(name, {"ooo": {}, "vr": {}, "stall": {}})
            curves["ooo"][rob] = norm_ooo
            curves["vr"][rob] = norm_vr
            curves["stall"][rob] = stall
            rows.append([name, rob, norm_ooo, norm_vr, 100.0 * stall])
        return ExperimentResult(
            "figure2",
            "OoO & VR vs ROB size (normalised to OoO@350) and backend-full stall time",
            ["workload", "rob", "ooo_norm", "vr_norm", "stall_pct"],
            rows,
            notes=[
                "Paper shape: VR's gain shrinks as the ROB grows (sometimes "
                "below the baseline), and stall time falls with ROB size."
            ],
            series=series,
        )

    return specs, reduce


def figure2(
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
    rob_sizes: Optional[Sequence[int]] = None,
    scale_backend: bool = True,
) -> ExperimentResult:
    """OoO and VR performance vs ROB size, normalised to OoO@350, plus
    the fraction of stall time due to a full back-end (right axis)."""
    return run_plan(_figure2_plan(workloads, instructions, rob_sizes, scale_backend))


def _grid(workloads, instructions, techniques, inputs=None):
    """One spec per technique per workload (and per graph input of a GAP
    kernel when ``inputs`` names some): the spec list and one
    ``(label, [index per technique])`` point per row."""
    specs: List[RunSpec] = []
    points = []
    for name in workloads:
        for input_name in list(inputs) if (name in GAP_WORKLOADS and inputs) else [None]:
            label = name if input_name is None else f"{name}_{input_name}"
            points.append((label, [
                _add(specs, name, tech, instructions, input_name=input_name)
                for tech in techniques
            ]))
    return specs, points


def _speedup_rows(points, techniques, results, lead) -> List[List]:
    """Per point, ``lead`` and each technique's speedup over the point's
    first (``ooo``) run; then the harmonic-mean row."""
    rows: List[List] = []
    speedups: Dict[str, List[float]] = {t: [] for t in techniques}
    for label, (base, *runs) in points:
        row: List = [label, *lead]
        for tech, run in zip(techniques, runs):
            speedups[tech].append(_speedup(results[run], results[base]))
            row.append(speedups[tech][-1])
        rows.append(row)
    rows.append(["h-mean", *lead] + [harmonic_mean(speedups[t]) for t in techniques])
    return rows


def _figure7_plan(workloads, instructions, inputs, techniques):
    specs, points = _grid(
        _default(workloads, WORKLOAD_NAMES), instructions, ["ooo", *techniques], inputs
    )

    def reduce(results) -> ExperimentResult:
        return ExperimentResult(
            "figure7",
            "Speedup over the OoO baseline per benchmark",
            ["workload", "ooo"] + list(techniques),
            _speedup_rows(points, techniques, results, lead=[1.0]),
            notes=[
                "Paper shape: DVR is uniformly the best real technique; IMP "
                "helps only simple one-level indirection; VR's advantage is "
                "small on a 350-entry ROB; Oracle is the upper bound."
            ],
        )

    return specs, reduce


def figure7(
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
    inputs: Optional[Sequence[str]] = None,
    techniques: Sequence[str] = _FIGURE7_TECHNIQUES,
) -> ExperimentResult:
    """Normalised performance of every technique on every benchmark."""
    return run_plan(_figure7_plan(workloads, instructions, inputs, techniques))


def _figure8_plan(workloads, instructions):
    specs, points = _grid(
        _default(workloads, SWEEP_WORKLOADS + ["cc", "kangaroo"]),
        instructions,
        ("ooo", *_FIGURE8_TECHNIQUES),
    )

    def reduce(results) -> ExperimentResult:
        return ExperimentResult(
            "figure8",
            "DVR performance breakdown (normalised to OoO)",
            ["workload", "vr", "offload", "+discovery", "full_dvr"],
            _speedup_rows(points, _FIGURE8_TECHNIQUES, results, lead=[]),
            notes=[
                "Paper shape: decoupling (Offload) is the big step over VR; "
                "Discovery adds accuracy; Nested mode completes DVR and is "
                "uniformly best."
            ],
        )

    return specs, reduce


def figure8(
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
) -> ExperimentResult:
    """DVR's breakdown: VR -> +Offload -> +Discovery -> full DVR."""
    return run_plan(_figure8_plan(workloads, instructions))


def _figure9_plan(workloads, instructions):
    specs, points = _grid(_default(workloads, WORKLOAD_NAMES), instructions, ("ooo", "vr", "dvr"))

    def reduce(results) -> ExperimentResult:
        rows: List[List] = [
            [name] + [results[run].counters.get("mem.mshr.mean_occupancy", 0.0) for run in runs]
            for name, runs in points
        ]
        n = len(rows)
        rows.append(["mean"] + [sum(r[i] for r in rows) / n if n else 0.0 for i in range(1, 4)])
        return ExperimentResult(
            "figure9",
            "Mean occupied MSHRs per cycle",
            ["workload", "ooo", "vr", "dvr"],
            rows,
            notes=["Paper shape: DVR sustains far more outstanding misses than OoO."],
        )

    return specs, reduce


def figure9(
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
) -> ExperimentResult:
    """Memory-level parallelism: mean occupied L1-D MSHRs per cycle."""
    return run_plan(_figure9_plan(workloads, instructions))


def _figure10_plan(workloads, instructions):
    specs, points = _grid(_default(workloads, WORKLOAD_NAMES), instructions, ("ooo", "vr", "dvr"))

    def reduce(results) -> ExperimentResult:
        rows: List[List] = []
        for name, (base, *runs) in points:
            base_dram = max(1, sum(subtree(results[base].counters, "mem.dram.accesses").values()))
            for tech, run in zip(("vr", "dvr"), runs):
                dram = subtree(results[run].counters, "mem.dram.accesses")
                main = dram.get("main", 0) + dram.get("prefetcher", 0)
                runahead = dram.get("runahead", 0)
                rows.append([f"{name}/{tech}", main / base_dram, runahead / base_dram,
                             (main + runahead) / base_dram])
        return ExperimentResult(
            "figure10",
            "DRAM accesses vs baseline (main + runahead split)",
            ["workload/technique", "main", "runahead", "total"],
            rows,
            notes=[
                "Paper shape: VR over-fetches (total can exceed 2x baseline); "
                "DVR's Discovery Mode keeps total traffic close to baseline "
                "while shifting it from demand to runahead."
            ],
        )

    return specs, reduce


def figure10(
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
) -> ExperimentResult:
    """Accuracy/coverage: DRAM traffic split main-thread vs runahead,
    normalised to the baseline's DRAM traffic."""
    return run_plan(_figure10_plan(workloads, instructions))


def _figure11_plan(workloads, instructions):
    specs, points = _grid(_default(workloads, WORKLOAD_NAMES), instructions, ("dvr",))

    def reduce(results) -> ExperimentResult:
        rows: List[List] = []
        for name, (run,) in points:
            timeliness = subtree(results[run].counters, "mem.prefetch.timeliness")
            demanded = sum(
                timeliness.get(k, 0) for k in ("L1", "L2", "L3", "Off-chip")
            )
            if demanded == 0:
                rows.append([name, 0.0, 0.0, 0.0, 0.0, timeliness.get("Unused", 0)])
                continue
            rows.append(
                [name]
                + [timeliness.get(k, 0) / demanded for k in ("L1", "L2", "L3", "Off-chip")]
                + [timeliness.get("Unused", 0)]
            )
        return ExperimentResult(
            "figure11",
            "Where the main thread finds DVR-prefetched lines",
            ["workload", "L1", "L2", "L3", "off_chip", "unused_lines"],
            rows,
            notes=[
                "Fractions are over prefetched lines the main thread demanded "
                "within the region; 'unused_lines' is the outstanding prefetch "
                "horizon at region end (folded into Off-chip by the paper's "
                "500M-instruction windows).",
                "Paper shape: most lines are L1 hits; 10-20% arrive late.",
            ],
        )

    return specs, reduce


def figure11(
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
) -> ExperimentResult:
    """Timeliness of DVR prefetches: level where the main thread finds
    runahead-prefetched lines."""
    return run_plan(_figure11_plan(workloads, instructions))


def _lanes_plan(workloads, instructions):
    specs: List[RunSpec] = []
    points = []
    for name in _default(workloads, SWEEP_WORKLOADS):
        base = _add(specs, name, "ooo", instructions)
        for lanes in LANE_POINTS:
            for width in WIDTH_POINTS:
                run = _add(specs, name, "dvr", instructions, config=_lanes_config(lanes, width))
                points.append((name, lanes, width, base, run))

    def reduce(results) -> ExperimentResult:
        rows: List[List] = []
        series: Dict[str, Dict] = {}
        for name, lanes, width, base, run in points:
            result = results[run]
            speedup = _speedup(result, results[base])
            slices = result.counters.get("vr.engine.slices", 0)
            stalls = result.counters.get("vr.engine.chain_stalls", 0)
            series.setdefault(name, {})[f"{lanes}x{width}"] = speedup
            rows.append([name, lanes, width, speedup, slices, stalls])
        return ExperimentResult(
            "lanes",
            "DVR speedup vs lane count and vector width (slice engine sweep)",
            ["workload", "lanes", "width", "dvr_norm", "slices", "chain_stalls"],
            rows,
            notes=[
                "Wider slices cut slices-per-instruction (less issue pressure) "
                "but stall whole slices on their slowest lane; more lanes "
                "deepen the prefetch horizon at the cost of over-fetch past "
                "short loops."
            ],
            series=series,
        )

    return specs, reduce


def figure_lanes(
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
) -> ExperimentResult:
    """DVR speedup and slice pressure across the lanes x width grid.

    The slice engine's throughput axis: lane count fixes the runahead
    depth per chain, vector width the number of lanes per issued slice,
    so each grid point trades chain coverage against slice bandwidth.
    The ``vr.engine.*`` counters expose the machine-level effects
    (slices issued, chain stalls) next to the end-to-end speedup.
    """
    return run_plan(_lanes_plan(workloads, instructions))


def _tlb_plan(workloads, instructions):
    specs: List[RunSpec] = []
    points = []
    for name in _default(workloads, TLB_WORKLOADS):
        base = _add(specs, name, "dvr", instructions)
        for page_bytes in TLB_PAGE_POINTS:
            for entries in TLB_ENTRY_POINTS:
                config = _tlb_config(page_bytes, entries)
                run = _add(specs, name, "dvr", instructions, config=config)
                points.append((name, page_bytes, entries, base, run))

    def reduce(results) -> ExperimentResult:
        rows: List[List] = []
        series: Dict[str, Dict] = {}
        for name, page_bytes, entries, base, run in points:
            result = results[run]
            norm = _speedup(result, results[base])
            counters = result.counters
            lookups = counters.get("mem.tlb.l1.lookups", 0)
            misses = counters.get("mem.tlb.l1.misses", 0)
            miss_rate = misses / lookups if lookups else 0.0
            walks = counters.get("mem.tlb.walks", 0)
            walk_cycles = counters.get("mem.tlb.walk_cycles", 0)
            reach_kb = entries * page_bytes / 1024.0
            series.setdefault(name, {})[f"{page_bytes}B/{entries}e"] = norm
            rows.append(
                [name, page_bytes, entries, reach_kb, norm, miss_rate, walks, walk_cycles]
            )
        return ExperimentResult(
            "tlb",
            "DVR performance under translation vs page size and TLB reach",
            ["workload", "page_bytes", "l1_entries", "reach_kb", "dvr_norm",
             "l1_miss_rate", "walks", "walk_cycles"],
            rows,
            notes=[
                "dvr_norm is IPC relative to the same workload's tlb-off DVR "
                "run: 1.0 means translation was free. Reach (entries x page "
                "size) is what matters on pointer chases — the same reach "
                "bought with larger pages also shortens walks via upper-level "
                "PTE locality."
            ],
            series=series,
        )

    return specs, reduce


def figure_tlb(
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
) -> ExperimentResult:
    """DVR slowdown under translation across the page-size x reach grid.

    The virtual-memory axis: every point re-runs DVR with the TLB
    enabled at one (page size, L1-TLB entries) corner and normalises to
    the same workload's untranslated DVR run, so ``dvr_norm`` isolates
    what translation alone costs. ``reach_kb`` (entries x page size) is
    the figure's real x-axis — small pages with few entries thrash on
    pointer chases, large reach approaches the tlb-off asymptote —
    while the ``mem.tlb.*`` counters expose why (L1-TLB miss rate,
    walks, cycles spent walking).
    """
    return run_plan(_tlb_plan(workloads, instructions))


def _figure12_plan(workloads, instructions, rob_sizes, scale_backend):
    specs, points = _rob_points("dvr", workloads, instructions, rob_sizes, scale_backend)

    def reduce(results) -> ExperimentResult:
        rows: List[List] = []
        series: Dict[str, Dict] = {}
        for name, rob, base, ooo, dvr in points:
            baseline = results[base]
            norm_ooo = results[ooo].ipc / baseline.ipc
            norm_dvr = results[dvr].ipc / baseline.ipc
            curves = series.setdefault(name, {"ooo": {}, "dvr": {}})
            curves["ooo"][rob] = norm_ooo
            curves["dvr"][rob] = norm_dvr
            rows.append([name, rob, norm_ooo, norm_dvr])
        return ExperimentResult(
            "figure12",
            "DVR vs ROB size (normalised to OoO@350)",
            ["workload", "rob", "ooo_norm", "dvr_norm"],
            rows,
            notes=[
                "Paper shape: DVR's speedup over the same-size OoO core holds "
                "(or grows) as the ROB scales, in contrast to VR in Figure 2."
            ],
            series=series,
        )

    return specs, reduce


def figure12(
    workloads: Optional[Sequence[str]] = None,
    instructions: int = 15_000,
    rob_sizes: Optional[Sequence[int]] = None,
    scale_backend: bool = True,
) -> ExperimentResult:
    """DVR performance vs ROB size (the gain holds, unlike VR's)."""
    return run_plan(_figure12_plan(workloads, instructions, rob_sizes, scale_backend))
