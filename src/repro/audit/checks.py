"""Registered invariant checks over end-of-run simulator state.

Every check is a function ``(AuditContext) -> List[str]`` returning the
violations it found (empty list = law holds). Checks are registered in
``CHECKS`` in declaration order with :func:`register_check`; the runner
evaluates all of them (or a named subset) after a simulation finishes.

The laws mirror the paper's own bookkeeping: the Figure 9/10/11 inputs
are all derived from the ``mem.*`` counters, so a counter that lies
silently corrupts a headline figure. The audit makes the books balance
on every run instead of trusting them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.functional import FunctionalCore
from ..frontend.branch_predictor import TageLitePredictor
from ..memory.hierarchy import LEVEL_L1
from ..observability import CounterRegistry, subtree
from .dispatch import (  # noqa: F401 (re-exported: their old home)
    check_batch_counters,
    check_fabric_counters,
    check_serve_counters,
)
from .report import CheckResult, RunAudit

CHECKS: Dict[str, Callable[["AuditContext"], List[str]]] = {}


def register_check(name: str):
    """Register an invariant check under ``name`` (declaration order kept)."""

    def decorate(fn):
        CHECKS[name] = fn
        return fn

    return decorate


@dataclass
class AuditContext:
    """Everything a check may inspect after one run.

    ``rebuild`` recreates the run's functional core over a fresh
    workload image (same program transform, same seed) so the
    equivalence check can re-execute architecturally from scratch.
    """

    core: object  # OoOCore, post-run
    result: object  # SimulationResult
    rebuild: Optional[Callable[[], FunctionalCore]] = None

    @property
    def hierarchy(self):
        return self.core.hierarchy

    @property
    def stream(self):
        """The architectural stream the core consumed (None for a core
        without one)."""
        return getattr(self.core, "stream", None)


def _warmup_base(ctx: AuditContext) -> Dict:
    """The counter snapshot the run's books are scoped by (empty when
    they cover the whole run)."""
    return getattr(ctx.core, "warmup_base", None) or {}


# -- counter conservation ----------------------------------------------------


@register_check("counters.demand-levels")
def check_demand_levels(ctx: AuditContext) -> List[str]:
    """Every demand load is satisfied at exactly one level.

    Verified on the raw whole-run books and on the result's published
    (ROI-scoped) counters.
    """
    stats = ctx.hierarchy.stats
    result = ctx.result
    violations: List[str] = []
    for label, levels, loads in (
        ("raw", stats.demand_level_counts, stats.demand_loads),
        ("published", result.demand_level_counts, result.demand_loads),
    ):
        total = sum(levels.values())
        if total != loads:
            violations.append(
                f"{label}: demand level counts sum to {total}, "
                f"but {loads} demand loads were issued"
            )
    return violations


@register_check("counters.level-identities")
def check_level_identities(ctx: AuditContext) -> List[str]:
    """The published ``mem.*`` hit/miss identities hold.

    Verified on a fresh publication of the raw whole-run stats (the
    result's own counters may be ROI-scoped) and on the result's
    published registry.
    """
    violations: List[str] = []
    raw = CounterRegistry()
    ctx.hierarchy.publish_counters(raw)
    for label, counters in (("raw", raw.snapshot()), ("published", ctx.result.counters)):
        get = counters.get
        if get("mem.l1.hits", 0) + get("mem.l1.misses", 0) != get("mem.demand.loads", 0):
            violations.append(
                f"{label}: mem.l1.hits + mem.l1.misses != mem.demand.loads "
                f"({get('mem.l1.hits', 0)} + {get('mem.l1.misses', 0)} != "
                f"{get('mem.demand.loads', 0)})"
            )
        if get("mem.l2.misses", 0) != get("mem.l3.hits", 0) + get("mem.l3.misses", 0):
            violations.append(
                f"{label}: mem.l2.misses != mem.l3.hits + mem.l3.misses "
                f"({get('mem.l2.misses', 0)} != {get('mem.l3.hits', 0)} + "
                f"{get('mem.l3.misses', 0)})"
            )
        expected_misses = (
            get("mem.mshr.merges", 0) + get("mem.l2.hits", 0) + get("mem.l2.misses", 0)
        )
        if get("mem.l1.misses", 0) != expected_misses:
            violations.append(
                f"{label}: mem.l1.misses != mshr.merges + l2.hits + l2.misses "
                f"({get('mem.l1.misses', 0)} != {expected_misses})"
            )
    return violations


@register_check("counters.timeliness")
def check_timeliness_partition(ctx: AuditContext) -> List[str]:
    """Timeliness buckets partition the tracked prefetched lines.

    Each line entered into the Figure 11 tracker is classified exactly
    once — at its first demand, or into Unused by ``finalize_timeliness``.
    A raw-book law: a line tracked before the warm-up boundary is
    classified after it, so the ROI buckets sum to the ROI ``tracked``
    plus the lines pending at the boundary.
    """
    stats = ctx.hierarchy.stats
    bucketed = sum(stats.timeliness.values())
    if bucketed != stats.prefetch_tracked:
        return [
            f"timeliness buckets hold {bucketed} lines, "
            f"but {stats.prefetch_tracked} prefetched lines were tracked "
            "(finalize_timeliness not run, or lines double-classified)"
        ]
    return []


@register_check("counters.prefetch-outcomes")
def check_prefetch_outcomes(ctx: AuditContext) -> List[str]:
    """Per-level prefetch outcomes partition the issued prefetches.

    Verified on the raw whole-run books and on the result's published
    (ROI-scoped) counters.
    """
    stats = ctx.hierarchy.stats
    counters = ctx.result.counters
    violations: List[str] = []
    for label, issued_by_source, outcomes, already_cached in (
        ("raw", stats.prefetches_by_source, stats.prefetch_outcomes,
         stats.prefetch_already_cached),
        ("published", subtree(counters, "mem.prefetch.issued"),
         subtree(counters, "mem.prefetch.outcome"),
         counters.get("mem.prefetch.already_cached", 0)),
    ):
        for source, issued in issued_by_source.items():
            prefix = f"{source}."
            satisfied = sum(
                count for key, count in outcomes.items() if key.startswith(prefix)
            )
            if satisfied != issued:
                violations.append(
                    f"{label}: prefetch outcomes for source {source!r} sum to "
                    f"{satisfied}, but {issued} prefetches were issued"
                )
        legacy = sum(
            count for key, count in outcomes.items() if key.endswith(f".{LEVEL_L1}")
        )
        if legacy != already_cached:
            violations.append(
                f"{label}: prefetch_already_cached disagrees with the L1 "
                f"outcome column ({already_cached} != {legacy})"
            )
    return violations


# -- MSHR file laws ----------------------------------------------------------


@register_check("mshr.merges")
def check_mshr_merges(ctx: AuditContext) -> List[str]:
    """Only real merged requests count toward ``merged_requests``.

    A stats-neutral scheduling query (``load_needs_mshr``) going through
    the counting ``lookup`` inflates the file counter past the accesses
    that actually merged in the hierarchy — the exact bug this check
    was built to catch.
    """
    mshrs = ctx.hierarchy.mshrs
    hits = ctx.hierarchy.stats.mshr_merge_hits
    if mshrs.merged_requests != hits:
        return [
            f"MSHR file counted {mshrs.merged_requests} merged requests, "
            f"but the hierarchy performed {hits} merges "
            "(a pure query is counting as a merge?)"
        ]
    return []


@register_check("mshr.occupancy")
def check_mshr_occupancy(ctx: AuditContext) -> List[str]:
    """Allocation/occupancy accounting is self-consistent."""
    mshrs = ctx.hierarchy.mshrs
    violations: List[str] = []
    if mshrs.peak_occupancy > mshrs.num_entries:
        violations.append(
            f"peak occupancy {mshrs.peak_occupancy} exceeds the "
            f"{mshrs.num_entries}-entry file"
        )
    if mshrs.total_allocations < mshrs.peak_occupancy:
        violations.append(
            f"{mshrs.total_allocations} allocations cannot produce a peak "
            f"of {mshrs.peak_occupancy} live entries"
        )
    interval_sum = mshrs.interval_integral()
    if interval_sum != mshrs.occupancy_integral:
        violations.append(
            f"busy intervals integrate to {interval_sum}, "
            f"occupancy_integral says {mshrs.occupancy_integral}"
        )
    # The published mean is swept over the ROI window, which opens at
    # the warm-up instant of a warmed run.
    start = _warmup_base(ctx).get("core.cycles", 0)
    cycles = max(1, int(ctx.result.cycles))
    mean = ctx.result.counters.get("mem.mshr.mean_occupancy", 0.0)
    integral = mshrs.interval_integral(start, start + cycles)
    if mean < 0 or mean * cycles > integral + 1e-6:
        violations.append(
            f"mean occupancy {mean:.3f} over {cycles} cycles is inconsistent "
            f"with an occupancy integral of {integral}"
        )
    return violations


@register_check("mshr.reclamation")
def check_mshr_reclamation(ctx: AuditContext) -> List[str]:
    """No entry outlives its ready cycle past the purge horizon.

    Purging at the latest ready cycle among the in-flight entries must
    reclaim all of them; anything left is a zombie the lazy-purge logic
    will never free.
    """
    mshrs = ctx.hierarchy.mshrs
    inflight = mshrs.inflight()
    if not inflight:
        return []
    horizon = max(inflight.values())
    mshrs.occupancy(horizon)  # forces a purge at the horizon
    stale = {
        line: ready for line, ready in mshrs.inflight().items() if ready <= horizon
    }
    if stale:
        return [
            f"{len(stale)} MSHR entries survived a purge at cycle {horizon} "
            f"despite being ready (lines {sorted(stale)[:4]}...)"
        ]
    return []


# -- cache-hierarchy structure ----------------------------------------------


@register_check("cache.inclusion")
def check_cache_inclusion(ctx: AuditContext) -> List[str]:
    """The hierarchy is inclusive with monotone fill cycles.

    Every line resident in an inner level must be backed by the outer
    level, and the outer copy cannot have been filled later than the
    inner one (fills flow outside-in on the same miss).
    """
    h = ctx.hierarchy
    violations: List[str] = []
    pairs = ((h.l1, h.l2), (h.l2, h.l3))
    for inner, outer in pairs:
        outer_lines = outer.lines()
        orphans = 0
        skewed = 0
        for line, fill in inner.lines().items():
            outer_fill = outer_lines.get(line)
            if outer_fill is None:
                orphans += 1
            elif outer_fill > fill:
                skewed += 1
        if orphans:
            violations.append(
                f"{orphans} lines resident in {inner.name} have no backing "
                f"copy in {outer.name} (stale after an outer eviction?)"
            )
        if skewed:
            violations.append(
                f"{skewed} lines in {inner.name} were filled before their "
                f"{outer.name} copy"
            )
    return violations


# -- core / result conservation ---------------------------------------------


@register_check("core.conservation")
def check_core_conservation(ctx: AuditContext) -> List[str]:
    """Pipeline counters respect their orderings; the CPI stack balances."""
    counters = ctx.result.counters
    violations: List[str] = []
    fetched = counters.get("core.fetch.instructions", 0)
    committed = counters.get("core.commit.instructions", 0)
    if committed > fetched:
        violations.append(f"committed {committed} > fetched {fetched}")
    predictions = counters.get("core.branch.predictions", 0)
    mispredictions = counters.get("core.branch.mispredictions", 0)
    if mispredictions > predictions:
        violations.append(
            f"{mispredictions} mispredictions > {predictions} predictions"
        )
    if ctx.result.cycles < 1:
        violations.append(f"non-positive cycle count {ctx.result.cycles}")
    buckets = ctx.result.cycle_buckets
    if buckets:
        total = sum(buckets.values())
        if total != ctx.result.cycles:
            violations.append(
                f"CPI stack sums to {total}, run took {ctx.result.cycles} cycles"
            )
    return violations


# -- event-kernel scheduler accounting ---------------------------------------
#
# ``OoOCore.run`` publishes the ``core.sched.*`` family; the reference
# oracle in ``tests/oracles`` publishes none, so each check keys off
# counter presence and passes vacuously otherwise.


@register_check("sched.retire-order")
def check_sched_retire_order(ctx: AuditContext) -> List[str]:
    """No instruction retires before its latest wakeup time."""
    counters = ctx.result.counters
    violations = counters.get("core.sched.retire_violations")
    if violations is None:
        return []
    if violations:
        return [
            f"{violations} instructions retired before their completion wakeup"
        ]
    return []


@register_check("sched.skip-accounting")
def check_sched_skip_accounting(ctx: AuditContext) -> List[str]:
    """Commit cycles and skipped stall spans fit inside the run.

    The CPI-stack analogue for the event kernel: every cycle either saw
    a retirement or was skipped as a stall span, never both.
    """
    counters = ctx.result.counters
    skipped = counters.get("core.sched.cycles.skipped")
    if skipped is None:
        return []
    cycles = ctx.result.cycles
    commit_cycles = counters.get("core.sched.commit_cycles", 0)
    if commit_cycles + skipped > cycles:
        return [
            f"commit cycles {commit_cycles} + skipped {skipped} "
            f"exceed the run's {cycles} cycles"
        ]
    return []


# -- vector-engine lane/copy conservation ------------------------------------
#
# The ``vr.engine.*`` family is published only by techniques that ran
# the vector chain engine (VR and the DVR variants); other runs carry
# no such counters, so each check keys off counter presence and passes
# vacuously otherwise.


@register_check("vector.lane-conservation")
def check_vector_lane_conservation(ctx: AuditContext) -> List[str]:
    """Every dispatched vector lane either completes or is invalidated.

    Lanes leave a chain exactly once — by finishing it, or via first-lane
    divergence / bad-address invalidation. A lane invalidated twice (it
    can fault in several gathers along the chain) must still count once.
    """
    counters = ctx.result.counters
    total = counters.get("vr.engine.lanes.total")
    if total is None:
        return []
    completed = counters.get("vr.engine.lanes.completed", 0)
    invalidated = counters.get("vr.engine.lanes.invalidated", 0)
    if total != completed + invalidated:
        return [
            f"vector lanes leak: total {total} != "
            f"completed {completed} + invalidated {invalidated}"
        ]
    return []


@register_check("vector.copy-conservation")
def check_vector_copy_conservation(ctx: AuditContext) -> List[str]:
    """Issued copies and vector instructions balance their breakdowns.

    Every issued copy is a scalar copy or a vector slice; every scalar
    copy came from a scalar-issued instruction; every processed
    instruction issued as scalar, vector, or not at all; and a
    vector-issued instruction occupies at least one slice.
    """
    counters = ctx.result.counters
    copies = counters.get("vr.engine.copies")
    if copies is None:
        return []
    get = counters.get
    scalar_copies = get("vr.engine.copies.scalar", 0)
    slices = get("vr.engine.slices", 0)
    instructions = get("vr.engine.instructions", 0)
    instr_scalar = get("vr.engine.instructions.scalar", 0)
    instr_vector = get("vr.engine.instructions.vector", 0)
    instr_no_issue = get("vr.engine.instructions.no_issue", 0)
    violations: List[str] = []
    if copies != scalar_copies + slices:
        violations.append(
            f"copies {copies} != scalar copies {scalar_copies} + slices {slices}"
        )
    if scalar_copies != instr_scalar:
        violations.append(
            f"scalar copies {scalar_copies} != "
            f"scalar-issued instructions {instr_scalar}"
        )
    if instructions != instr_scalar + instr_vector + instr_no_issue:
        violations.append(
            f"instructions {instructions} != scalar {instr_scalar} + "
            f"vector {instr_vector} + no-issue {instr_no_issue}"
        )
    if slices < instr_vector:
        violations.append(
            f"{instr_vector} vector-issued instructions cannot fit in "
            f"{slices} slices"
        )
    return violations


# -- TLB laws ----------------------------------------------------------------


@register_check("tlb.lookup-conservation")
def check_tlb_lookup_conservation(ctx: AuditContext) -> List[str]:
    """Every TLB lookup at each level is a hit or a miss, never both.

    The L2 TLB is only consulted on an L1-TLB miss, so its lookup count
    must equal the L1 miss count exactly. Vacuous when the run had no
    TLB (``mem.tlb.*`` unpublished).
    """
    counters = ctx.result.counters
    if counters.get("mem.tlb.l1.lookups") is None:
        return []
    get = counters.get
    violations: List[str] = []
    for level in ("l1", "l2"):
        lookups = get(f"mem.tlb.{level}.lookups", 0)
        hits = get(f"mem.tlb.{level}.hits", 0)
        misses = get(f"mem.tlb.{level}.misses", 0)
        if hits + misses != lookups:
            violations.append(
                f"{level.upper()}-TLB books unbalanced: hits {hits} + "
                f"misses {misses} != lookups {lookups}"
            )
    l1_misses = get("mem.tlb.l1.misses", 0)
    l2_lookups = get("mem.tlb.l2.lookups", 0)
    if l2_lookups != l1_misses:
        violations.append(
            f"L2-TLB consulted {l2_lookups} times but the L1 TLB "
            f"missed {l1_misses} times"
        )
    return violations


@register_check("tlb.walk-conservation")
def check_tlb_walk_conservation(ctx: AuditContext) -> List[str]:
    """Every L2-TLB miss either launches a page-table walk or is dropped.

    Demand misses always walk; speculative misses walk or are dropped
    by ``runahead.tlb_policy``. Each walk costs at least one cycle per
    page-table level. Vacuous when the run had no TLB.
    """
    counters = ctx.result.counters
    walks = counters.get("mem.tlb.walks")
    if walks is None:
        return []
    get = counters.get
    l2_misses = get("mem.tlb.l2.misses", 0)
    dropped = get("mem.tlb.dropped_prefetches", 0)
    walk_cycles = get("mem.tlb.walk_cycles", 0)
    violations: List[str] = []
    if walks != l2_misses - dropped:
        violations.append(
            f"walk leak: walks {walks} != L2-TLB misses {l2_misses} - "
            f"dropped speculative accesses {dropped}"
        )
    if walks > 0 and walk_cycles < walks:
        violations.append(
            f"{walks} walks cannot complete in {walk_cycles} walk cycles"
        )
    tlb = getattr(ctx.hierarchy, "tlb", None)
    if tlb is not None:
        live = tlb.walks - _warmup_base(ctx).get("mem.tlb.walks", 0)
        if live != walks:
            violations.append(
                f"published walks {walks} disagree with the live walker {live}"
            )
    return violations


# -- timing vs functional equivalence ---------------------------------------


@register_check("functional.equivalence")
def check_functional_equivalence(ctx: AuditContext) -> List[str]:
    """The timing run's architectural effects match a fresh re-execution.

    Re-executes the stream's instruction count through the reference
    interpreter over a freshly built workload image and compares the
    stream's final register file and halt state, and the timing image
    after the kernel applied the last store. Fresh and replayed streams
    are checked alike: a memoised stream carries the end state of the
    run that filled it.

    The front end is part of the stream: a fresh TAGE-lite walks the
    re-execution's conditional branches among the instructions the run
    committed, and its predictions and mispredictions must equal the
    run's whole-run books (the published counters plus the warm-up
    base), so a stale or tampered front-end column is caught too.
    """
    stream = ctx.stream
    if ctx.rebuild is None or stream is None:
        return []
    fresh = ctx.rebuild()
    steps = len(stream)
    base = _warmup_base(ctx)
    counters = ctx.result.counters

    def whole_run(name: str):
        return counters.get(name, 0) + base.get(name, 0)

    committed_whole = whole_run("core.commit.instructions")
    predictor = TageLitePredictor(ctx.core.config.branch)
    while fresh.executed < steps:
        dyn = fresh.step_reference()
        if dyn is None:
            break
        if dyn.taken is not None and dyn.seq < committed_whole:
            predictor.update(dyn.pc, dyn.taken, predictor.predict(dyn.pc))
    violations: List[str] = []
    for name, expected in (
        ("core.branch.predictions", predictor.predictions),
        ("core.branch.mispredictions", predictor.mispredictions),
    ):
        if whole_run(name) != expected:
            violations.append(
                f"{name} is {whole_run(name)} over the whole run, "
                f"a fresh TAGE-lite over the stream gives {expected}"
            )
    if fresh.executed != steps:
        violations.append(
            f"reference execution halted after {fresh.executed} instructions, "
            f"timing run consumed {steps}"
        )
    if fresh.halted != stream.halted:
        violations.append(
            f"halt state diverged (reference {fresh.halted}, stream {stream.halted})"
        )
    mismatched = [
        index
        for index, (a, b) in enumerate(zip(fresh.regs, stream.regs))
        if a != b
    ]
    if mismatched:
        violations.append(
            f"{len(mismatched)} registers diverged (first: r{mismatched[0]})"
        )
    if fresh.memory.digest() != ctx.core.memory_image.digest():
        violations.append("final memory image digest diverged")
    if committed_whole > steps:
        violations.append(
            f"committed {committed_whole} instructions but only {steps} were executed"
        )
    return violations


# -- evaluation --------------------------------------------------------------


def run_checks(
    ctx: AuditContext,
    names: Optional[List[str]] = None,
    label: str = "",
) -> RunAudit:
    """Evaluate registered checks against one finished run.

    A check that raises is reported as its own violation — a sanitizer
    must fail loudly, never silently.
    """
    selected = list(CHECKS) if names is None else list(names)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise KeyError(f"unknown audit checks: {unknown}")
    outcomes: List[CheckResult] = []
    for name in selected:
        try:
            violations = CHECKS[name](ctx)
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            violations = [f"check raised {type(exc).__name__}: {exc}"]
        outcomes.append(CheckResult(name=name, violations=violations))
    return RunAudit(label=label, checks=outcomes)
