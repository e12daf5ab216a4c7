"""Differential equivalence and laws for the slice-based vector engine.

The slice engine must be *bit-identical* to the reference executor
(``tests/oracles/vector_reference.py``) when chaining is off — same
end-to-end cycle counts, same counter books (including the
``vr.engine.*`` family), same golden trace digests — over the
workload x technique matrix. On top of that, chained mode must obey
its own laws: no copy issues before its operands are ready, no cycle
issues more copies than ``subthread_issue_width``, and the engine's
accounting books always balance (the ``vector.*`` audit checks).

The fused hot paths the engine and the cores share are pinned to the
unfused sequences they replace: ``prefetch_ready`` (gathers and the L1
stride prefetcher), ``store``, ``Instruction.is_load`` and the VR/DVR
commit hooks' inlined shadow update.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.checks import CHECKS, AuditContext
from repro.config import MemoryConfig, RunaheadConfig, SimConfig
from repro.core.functional import FunctionalCore
from repro.core.ooo import OoOCore
from repro.errors import ConfigError
from repro.experiments.spec import apply_override
from repro.isa import ProgramBuilder
from repro.isa.instructions import LOADS, Instruction, Opcode
from repro.memory import MemoryHierarchy, MemoryImage
from repro.observability.probes import Observability
from repro.prefetch.stride import StridePrefetcher
from repro.runahead.reconvergence import ReconvergenceStack
from repro.runahead.shadow import ShadowState
from repro.runahead.vector_engine import ENGINE_COUNTER_KEYS, VectorChainRun
from repro.techniques import make_technique
from repro.workloads.registry import build_workload

from conftest import build_indirect_kernel, quick_config
from oracles.vector_reference import ReferenceVectorChainRun, use_reference_engine

WORKLOADS = ("camel", "nas_is")
TECHNIQUES = ("vr", "dvr", "dvr-offload", "dvr-noreconv")
LIMIT = 2000

#: The product engine and its oracle, by the names the tests use.
ENGINES = {"slice": VectorChainRun, "reference": ReferenceVectorChainRun}


# -- full-simulation differential matrix --------------------------------------


def _run_full(workload_name: str, technique_name: str, engine: str, **overrides):
    wl = build_workload(workload_name)
    cfg = SimConfig()
    cfg = cfg.with_runahead(
        replace(cfg.runahead, vector_chaining=False, **overrides)
    )
    with pytest.MonkeyPatch.context() as mp:
        if engine == "reference":
            use_reference_engine(mp)
        core = OoOCore(
            wl.program,
            wl.memory,
            cfg,
            technique=make_technique(technique_name, cfg),
            workload_name=workload_name,
            observability=Observability(trace=True),
        )
        return core.run(max_instructions=LIMIT)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_slice_engine_matches_reference(workload, technique):
    """Chaining-off slice engine == reference executor, bit for bit."""
    ref = _run_full(workload, technique, "reference")
    new = _run_full(workload, technique, "slice")
    assert new.cycles == ref.cycles
    assert new.instructions == ref.instructions
    assert ref.trace_digest is not None
    assert new.trace_digest == ref.trace_digest
    assert new.trace_events == ref.trace_events
    assert dict(new.counters) == dict(ref.counters)
    # Both runs publish the complete vr.engine.* book.
    for key in ENGINE_COUNTER_KEYS:
        assert f"vr.engine.{key}" in new.counters


@pytest.mark.parametrize("technique", ("vr", "dvr"))
def test_engine_counters_conserve_in_full_runs(technique):
    result = _run_full("camel", technique, "slice")
    get = result.counters.get
    assert get("vr.engine.lanes.total") == get("vr.engine.lanes.completed") + get(
        "vr.engine.lanes.invalidated"
    )
    assert get("vr.engine.copies") == get("vr.engine.copies.scalar") + get(
        "vr.engine.slices"
    )
    assert get("vr.engine.copies.scalar") == get("vr.engine.instructions.scalar")
    assert get("vr.engine.instructions") == (
        get("vr.engine.instructions.scalar")
        + get("vr.engine.instructions.vector")
        + get("vr.engine.instructions.no_issue")
    )
    assert get("vr.engine.slices") >= get("vr.engine.instructions.vector")


# -- the chaining knob actually does something --------------------------------


def _run_chained(issue_width: int):
    wl = build_workload("camel")
    cfg = SimConfig()
    cfg = cfg.with_runahead(
        replace(
            cfg.runahead,
            vector_chaining=True,
            subthread_issue_width=issue_width,
        )
    )
    core = OoOCore(
        wl.program,
        wl.memory,
        cfg,
        technique=make_technique("dvr", cfg),
        workload_name="camel",
    )
    return core.run(max_instructions=LIMIT)


def test_issue_width_knob_changes_timing():
    """``subthread_issue_width`` is a live throughput limit, not a dead
    config field: narrowing the issue port must cost cycles."""
    narrow = _run_chained(1)
    wide = _run_chained(8)
    assert narrow.cycles != wide.cycles
    assert narrow.cycles > wide.cycles
    assert narrow.counters.get("vr.engine.chain_stalls", 0) > 0


def test_chaining_beats_serialized_issue():
    chained = _run_chained(8)
    serialized = _run_full("camel", "dvr", "slice")
    assert chained.cycles < serialized.cycles


# -- config validation --------------------------------------------------------


def test_unknown_vector_engine_rejected():
    """The retired engine knob accepts only its legacy wire value."""
    for engine in ("hyperthreaded", "reference"):
        doc = SimConfig().to_dict()
        doc["runahead"]["vector_engine"] = engine
        with pytest.raises(ConfigError):
            SimConfig.from_dict(doc)
    for engine in ("slice", "reference"):
        with pytest.raises(ConfigError):
            apply_override(SimConfig(), "runahead.vector_engine", engine)


def test_nonpositive_issue_width_rejected():
    with pytest.raises(ConfigError):
        RunaheadConfig(subthread_issue_width=0)


def test_nonpositive_vector_width_rejected():
    with pytest.raises(ConfigError):
        RunaheadConfig(vector_width=0)


def test_engine_ctor_rejects_unknown_engine():
    """``engine=`` is retired: the slice engine is the only executor."""
    mem = MemoryImage()
    seg = mem.allocate("A", list(range(16)))
    hierarchy = MemoryHierarchy(MemoryConfig.scaled())
    builder = ProgramBuilder()
    builder.halt()
    program = builder.build()
    with pytest.raises(TypeError):
        VectorChainRun(
            program,
            mem,
            hierarchy,
            [0] * 32,
            start_pc=0,
            lane_addresses=[seg.base],
            start_cycle=0,
            engine="warp",
        )


# -- direct-engine fixtures ---------------------------------------------------


def chain_setup(n=512, seed=1):
    """A[i] striding -> B[A[i]] indirect, as static code."""
    rng = np.random.default_rng(seed)
    mem = MemoryImage()
    a = mem.allocate("A", rng.integers(0, n, n))
    bseg = mem.allocate("B", rng.integers(0, 1 << 20, n))
    b = ProgramBuilder()
    b.label("loop")
    b.load("r4", "r3")
    b.shli("r5", "r4", 3)
    b.add("r5", "r6", "r5")
    b.load("r7", "r5")
    b.addi("r3", "r3", 8)
    b.jmp("loop")
    program = b.build()
    hierarchy = MemoryHierarchy(MemoryConfig.scaled())
    regs = [0] * 32
    regs[3] = a.base
    regs[6] = bseg.base
    return program, mem, hierarchy, regs, a, bseg


def make_run(program, mem, hierarchy, regs, lane_addresses, engine="slice", **kwargs):
    defaults = dict(
        start_pc=0,
        start_cycle=0,
        end_pc=3,
        execute_end_pc=True,
        stop_pcs=(0,),
        vector_width=8,
        timeout=200,
    )
    defaults.update(kwargs)
    return ENGINES[engine](
        program, mem, hierarchy, regs, lane_addresses=lane_addresses, **defaults
    )


def _engine_laws(run):
    stats = run.engine_stats()
    assert stats["copies"] == stats["copies.scalar"] + stats["slices"]
    assert stats["copies.scalar"] == stats["instructions.scalar"]
    assert stats["instructions"] == (
        stats["instructions.scalar"]
        + stats["instructions.vector"]
        + stats["instructions.no_issue"]
    )
    assert stats["slices"] >= stats["instructions.vector"]
    assert stats["lanes.total"] == stats["lanes.completed"] + stats["lanes.invalidated"]


# -- hypothesis: chaining laws and compat equality ----------------------------


@given(
    seed=st.integers(0, 500),
    lanes=st.integers(1, 16),
    width=st.integers(1, 8),
    issue_width=st.integers(1, 4),
    chaining=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_issue_respects_readiness_and_bandwidth(
    seed, lanes, width, issue_width, chaining
):
    """Per issued copy: issue >= operand readiness; per cycle: at most
    ``issue_width`` copies (exactly one when chaining is off)."""
    program, mem, hierarchy, regs, a, _ = chain_setup(seed=seed)
    lane_addresses = [a.base + 8 * (l + 1) for l in range(lanes)]
    run = make_run(
        program,
        mem,
        hierarchy,
        regs,
        lane_addresses,
        vector_width=width,
        chaining=chaining,
        issue_width=issue_width,
        record_issue_log=True,
    )
    run.run_to_completion()
    assert run.finished
    assert run.issue_log, "the chain must issue at least the trigger gather"
    assert len(run.issue_log) == run.copies_issued
    for ready, issue in run.issue_log:
        assert issue >= ready
    per_cycle = Counter(issue for _, issue in run.issue_log)
    cap = issue_width if chaining else 1
    assert max(per_cycle.values()) <= cap
    _engine_laws(run)


@given(seed=st.integers(0, 500), lanes=st.integers(1, 16), width=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_compat_slice_equals_reference(seed, lanes, width):
    """Chaining-off slice engine == reference on random chains: same
    timing, same engine book, same hierarchy effects."""
    runs = {}
    for engine in ("slice", "reference"):
        program, mem, hierarchy, regs, a, _ = chain_setup(seed=seed)
        lane_addresses = [a.base + 8 * (l + 1) for l in range(lanes)]
        run = make_run(
            program,
            mem,
            hierarchy,
            regs,
            lane_addresses,
            vector_width=width,
            chaining=False,
            engine=engine,
        )
        run.run_to_completion()
        runs[engine] = (run, hierarchy)
    slice_run, h1 = runs["slice"]
    ref_run, h2 = runs["reference"]
    assert slice_run.finish_time == ref_run.finish_time
    assert slice_run.engine_stats() == ref_run.engine_stats()
    assert (h1.l1.hits, h1.l1.misses) == (h2.l1.hits, h2.l1.misses)
    assert h1.stats.prefetch_outcomes == h2.stats.prefetch_outcomes
    assert h1.mshrs.merged_requests == h2.mshrs.merged_requests
    _engine_laws(slice_run)


@given(seed=st.integers(0, 500), issue_width=st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_chained_never_slower_than_serialized(seed, issue_width):
    """Chaining can only remove serialization, never add stalls."""
    results = {}
    for chaining in (False, True):
        program, mem, hierarchy, regs, a, _ = chain_setup(seed=seed)
        lane_addresses = [a.base + 8 * (l + 1) for l in range(16)]
        run = make_run(
            program,
            mem,
            hierarchy,
            regs,
            lane_addresses,
            chaining=chaining,
            issue_width=issue_width,
        )
        run.run_to_completion()
        results[chaining] = run.finish_time
    assert results[True] <= results[False]


# -- regression: scalar_run carry-over across reconvergence pops --------------


def _divergent_two_path_setup():
    """Alternating flags diverge the lanes; each path has a long scalar
    prefix before its load, sized so the FLR-less exhaustion budget only
    admits the second path's load if the counter resets on the pop."""
    mem = MemoryImage()
    a = mem.allocate("A", [l % 2 for l in range(64)])
    w = mem.allocate("W", list(range(64)))
    c = mem.allocate("C", list(range(64)))
    b = ProgramBuilder()
    b.load("r4", "r3")          # 0: flags gather (trigger)
    b.bnz("r4", "odd")          # 1
    for _ in range(6):
        b.addi("r5", "r5", 1)   # even path: 6-instruction scalar prefix
    b.load("r7", "r10")         # ... then a prefetchable load (W)
    b.halt()
    b.label("odd")
    for _ in range(6):
        b.addi("r6", "r6", 1)   # odd path: same-shape scalar prefix
    b.load("r8", "r11")         # ... then a prefetchable load (C)
    b.halt()
    program = b.build()
    hierarchy = MemoryHierarchy(MemoryConfig.scaled())
    regs = [0] * 32
    regs[3] = a.base
    regs[10] = w.base
    regs[11] = c.base
    return program, mem, hierarchy, regs, a


@pytest.mark.parametrize("engine", ("slice", "reference"))
def test_scalar_run_resets_on_reconvergence_pop(engine):
    """The FLR-less scalar-run budget tracks the current path only.

    Before the fix the counter leaked across reconvergence pops, so the
    popped path inherited the first path's scalar prefix and hit
    ``max_scalar_run`` before reaching its own load — silently dropping
    its prefetch."""
    program, mem, hierarchy, regs, a = _divergent_two_path_setup()
    lanes = [a.base + 8 * (l + 1) for l in range(8)]
    run = make_run(
        program,
        mem,
        hierarchy,
        regs,
        lanes,
        end_pc=None,
        reconvergence=ReconvergenceStack(8),
        max_scalar_run=8,
        chaining=False,
        engine=engine,
    )
    run.run_to_completion()
    # 8 trigger-gather lanes + one scalar load per control-flow path.
    assert run.prefetches == 8 + 2
    _engine_laws(run)


# -- regression: secondary-stride copy accounting -----------------------------


@pytest.mark.parametrize("engine", ("slice", "reference"))
def test_secondary_stride_invalid_base_still_counts_copy(engine):
    """A secondary striding load with an unknown base register still
    issues (and books) its copy — before the fix that path returned
    without counting, leaking a copy from the conservation law."""
    mem = MemoryImage()
    a = mem.allocate("A", list(range(64)))
    b = ProgramBuilder()
    b.load("r4", "r3")   # 0: trigger
    b.load("r5", "r10")  # 1: secondary striding load, r10 unknown
    b.halt()
    program = b.build()
    hierarchy = MemoryHierarchy(MemoryConfig.scaled())
    regs = [0] * 32
    regs[3] = a.base
    regs[10] = None
    run = make_run(
        program,
        mem,
        hierarchy,
        regs,
        [a.base + 8 * (l + 1) for l in range(4)],
        end_pc=None,
        stride_map={1: 8},
        chaining=False,
        engine=engine,
    )
    run.run_to_completion()
    stats = run.engine_stats()
    assert stats["instructions.scalar"] == 1  # the degraded secondary load
    assert stats["copies.scalar"] == 1
    _engine_laws(run)


# -- the fused prefetch path is the unfused sequence --------------------------


def _unfused_prefetch(h, addr, cycle, source):
    t = cycle
    if h.load_needs_mshr(addr, t) and not h.mshr_available(t):
        t = max(t, h.mshr_next_free(t))
    return h.access(addr, t, source=source, prefetch=True).ready


def test_prefetch_ready_matches_unfused_sequence():
    rng = np.random.default_rng(7)
    fused = MemoryHierarchy(MemoryConfig.scaled())
    unfused = MemoryHierarchy(MemoryConfig.scaled())
    cycle = 0
    for _ in range(400):
        addr = int(rng.integers(0, 1 << 14)) * 8
        cycle += int(rng.integers(0, 3))
        a = fused.prefetch_ready(addr, cycle, "runahead")
        b = _unfused_prefetch(unfused, addr, cycle, "runahead")
        assert a == b
    assert (fused.l1.hits, fused.l1.misses) == (unfused.l1.hits, unfused.l1.misses)
    assert fused.stats.prefetch_outcomes == unfused.stats.prefetch_outcomes
    assert fused.stats.prefetch_already_cached == unfused.stats.prefetch_already_cached
    assert fused.stats.mshr_merge_hits == unfused.stats.mshr_merge_hits
    assert fused.mshrs.merged_requests == unfused.mshrs.merged_requests
    assert fused.mshrs.total_allocations == unfused.mshrs.total_allocations
    assert fused._prefetched_lines == unfused._prefetched_lines


# -- the other fused hot paths are their unfused sequences --------------------


def _mirrored_hierarchies(tlb: bool):
    cfg = MemoryConfig.scaled()
    if tlb:
        cfg = replace(cfg, tlb=replace(cfg.tlb, enable=True))
    return MemoryHierarchy(cfg), MemoryHierarchy(cfg)


def _assert_same_hierarchy(a, b):
    """Every cache line (in LRU order), counter, MSHR and TLB book agrees."""
    for level in ("l1", "l2", "l3"):
        ca, cb = getattr(a, level), getattr(b, level)
        assert (ca.hits, ca.misses, ca.evictions) == (cb.hits, cb.misses, cb.evictions)
        # Stats-neutral presence checks may leave empty sets behind.
        assert {i: list(s.items()) for i, s in ca._sets.items() if s} == {
            i: list(s.items()) for i, s in cb._sets.items() if s
        }
    assert a.stats == b.stats
    assert a._prefetched_lines == b._prefetched_lines
    assert a.mshrs.inflight() == b.mshrs.inflight()
    for name in ("total_allocations", "merged_requests", "rejected_requests",
                 "peak_occupancy", "occupancy_integral"):
        assert getattr(a.mshrs, name) == getattr(b.mshrs, name), name
    assert (a.dram.total_accesses, a.dram.contended_accesses) == (
        b.dram.total_accesses, b.dram.contended_accesses
    )
    if a.tlb is not None:
        assert a.tlb.counters() == b.tlb.counters()


@pytest.mark.parametrize("tlb", (False, True), ids=("untranslated", "tlb"))
def test_store_matches_unfused_write_access(tlb):
    rng = np.random.default_rng(11)
    fused, unfused = _mirrored_hierarchies(tlb)
    cycle = 0
    stores = 0
    for _ in range(1500):
        # A 64 KiB window: twice the L1, so stores both hit and miss.
        addr = int(rng.integers(0, 1 << 13)) * 8
        cycle += int(rng.integers(0, 4))
        if rng.random() < 0.5:
            stores += 1
            assert fused.store(addr, cycle) is None
            unfused.access(addr, cycle, source="main", write=True)
        else:
            assert fused.access(addr, cycle) == unfused.access(addr, cycle)
    assert stores and fused.l1.hits and fused.l1.misses
    _assert_same_hierarchy(fused, unfused)


@pytest.mark.parametrize("tlb", (False, True), ids=("untranslated", "tlb"))
def test_stride_prefetches_match_unfused_access(tlb):
    """With an MSHR free, prefetch_ready is access(prefetch=True)."""
    rng = np.random.default_rng(12)
    fused, unfused = _mirrored_hierarchies(tlb)
    unfused.prefetch_ready = lambda addr, cycle, source: unfused.access(
        addr, cycle, source=source, prefetch=True
    ).ready
    fused_pf = StridePrefetcher(streams=4, degree=3)
    unfused_pf = StridePrefetcher(streams=4, degree=3)
    # Six striding load PCs over a 256 KiB window, interleaved, with
    # occasional stride breaks: confident streams prefetch, and enough
    # misses are in flight that the MSHR gate stops some of them.
    bases = [int(rng.integers(0, 1 << 15)) * 8 for _ in range(6)]
    strides = [int(rng.choice([8, 64, 72, 128, -64, 512])) for _ in range(6)]
    cycle = 0
    gated = 0
    for step in range(3000):
        pc = int(rng.integers(0, 6))
        bases[pc] += strides[pc] if rng.random() < 0.9 else 8 * int(rng.integers(1, 100))
        addr = bases[pc] % (1 << 18)
        cycle += int(rng.integers(0, 3))
        start_a, *result_a = fused.demand_load(addr, cycle)
        start_b, *result_b = unfused.demand_load(addr, cycle)
        assert (start_a, result_a) == (start_b, result_b), step
        # Purging is observable (cycles are not monotone), so both sides
        # query the gate alike.
        gated += not fused.mshr_available(start_a)
        unfused.mshr_available(start_b)
        fused_pf.on_demand_load(pc, addr, start_a, fused)
        unfused_pf.on_demand_load(pc, addr, start_b, unfused)
    assert fused_pf.issued == unfused_pf.issued > 0
    assert gated
    assert fused.stats.prefetches_by_source["prefetcher"] == fused_pf.issued
    _assert_same_hierarchy(fused, unfused)


def test_is_load_matches_the_loads_set():
    for opcode in Opcode:
        assert Instruction(opcode).is_load == (opcode in LOADS), opcode


@pytest.mark.parametrize("technique", ("vr", "dvr"))
def test_commit_hooks_keep_the_shadow_state_update_keeps(technique):
    """VR/DVR inline ShadowState.update in on_commit; both keep the same state."""
    program, mem = build_indirect_kernel(n=512)
    cfg = quick_config(3000)
    hooked = make_technique(technique, cfg)
    OoOCore(program, mem, cfg, technique=hooked)  # attaches the technique
    functional = FunctionalCore(program, mem)
    reference = ShadowState()
    rng = np.random.default_rng(13)
    cycle = 0
    for _ in range(3000):
        dyn = functional.step()
        if dyn is None:
            break
        cycle += int(rng.integers(0, 3))
        # complete == 0 means "not given": availability falls back to commit.
        complete = int(rng.integers(1, cycle + 2)) if rng.random() < 0.8 else 0
        hooked.on_commit(
            dyn.pc, dyn.value, dyn.addr, dyn.next_pc, cycle, complete
        )
        reference.update(dyn.instr.rd, dyn.value, dyn.next_pc, cycle, complete)
        shadow = hooked.shadow
        assert shadow.regs == reference.regs
        assert shadow.avail == reference.avail
        assert (shadow.next_pc, shadow.last_commit_cycle) == (
            reference.next_pc, reference.last_commit_cycle
        )


# -- audit checks -------------------------------------------------------------


class _FakeResult:
    def __init__(self, counters):
        self.counters = counters
        self.cycles = 1
        self.cycle_buckets = {}


def _audit(counters):
    return AuditContext(core=None, result=_FakeResult(counters))


def test_lane_conservation_check_passes_and_fails():
    check = CHECKS["vector.lane-conservation"]
    good = {
        "vr.engine.lanes.total": 10,
        "vr.engine.lanes.completed": 7,
        "vr.engine.lanes.invalidated": 3,
    }
    assert check(_audit(good)) == []
    bad = dict(good, **{"vr.engine.lanes.invalidated": 2})
    assert check(_audit(bad))
    # Vacuous pass when no vector engine ran.
    assert check(_audit({})) == []


def test_copy_conservation_check_passes_and_fails():
    check = CHECKS["vector.copy-conservation"]
    good = {
        "vr.engine.copies": 12,
        "vr.engine.copies.scalar": 4,
        "vr.engine.slices": 8,
        "vr.engine.instructions": 9,
        "vr.engine.instructions.scalar": 4,
        "vr.engine.instructions.vector": 4,
        "vr.engine.instructions.no_issue": 1,
    }
    assert check(_audit(good)) == []
    for key, broken in (
        ("vr.engine.copies", 13),
        ("vr.engine.copies.scalar", 5),
        ("vr.engine.instructions", 10),
        ("vr.engine.slices", 3),
    ):
        assert check(_audit(dict(good, **{key: broken}))), key
    assert check(_audit({})) == []


def test_vector_checks_pass_on_live_runs():
    result = _run_full("nas_is", "dvr", "slice")
    ctx = _audit(dict(result.counters))
    assert CHECKS["vector.lane-conservation"](ctx) == []
    assert CHECKS["vector.copy-conservation"](ctx) == []
