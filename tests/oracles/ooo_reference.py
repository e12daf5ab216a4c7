"""The original OoO timing loop, kept as the executable specification.

:func:`run_reference` is the loop ``OoOCore.run`` was restructured from,
unchanged apart from taking the core as an argument: per-PC decoded
arrays, one ``DynInstr`` per step from its own
``FunctionalCore.step_reference`` (stores write the image at fetch; it
shares nothing with the product's column stream), its own live
TAGE-lite predictor and L1 stride prefetcher built from the core's
config and called per branch and per load (the product kernel reads
both as front-end columns), dict-keyed functional-unit books, and every
technique hook at the same point as the product kernel — called
unconditionally, with the hooks' plain-value signatures. The
differential suites (``tests/test_ooo_event_kernel.py``,
``tests/test_hook_protocol.py``, ``tests/test_oracle_fuzz.py``) pin
``OoOCore.run`` against it: the same cycles, instructions, counters
and trace digests. Only the
``core.sched.*`` family differs, because this loop publishes none.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional

from repro.core.functional import FunctionalCore
from repro.core.ooo import _MEM_BUCKETS, OoOCore, SimulationResult, publish_core_counters
from repro.errors import SimulationError
from repro.frontend.branch_predictor import TageLitePredictor
from repro.isa.instructions import NUM_REGS
from repro.isa.predecode import (
    FU_DIV as _FU_DIV,
    FU_FADD as _FU_FADD,
    FU_FDIV as _FU_FDIV,
    FU_FMUL as _FU_FMUL,
    FU_INT as _FU_INT,
    FU_MEM as _FU_MEM,
    FU_MUL as _FU_MUL,
    K_ALU,
    K_BEZ,
    K_BNZ,
    K_LOAD,
    K_PREFETCH,
    K_STORE,
)
from repro.memory.hierarchy import LEVEL_DRAM, LEVEL_MSHR
from repro.observability.counters import CounterRegistry
from repro.observability.trace import EV_COMPLETE, EV_FETCH, EV_ISSUE, EV_RETIRE
from repro.prefetch.stride import StridePrefetcher

from . import issue_stride_prefetches


def run_reference(
    core: OoOCore, max_instructions: Optional[int] = None
) -> SimulationResult:
    """Run ``core`` through the reference loop (instead of ``core.run``).

    Bit-identical to ``OoOCore.run`` and an order of magnitude slower:
    the trusted baseline when a change to the product kernel needs one.
    """
    if core._ran:
        raise SimulationError("an OoOCore instance can only run once")
    core._ran = True
    cfg = core.config.core
    limit = max_instructions or core.config.max_instructions
    width = cfg.width
    fe_depth = cfg.frontend_stages
    rob_size = cfg.rob_size
    iq_size = cfg.iq_size
    lq_size = cfg.lq_size
    sq_size = cfg.sq_size

    # Port bandwidth: issue is out of order, so a port unused at cycle
    # X is free at X regardless of processing order. We count issues
    # per (class, cycle) and linearly probe for a free slot.
    fu_units: Dict[str, int] = {
        _FU_INT: cfg.int_alu_units,
        _FU_MUL: cfg.int_mul_units,
        _FU_DIV: cfg.int_div_units,
        _FU_FADD: cfg.fp_add_units,
        _FU_FMUL: cfg.fp_mul_units,
        _FU_FDIV: cfg.fp_div_units,
        _FU_MEM: cfg.mem_ports,
    }
    fu_busy: Dict[str, Dict[int, int]] = {cls: {} for cls in fu_units}
    fu_latency = {
        _FU_INT: cfg.int_alu_latency,
        _FU_MUL: cfg.int_mul_latency,
        _FU_DIV: cfg.int_div_latency,
        _FU_FADD: cfg.fp_add_latency,
        _FU_FMUL: cfg.fp_mul_latency,
        _FU_FDIV: cfg.fp_div_latency,
    }

    fetch_ring = [0] * width
    commit_ring = [0] * width
    rob_commit_ring = [0] * rob_size
    # blame ring: (complete_cycle, was_memory_miss) of the would-be head
    rob_blame_ring = [(0, False, -1)] * rob_size
    # The IQ and LQ free entries out of order: an entry is available
    # once *any* occupant leaves. We track the ``size`` largest
    # leave-times in a min-heap; its minimum is the cycle at which the
    # next slot frees (an order-statistic, not a FIFO ring).
    iq_heap: list = []
    lq_heap: list = []
    sq_ring = [0] * sq_size
    reg_ready = [0] * NUM_REGS

    technique = core.technique
    hierarchy = core.hierarchy
    config = core.config
    predictor = TageLitePredictor(config.branch)
    stride_pf = None
    if config.stride_prefetcher_enabled:
        stride_pf = StridePrefetcher(streams=config.stride_prefetcher_streams)
    stride_degree = config.stride_prefetcher_degree

    # Pre-decoded per-PC arrays and hoisted bound methods: the loop
    # below runs once per dynamic instruction, so every attribute
    # lookup and Opcode-enum comparison it avoids is paid millions
    # of times over a long run.
    decoded = core.decoded
    kinds = decoded.kinds
    fu_classes = decoded.fu_classes
    op_values = decoded.op_values
    rd_of = decoded.rd
    rs1_of = decoded.rs1
    rs2_of = decoded.rs2
    functional_step = FunctionalCore(core.program, core.memory_image).step_reference
    mshr_available = hierarchy.mshr_available
    load_needs_mshr = hierarchy.load_needs_mshr
    hierarchy_access = hierarchy.access
    is_mapped = core.memory_image.is_mapped
    predict = predictor.predict
    predictor_update = predictor.update
    technique_on_commit = technique.on_commit
    trace_limit = core.trace_limit

    next_fetch = 0
    prev_commit = 0
    stores_seen = 0
    full_rob_stall_cycles = 0
    stall_episodes = 0
    commit_block_cycles = 0
    stall_handled_until = 0
    stall_covered_until = 0
    last_miss_complete = 0
    last_redirect_cycle = -1
    cpi_buckets: Dict[str, int] = {}
    warmup = max(0, core.config.warmup_instructions)
    base = None
    i = 0

    # Observability: event tracing and profiling hooks are opt-in;
    # with neither attached the loop pays two predicate tests per
    # instruction and nothing more.
    obs = core.observability
    event_trace = obs.trace if obs is not None else None
    fire_hooks = obs is not None and obs.has_hooks

    def publish_live(registry: CounterRegistry) -> None:
        # Raw running aggregates, at hook instants, at the warm-up
        # instant and at the end (the shared epilogue scopes them).
        publish_core_counters(
            registry,
            cycles=max(1, prev_commit),
            fetched=i,
            committed=i,
            full_stall=full_rob_stall_cycles,
            episodes=stall_episodes,
            commit_blocked=commit_block_cycles,
            predictions=predictor.predictions,
            mispredictions=predictor.mispredictions,
            buckets=cpi_buckets,
        )
        hierarchy.publish_counters(registry)
        technique.publish_counters(registry)

    while i < limit:
        dyn = functional_step()
        if dyn is None:
            break
        pc = dyn.pc
        kind = kinds[pc]

        # ---- fetch ----
        fetch = next_fetch
        if technique.fetch_blocked_until > fetch:
            fetch = technique.fetch_blocked_until
        if i >= width:
            prior = fetch_ring[i % width] + 1
            if prior > fetch:
                fetch = prior
        fetch_ring[i % width] = fetch

        # ---- dispatch (rename + queue allocation) ----
        dispatch = fetch + fe_depth
        backend_constraint = 0
        head_pc = -1
        head_was_miss = False
        if len(iq_heap) >= iq_size and iq_heap[0] > backend_constraint:
            backend_constraint = iq_heap[0]
        if kind == K_LOAD and len(lq_heap) >= lq_size and lq_heap[0] > backend_constraint:
            backend_constraint = lq_heap[0]
        if kind == K_STORE and stores_seen >= sq_size:
            constraint = sq_ring[stores_seen % sq_size]
            if constraint > backend_constraint:
                backend_constraint = constraint
        if i >= rob_size:
            rob_constraint = rob_commit_ring[i % rob_size]
            if rob_constraint > backend_constraint:
                backend_constraint = rob_constraint
            head_complete, head_was_miss, head_pc = rob_blame_ring[i % rob_size]
        if backend_constraint > dispatch:
            # Backend-full stall (full ROB, or a full IQ/LQ/SQ with the
            # same oldest-miss root cause). The wall-clock stall begins
            # where the previous stall epoch ended — dispatch has been
            # continuously blocked — not at this instruction's own
            # fetch-side readiness.
            covered_from = max(dispatch, stall_covered_until)
            if backend_constraint > covered_from:
                full_rob_stall_cycles += backend_constraint - covered_from
                stall_covered_until = backend_constraint
                # Blame memory when an outstanding demand miss spans
                # the stall window (the classic runahead trigger).
                memory_blamed = head_was_miss or (
                    last_miss_complete > covered_from
                )
                if memory_blamed and covered_from >= stall_handled_until:
                    stall_episodes += 1
                    technique.on_full_rob_stall(
                        covered_from,
                        backend_constraint,
                        head_pc if head_pc >= 0 else pc,
                    )
                    stall_handled_until = backend_constraint
            dispatch = backend_constraint

        # ---- register readiness ----
        ready = dispatch
        rs1 = rs1_of[pc]
        rs2 = rs2_of[pc]
        if rs1 is not None and reg_ready[rs1] > ready:
            ready = reg_ready[rs1]
        if rs2 is not None and reg_ready[rs2] > ready:
            ready = reg_ready[rs2]

        # ---- issue + execute ----
        fu_class = fu_classes[pc]
        busy = fu_busy[fu_class]
        capacity = fu_units[fu_class]
        issue = ready
        while busy.get(issue, 0) >= capacity:
            issue += 1
        busy[issue] = busy.get(issue, 0) + 1
        if fu_class == _FU_DIV:
            # Divides are unpipelined: occupy the unit for the full
            # latency.
            for extra in range(1, fu_latency[_FU_DIV]):
                busy[issue + extra] = busy.get(issue + extra, 0) + 1

        was_memory_miss = False
        if kind == K_LOAD:
            technique.advance_to(issue)
            addr = dyn.addr
            # The load leaves the IQ at issue; if every MSHR is busy it
            # waits in the LSQ for one to free before accessing memory.
            mem_start = issue
            if load_needs_mshr(addr, issue) and not mshr_available(issue):
                wait = hierarchy.mshr_next_free(issue)
                if wait > mem_start:
                    mem_start = wait
            result = hierarchy_access(addr, mem_start, source="main")
            complete = result.ready
            was_memory_miss = result.level in (LEVEL_DRAM, LEVEL_MSHR)
            if was_memory_miss and complete > last_miss_complete:
                last_miss_complete = complete
            if stride_pf is not None:
                issue_stride_prefetches(
                    stride_pf, pc, addr, mem_start, hierarchy, stride_degree
                )
            technique.on_demand_load(pc, addr, dyn.value, mem_start)
            heapq.heappush(lq_heap, complete)
            if len(lq_heap) > lq_size:
                heapq.heappop(lq_heap)
        elif kind == K_ALU:
            complete = issue + fu_latency[fu_class]
        elif kind == K_STORE:
            hierarchy_access(dyn.addr, issue, source="main", write=True)
            complete = issue + 1
        elif kind == K_BNZ or kind == K_BEZ:
            complete = issue + 1
            predicted = predict(pc)
            predictor_update(pc, dyn.taken, predicted)
            if predicted != dyn.taken:
                # Redirect: fetch restarts after the branch resolves.
                redirect = complete + 1
                if redirect > next_fetch:
                    next_fetch = redirect
                    last_redirect_cycle = redirect
        elif kind == K_PREFETCH:
            if (
                dyn.addr is not None
                and is_mapped(dyn.addr)
                and mshr_available(issue)
            ):
                hierarchy_access(
                    dyn.addr, issue, source="prefetcher", prefetch=True
                )
            complete = issue + 1
        else:
            # JMP / NOP / HALT
            complete = issue + 1

        # ---- in-order commit ----
        commit_floor = prev_commit
        commit = complete + 1
        if prev_commit > commit:
            commit = prev_commit
        if i >= width and commit_ring[i % width] + 1 > commit:
            commit = commit_ring[i % width] + 1
        blocked_until = technique.commit_blocked_until
        technique_blocked = False
        if blocked_until > commit:
            commit_block_cycles += blocked_until - commit
            commit = blocked_until
            technique_blocked = True
        commit_ring[i % width] = commit
        prev_commit = commit

        # ---- CPI-stack attribution (Sniper-style cycle accounting) --
        # The cycles this instruction adds at the commit point are
        # charged to the structure on its critical path.
        delta = commit - commit_floor
        if delta > 0:
            if technique_blocked:
                bucket = "runahead_block"
            elif commit == complete + 1:
                if kind == K_LOAD:
                    bucket = _MEM_BUCKETS.get(result.level, "mem_dram")
                elif fetch == last_redirect_cycle:
                    bucket = "branch"
                elif issue > ready:
                    bucket = "issue_contention"
                elif ready > dispatch:
                    bucket = "dependency"
                elif dispatch > fetch + fe_depth:
                    bucket = "backend_full"
                else:
                    bucket = "frontend"
            else:
                bucket = "commit_width"
            cpi_buckets[bucket] = cpi_buckets.get(bucket, 0) + delta

        # ---- bookkeeping for later occupancy constraints ----
        rob_commit_ring[i % rob_size] = commit
        rob_blame_ring[i % rob_size] = (complete, was_memory_miss, pc)
        heapq.heappush(iq_heap, issue)
        if len(iq_heap) > iq_size:
            heapq.heappop(iq_heap)
        if kind == K_STORE:
            sq_ring[stores_seen % sq_size] = commit
            stores_seen += 1
        rd = rd_of[pc]
        if rd is not None:
            reg_ready[rd] = complete

        if i < trace_limit:
            core.trace.append(
                (i, pc, dyn.instr.opcode.name,
                 fetch, dispatch, ready, issue, complete, commit)
            )
        if event_trace is not None:
            opv = op_values[pc]
            event_trace.emit(fetch, EV_FETCH, pc, opv)
            event_trace.emit(issue, EV_ISSUE, pc, opv)
            event_trace.emit(complete, EV_COMPLETE, pc, opv)
            event_trace.emit(commit, EV_RETIRE, pc, opv)
        technique_on_commit(
            pc, dyn.value, dyn.addr, dyn.next_pc, commit, complete
        )
        i += 1
        if fire_hooks:
            obs.maybe_fire(i, prev_commit, publish_live)
        if warmup and i == warmup:
            base = CounterRegistry()
            publish_live(base)

    return core._finalize(prev_commit, publish_live, base, event_trace)
