"""The out-of-order timing core.

A mechanistic dataflow model in the style of Sniper's core models
(Carlson et al., the simulator the paper uses): each dynamic instruction
is processed in program order and assigned fetch / dispatch / issue /
complete / commit cycles subject to

* front-end width and depth (5-wide, 15 stages),
* finite ROB / issue-queue / load-queue / store-queue occupancy,
* register dataflow (an instruction issues when its producers complete),
* functional-unit ports and latencies (Table 1),
* MSHR-limited, bandwidth-limited timed memory accesses, and
* branch misprediction redirects from a TAGE-lite predictor.

Full-ROB stalls — dispatch blocked because the instruction ``ROB-size``
ago has not committed, with a cache-missing load to blame — are detected
here and handed to the attached technique, which is how classic
runahead, PRE and Vector Runahead trigger. Decoupled techniques (DVR)
instead use the per-commit and ``advance_to`` hooks. Hooks take plain
values, and the kernel calls only those the technique's class
overrides (see ``repro.prefetch.base``).

The architectural stream arrives as columns (``repro.perf.trace``): a
memoised stream, or chunks the functional stage fills as the kernel
reaches them. The kernel reads them by index and applies each store to
the memory image at that instruction's turn. The front end is a
function of the stream: TAGE-lite's mispredictions and the L1 stride
prefetcher's confident strides are columns too
(``repro.frontend.columns``), trained once per stream and front-end
config, so the core owns no live predictor or stride table.

:meth:`OoOCore.run` is the one kernel (see docs/performance.md). Time
advances only at instruction-boundary events: the wakeup times implied
by DRAM-stall completions, MSHR reclamations, IQ/LQ frees and ROB-head
retirement fold into O(1) constraint maxes, and the hot path carries
flat array-of-int pipeline state, with no dict-of-string FU lookups and
no per-cycle ticking. The original loop it was restructured from lives
on as a test oracle (``tests/oracles/ooo_reference.py``); the
differential suites pin ``run`` against it for identical cycles,
counters and golden trace digests.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Optional

from ..config import SimConfig
from ..errors import SimulationError
from ..frontend.columns import frontend_columns
from ..isa.instructions import NUM_REGS
from ..isa.predecode import (
    FU_FADD,
    FU_FDIV,
    FU_FMUL,
    FU_INT,
    FU_MEM,
    FU_MUL,
    FU_DIV,
    K_ALU,
    K_BEZ,
    K_BNZ,
    K_LOAD,
    K_PREFETCH,
    K_STORE,
)
from ..isa.program import Program
from ..memory.hierarchy import LEVEL_DRAM, LEVEL_MSHR, MemoryHierarchy
from ..memory.memory_image import MemoryImage
from ..observability.counters import CounterRegistry
from ..observability.probes import Observability
from ..observability.trace import (
    EV_COMPLETE,
    EV_FETCH,
    EV_ISSUE,
    EV_RETIRE,
)
from ..perf.trace import ArchTrace
from ..prefetch.base import NullTechnique, Technique, kernel_hooks
from ..result import SimulationResult  # noqa: F401 (re-exported: its old home)
from .functional import FunctionalCore


# Dense integer codes for the FU classes (canonical names live with the
# pre-decoder): the kernel indexes flat lists instead of hashing
# class-name strings per instruction.
_FU_ORDER = (FU_INT, FU_MUL, FU_DIV, FU_FADD, FU_FMUL, FU_FDIV, FU_MEM)
_FU_INDEX = {name: idx for idx, name in enumerate(_FU_ORDER)}
_CLS_DIV = _FU_INDEX[FU_DIV]

# CPI-stack buckets for loads, by hierarchy service level.
_MEM_BUCKETS = {
    "L1": "mem_l1",
    "MSHR": "mem_dram",
    "L2": "mem_l2",
    "L3": "mem_l3",
    "DRAM": "mem_dram",
}

def publish_core_counters(
    registry: CounterRegistry,
    *,
    cycles: int,
    fetched: int,
    committed: int,
    full_stall: int,
    episodes: int,
    commit_blocked: int,
    predictions: int,
    mispredictions: int,
    buckets: Dict[str, int],
) -> None:
    """Publish the ``core.*`` counter family."""
    registry.set("core.cycles", cycles)
    registry.set("core.fetch.instructions", fetched)
    registry.set("core.commit.instructions", committed)
    registry.set("core.stall.full_rob_cycles", full_stall)
    registry.set("core.stall.episodes", episodes)
    registry.set("core.stall.commit_block_cycles", commit_blocked)
    registry.set("core.branch.predictions", predictions)
    registry.set("core.branch.mispredictions", mispredictions)
    for bucket, value in buckets.items():
        registry.set(f"core.cpi_stack.{bucket}", value)


#: Counters the ROI rule does not subtract: the mean MSHR occupancy is
#: swept over the ROI window itself, and a high-water mark has no delta
#: (it stays whole-run).
ROI_GAUGES = ("mem.mshr.mean_occupancy", "mem.mshr.peak_occupancy")

class OoOCore:
    """Drives one program through the timing model with one technique."""

    def __init__(
        self,
        program: Program,
        memory_image: MemoryImage,
        config: Optional[SimConfig] = None,
        technique: Optional[Technique] = None,
        workload_name: str = "workload",
        trace_limit: int = 0,
        observability: Optional[Observability] = None,
        stream: Optional[ArchTrace] = None,
    ) -> None:
        self.config = config or SimConfig()
        self.program = program
        self.decoded = program.decoded()
        self.memory_image = memory_image
        self.technique = technique or NullTechnique()
        self.workload_name = workload_name
        self.hierarchy = MemoryHierarchy(
            self.config.memory,
            ideal=self.technique.wants_ideal_memory,
            tlb_policy=self.config.runahead.tlb_policy,
        )
        #: The architectural stream :meth:`run` reads. A memoised
        #: (non-empty) stream is replayed as is; an empty one is filled
        #: by the run's own functional stage as the kernel reaches each
        #: chunk, and keeps its chunks (the runner memoises it). Without
        #: one the core fills a private stream and drops each chunk once
        #: consumed, so the run's stream memory is one chunk.
        self.stream = stream if stream is not None else ArchTrace()
        self._keep_chunks = stream is not None
        #: Opt-in event tracing and profiling hooks; counters are
        #: published into it (or into a fresh registry) at run end
        #: regardless. Must be set before attach() so techniques can
        #: bind the trace.
        self.observability = observability
        self.technique.attach(self)
        self._ran = False
        #: When trace_limit > 0, per-instruction pipeline timestamps for
        #: the first N instructions: (seq, pc, op, fetch, dispatch, ready,
        #: issue, complete, commit). A debugging/teaching aid.
        self.trace_limit = trace_limit
        self.trace: list = []
        #: The counter snapshot taken at the warm-up instant when the
        #: run's books are scoped to an ROI (see :meth:`_finalize`).
        self.warmup_base: Optional[Dict[str, float]] = None

    # -- the timing kernel -----------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> SimulationResult:
        """Simulate up to ``max_instructions`` (default: the config's).

        The architectural stream is read from :attr:`stream`'s columns,
        and every technique hook the technique overrides fires where the
        reference loop fires it: the differential suites pin this kernel
        against ``tests/oracles/ooo_reference.py`` for identical cycles,
        counters and trace digests.
        """
        if self._ran:
            raise SimulationError("an OoOCore instance can only run once")
        self._ran = True
        limit = max_instructions or self.config.max_instructions
        cfg = self.config.core
        width = cfg.width
        fe_depth = cfg.frontend_stages
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        # Per-class unit counts and latencies, indexed like _FU_ORDER.
        fu_caps = [
            cfg.int_alu_units,
            cfg.int_mul_units,
            cfg.int_div_units,
            cfg.fp_add_units,
            cfg.fp_mul_units,
            cfg.fp_div_units,
            cfg.mem_ports,
        ]
        fu_lats = [
            cfg.int_alu_latency,
            cfg.int_mul_latency,
            cfg.int_div_latency,
            cfg.fp_add_latency,
            cfg.fp_mul_latency,
            cfg.fp_div_latency,
            1,  # mem completion comes from the hierarchy, not this table
        ]
        fu_busy = [dict() for _ in _FU_ORDER]
        div_latency = fu_lats[_CLS_DIV]

        decoded = self.decoded
        kinds = decoded.kinds
        op_values = decoded.op_values
        instrs = decoded.instrs
        cls_of = [_FU_INDEX[name] for name in decoded.fu_classes]
        lat_of = [fu_lats[cls] for cls in cls_of]
        # -1 sentinels let register checks be one int compare instead of
        # an ``is not None`` test against a boxed optional.
        rd_of = [-1 if r is None else r for r in decoded.rd]
        rs1_of = [-1 if r is None else r for r in decoded.rs1]
        rs2_of = [-1 if r is None else r for r in decoded.rs2]

        # The stream: a memoised one is replayed as is; an empty one is
        # filled a chunk at a time by this run's own functional stage.
        stream = self.stream
        chunks = stream.chunks
        fill = (
            FunctionalCore(self.program, self.memory_image).fill
            if not chunks and not stream.halted
            else None
        )
        drop_consumed = not self._keep_chunks
        chunk_index = 0
        # The front end's columns: trained once per stream and front-end
        # config, and dropped with their chunks when those are.
        frontend = frontend_columns(stream, self.config)
        fe_column = frontend.column
        fe_columns = frontend.columns
        stride_lines = range(self.config.stride_prefetcher_degree)

        technique = self.technique
        hierarchy = self.hierarchy
        mshr_available = hierarchy.mshr_available
        prefetch_ready = hierarchy.prefetch_ready
        hierarchy_access = hierarchy.access
        hierarchy_store = hierarchy.store
        demand_load = hierarchy.demand_load
        write_word = self.memory_image.write_word
        is_mapped = self.memory_image.is_mapped
        # Hooks the technique's class leaves at the base no-op are None
        # and never called.
        hooks = kernel_hooks(technique)
        on_commit = hooks["on_commit"]
        on_demand_load = hooks["on_demand_load"]
        on_full_rob_stall = hooks["on_full_rob_stall"]
        advance_to = hooks["advance_to"]
        heappush = heapq.heappush
        heappushpop = heapq.heappushpop
        trace_limit = self.trace_limit

        # Every ring starts at a value that constrains nothing (fetch and
        # commit cycles are >= 0, the backend constraint starts at 0), so
        # the first width/ROB-size instructions need no guard.
        fetch_ring = [-1] * width
        commit_ring = [-1] * width
        rob_commit_ring = [0] * rob_size
        rob_miss_ring = [False] * rob_size
        # The would-be ROB head's pc, for the full-ROB stall hook only
        # (-1 until the ROB has filled once: the hook then gets the
        # stalled instruction's own pc, as the reference loop does).
        rob_pc_ring = [-1] * rob_size
        iq_heap: list = []
        lq_heap: list = []
        # Heap sizes tracked as ints: once a queue fills it stays full
        # (pushpop keeps the size), so the occupancy checks become one
        # int compare instead of a len() call.
        iq_count = 0
        lq_count = 0
        sq_ring = [0] * sq_size
        reg_ready = [0] * NUM_REGS

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
        predictions = 0
        mispredictions = 0
        cpi_buckets: Dict[str, int] = {}
        warmup = max(0, self.config.warmup_instructions)
        base = None
        # Scheduler accounting (``core.sched.*``): commit cycles are
        # monotone non-decreasing, so distinct retirement instants are
        # countable with one compare per instruction.
        commit_cycles = 0
        last_commit_value = 0
        retire_violations = 0
        level = None
        i = 0
        w_slot = 0  # i % width, maintained incrementally
        r_slot = 0  # i % rob_size

        obs = self.observability
        event_trace = obs.trace if obs is not None else None
        fire_hooks = obs is not None and obs.has_hooks
        recording = trace_limit > 0 or event_trace is not None

        def publish_live(registry: CounterRegistry) -> None:
            # The run's one publisher: at hook instants, at the warm-up
            # instant (the ROI base) and at the end.
            cycles = max(1, prev_commit)
            publish_core_counters(
                registry,
                cycles=cycles,
                fetched=i,
                committed=i,
                full_stall=full_rob_stall_cycles,
                episodes=stall_episodes,
                commit_blocked=commit_block_cycles,
                predictions=predictions,
                mispredictions=mispredictions,
                buckets=cpi_buckets,
            )
            # Every retired instruction is one fired event; cycles in
            # which nothing retired were skipped, not ticked through.
            registry.set("core.sched.events.fired", i)
            registry.set("core.sched.commit_cycles", commit_cycles)
            registry.set("core.sched.cycles.skipped", cycles - commit_cycles)
            registry.set("core.sched.retire_violations", retire_violations)
            hierarchy.publish_counters(registry)
            technique.publish_counters(registry)

        while i < limit:
            if chunk_index == len(chunks):
                if stream.halted:
                    break
                if fill is None:
                    raise SimulationError(
                        "architectural trace exhausted before the consumer's "
                        "instruction budget (trace keyed on a smaller limit?)"
                    )
                fill(stream, limit)
                continue
            chunk = chunks[chunk_index]
            pcs, values, addrs, _, next_pcs = chunk
            fe, fe_strides = fe_column(chunk_index, chunk, kinds)
            if drop_consumed:
                chunks[chunk_index] = None
                fe_columns[chunk_index] = None
            chunk_index += 1
            # Chunk boundary: no later instruction dispatches before the
            # commit of the instruction one ROB size earlier (commits
            # are monotone), so no later issue probe or divide
            # occupancy reaches an FU-book cycle below that commit.
            floor = rob_commit_ring[r_slot]
            for cls, busy in enumerate(fu_busy):
                if busy:
                    fu_busy[cls] = {
                        cycle: count for cycle, count in busy.items() if cycle >= floor
                    }
            end = len(pcs)
            if end > limit - i:
                end = limit - i
            for j in range(end):
                pc = pcs[j]
                kind = kinds[pc]

                # ---- fetch ----
                fetch = next_fetch
                if technique.fetch_blocked_until > fetch:
                    fetch = technique.fetch_blocked_until
                prior = fetch_ring[w_slot] + 1
                if prior > fetch:
                    fetch = prior
                fetch_ring[w_slot] = fetch

                # ---- dispatch (rename + queue allocation) ----
                dispatch = fetch + fe_depth
                backend_constraint = 0
                if iq_count >= iq_size and iq_heap[0] > backend_constraint:
                    backend_constraint = iq_heap[0]
                if kind == K_LOAD:
                    if lq_count >= lq_size and lq_heap[0] > backend_constraint:
                        backend_constraint = lq_heap[0]
                elif kind == K_STORE:
                    # The stored word reaches the image at this
                    # instruction's turn — before any hook of it runs,
                    # as when stores executed at fetch.
                    write_word(addrs[j], values[j])
                    if stores_seen >= sq_size:
                        constraint = sq_ring[stores_seen % sq_size]
                        if constraint > backend_constraint:
                            backend_constraint = constraint
                rob_constraint = rob_commit_ring[r_slot]
                if rob_constraint > backend_constraint:
                    backend_constraint = rob_constraint
                if backend_constraint > dispatch:
                    # Backend-full stall (full ROB, or a full IQ/LQ/SQ
                    # with the same oldest-miss root cause). The
                    # wall-clock stall begins where the previous stall
                    # epoch ended — dispatch has been continuously
                    # blocked — not at this instruction's own fetch-side
                    # readiness.
                    covered_from = (
                        dispatch if dispatch > stall_covered_until else stall_covered_until
                    )
                    if backend_constraint > covered_from:
                        full_rob_stall_cycles += backend_constraint - covered_from
                        stall_covered_until = backend_constraint
                        # Blame memory when an outstanding demand miss
                        # spans the stall window (the classic runahead
                        # trigger).
                        memory_blamed = rob_miss_ring[r_slot] or (
                            last_miss_complete > covered_from
                        )
                        if memory_blamed and covered_from >= stall_handled_until:
                            stall_episodes += 1
                            if on_full_rob_stall is not None:
                                head_pc = rob_pc_ring[r_slot]
                                on_full_rob_stall(
                                    covered_from,
                                    backend_constraint,
                                    head_pc if head_pc >= 0 else pc,
                                )
                            stall_handled_until = backend_constraint
                    dispatch = backend_constraint

                # ---- register readiness ----
                ready = dispatch
                rs1 = rs1_of[pc]
                if rs1 >= 0 and reg_ready[rs1] > ready:
                    ready = reg_ready[rs1]
                rs2 = rs2_of[pc]
                if rs2 >= 0 and reg_ready[rs2] > ready:
                    ready = reg_ready[rs2]

                # ---- issue + execute ----
                cls = cls_of[pc]
                busy = fu_busy[cls]
                capacity = fu_caps[cls]
                issue = ready
                count = busy.get(issue, 0)
                while count >= capacity:
                    issue += 1
                    count = busy.get(issue, 0)
                busy[issue] = count + 1
                if cls == _CLS_DIV:
                    # Divides are unpipelined: occupy the unit for the
                    # full latency.
                    for extra in range(1, div_latency):
                        busy[issue + extra] = busy.get(issue + extra, 0) + 1

                was_memory_miss = False
                if kind == K_ALU:
                    complete = issue + lat_of[pc]
                elif kind == K_LOAD:
                    if advance_to is not None:
                        advance_to(issue)
                    addr = addrs[j]
                    # The load leaves the IQ at issue; if every MSHR is
                    # busy it waits in the LSQ for one to free before
                    # accessing memory (demand_load fuses the MSHR wait
                    # and the timed access).
                    mem_start, complete, level = demand_load(addr, issue)
                    if level == LEVEL_DRAM or level == LEVEL_MSHR:
                        was_memory_miss = True
                        if complete > last_miss_complete:
                            last_miss_complete = complete
                    code = fe[j]
                    if code:
                        # The L1 stride prefetcher is confident in this
                        # load's stream: prefetch up to ``degree`` lines
                        # ahead while an MSHR is free at the access's
                        # start.
                        stride = fe_strides[code]
                        target = addr
                        for _ in stride_lines:
                            target += stride
                            if target < 0 or not mshr_available(mem_start):
                                break
                            prefetch_ready(target, mem_start, "prefetcher")
                    if on_demand_load is not None:
                        on_demand_load(pc, addr, values[j], mem_start)
                    if lq_count < lq_size:
                        heappush(lq_heap, complete)
                        lq_count += 1
                    else:
                        heappushpop(lq_heap, complete)
                elif kind == K_STORE:
                    hierarchy_store(addrs[j], issue)
                    complete = issue + 1
                elif kind == K_BNZ or kind == K_BEZ:
                    complete = issue + 1
                    predictions += 1
                    if fe[j]:
                        # TAGE-lite mispredicted it. Redirect: fetch
                        # restarts after the branch resolves.
                        mispredictions += 1
                        redirect = complete + 1
                        if redirect > next_fetch:
                            next_fetch = redirect
                            last_redirect_cycle = redirect
                elif kind == K_PREFETCH:
                    addr = addrs[j]
                    if addr is not None and is_mapped(addr) and mshr_available(issue):
                        hierarchy_access(addr, issue, source="prefetcher", prefetch=True)
                    complete = issue + 1
                else:
                    # JMP / NOP / HALT
                    complete = issue + 1

                # ---- in-order commit ----
                commit_floor = prev_commit
                commit = complete + 1
                if prev_commit > commit:
                    commit = prev_commit
                ring_commit = commit_ring[w_slot] + 1
                if ring_commit > commit:
                    commit = ring_commit
                blocked_until = technique.commit_blocked_until
                technique_blocked = False
                if blocked_until > commit:
                    commit_block_cycles += blocked_until - commit
                    commit = blocked_until
                    technique_blocked = True
                commit_ring[w_slot] = commit
                prev_commit = commit
                if commit != last_commit_value:
                    commit_cycles += 1
                    last_commit_value = commit
                if commit <= complete:
                    retire_violations += 1

                # ---- CPI-stack attribution ----
                delta = commit - commit_floor
                if delta > 0:
                    if technique_blocked:
                        bucket = "runahead_block"
                    elif commit == complete + 1:
                        if kind == K_LOAD:
                            bucket = _MEM_BUCKETS.get(level, "mem_dram")
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
                rob_commit_ring[r_slot] = commit
                rob_miss_ring[r_slot] = was_memory_miss
                rob_pc_ring[r_slot] = pc
                if iq_count < iq_size:
                    heappush(iq_heap, issue)
                    iq_count += 1
                else:
                    heappushpop(iq_heap, issue)
                if kind == K_STORE:
                    sq_ring[stores_seen % sq_size] = commit
                    stores_seen += 1
                rd = rd_of[pc]
                if rd >= 0:
                    reg_ready[rd] = complete

                if recording:
                    if i < trace_limit:
                        self.trace.append(
                            (i, pc, instrs[pc].opcode.name,
                             fetch, dispatch, ready, issue, complete, commit)
                        )
                    if event_trace is not None:
                        opv = op_values[pc]
                        event_trace.emit(fetch, EV_FETCH, pc, opv)
                        event_trace.emit(issue, EV_ISSUE, pc, opv)
                        event_trace.emit(complete, EV_COMPLETE, pc, opv)
                        event_trace.emit(commit, EV_RETIRE, pc, opv)
                if on_commit is not None:
                    # A store's column value is its stored word; it
                    # writes no register, so the hook gets None.
                    on_commit(
                        pc,
                        None if kind == K_STORE else values[j],
                        addrs[j],
                        next_pcs[j],
                        commit,
                        complete,
                    )
                i += 1
                w_slot += 1
                if w_slot == width:
                    w_slot = 0
                r_slot += 1
                if r_slot == rob_size:
                    r_slot = 0
                if fire_hooks:
                    obs.maybe_fire(i, prev_commit, publish_live)
                if warmup and i == warmup:
                    base = CounterRegistry()
                    publish_live(base)

        if len(fe_columns) == len(chunks) and (stream.halted or len(stream) >= limit):
            # Every chunk of the whole stream has its column.
            frontend.seal()
        return self._finalize(prev_commit, publish_live, base, event_trace)

    # -- epilogue --------------------------------------------------------------

    def _finalize(
        self,
        prev_commit: int,
        publish: Callable[[CounterRegistry], None],
        base: Optional[CounterRegistry],
        event_trace,
    ) -> SimulationResult:
        """The epilogue: the end-of-run books, scoped to the ROI.

        ``publish`` is the run's counter publisher and ``base`` what it
        published at the warm-up instant (None without a warm-up). The
        reference oracle in ``tests/oracles`` shares this epilogue with
        its own publisher, which has no ``core.sched.*`` family.

        The ROI rule: every counter reads end - base, except the
        :data:`ROI_GAUGES`. A run that ends at the warm-up boundary has
        an empty ROI and reports the whole run.
        """
        technique = self.technique
        technique.advance_to(prev_commit)
        technique.finalize(prev_commit)
        self.hierarchy.finalize_timeliness()
        obs = self.observability
        registry = obs.counters if obs is not None else CounterRegistry()
        publish(registry)
        start = 0
        committed = "core.commit.instructions"
        if base is not None and registry.get(committed) > base.get(committed):
            self.warmup_base = base.snapshot()
            start = base.get("core.cycles")  # the warm-up instant's commit cycle
            for name, value in registry:
                if name not in ROI_GAUGES:
                    registry.set(name, value - base.get(name))
        # An empty window still spans a cycle, like an empty run.
        cycles = max(1, registry.get("core.cycles"))
        registry.set("core.cycles", cycles)
        # Everything not attributed to a CPI bucket flowed at full width.
        attributed = sum(registry.subtree("core.cpi_stack").values())
        registry.set("core.cpi_stack.base", max(0, cycles - attributed))
        registry.set(
            "mem.mshr.mean_occupancy",
            self.hierarchy.mshrs.mean_occupancy(max(1, prev_commit), start),
        )
        return SimulationResult(
            workload=self.workload_name,
            technique=technique.name,
            counters=registry.snapshot(),
            trace_digest=event_trace.digest() if event_trace is not None else None,
            trace_events=event_trace.emitted if event_trace is not None else 0,
        )
