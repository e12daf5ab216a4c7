"""A per-cycle out-of-order core model, kept as a cross-validation oracle.

``repro.core.ooo.OoOCore`` is a mechanistic dataflow model: fast, but
its queue constraints are analytical approximations. This is the slow,
literal counterpart: an explicit cycle loop with a fetch pipe, a ROB of
entry objects, an issue queue with operand wakeup and per-class select,
an LSQ, and in-order commit, driving the reference functional
interpreter (``FunctionalCore.step_reference``) and the *same* branch
predictor, stride table and timed memory hierarchy.

No product path runs it. ``tests/test_cross_validation.py`` uses it to
check that the two models agree on architectural results exactly and on
timing within a modest band across kernels and configurations (see
``docs/validation.md``). It models the plain baseline only: techniques
are a property of the fast model.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.config import SimConfig
from repro.core.functional import FunctionalCore
from repro.core.ooo import SimulationResult, publish_core_counters
from repro.errors import SimulationError
from repro.frontend.branch_predictor import TageLitePredictor
from repro.isa.instructions import NUM_REGS
from repro.isa.predecode import (
    FU_DIV as _FU_DIV,
    FU_INT as _FU_INT,
    FU_MEM as _FU_MEM,
    K_BNZ,
    K_BEZ,
    K_LOAD,
    K_PREFETCH,
    K_STORE,
)
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.memory_image import MemoryImage
from repro.observability.counters import CounterRegistry
from repro.observability.probes import Observability
from repro.observability.trace import EV_COMPLETE, EV_FETCH, EV_ISSUE, EV_RETIRE
from repro.prefetch.stride import StridePrefetcher

from . import issue_stride_prefetches

_WAITING = 0
_READY = 1
_ISSUED = 2
_DONE = 3


class _Entry:
    """One ROB/IQ occupant."""

    __slots__ = ("dyn", "state", "deps", "complete_cycle", "fu_class", "in_iq")

    def __init__(self, dyn, deps, fu_class) -> None:
        self.dyn = dyn
        self.state = _WAITING if deps else _READY
        self.deps = deps  # set of producer entries still outstanding
        self.complete_cycle: Optional[int] = None
        self.fu_class = fu_class
        self.in_iq = True


class CycleCore:
    """Literal cycle-by-cycle simulation of the Table 1 baseline."""

    def __init__(
        self,
        program: Program,
        memory_image: MemoryImage,
        config: Optional[SimConfig] = None,
        workload_name: str = "workload",
        observability: Optional[Observability] = None,
    ) -> None:
        self.observability = observability
        self.config = config or SimConfig()
        self.program = program
        self.memory_image = memory_image
        self.workload_name = workload_name
        self.hierarchy = MemoryHierarchy(
            self.config.memory, tlb_policy=self.config.runahead.tlb_policy
        )
        self.predictor = TageLitePredictor(self.config.branch)
        self.functional = FunctionalCore(program, memory_image)
        self.l1_stride_prefetcher: Optional[StridePrefetcher] = None
        if self.config.stride_prefetcher_enabled:
            self.l1_stride_prefetcher = StridePrefetcher(
                streams=self.config.stride_prefetcher_streams
            )
        self._ran = False

    def run(self, max_instructions: Optional[int] = None) -> SimulationResult:
        """Tick every cycle until ``max_instructions`` commit or the program ends."""
        if self._ran:
            raise SimulationError("a CycleCore instance can only run once")
        self._ran = True
        cfg = self.config.core
        limit = max_instructions or self.config.max_instructions
        width = cfg.width
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        fe_stages = cfg.frontend_stages
        pipe_cap = 2 * width * fe_stages
        fu_units = {
            _FU_INT: cfg.int_alu_units,
            "mul": cfg.int_mul_units,
            "div": cfg.int_div_units,
            "fadd": cfg.fp_add_units,
            "fmul": cfg.fp_mul_units,
            "fdiv": cfg.fp_div_units,
            _FU_MEM: cfg.mem_ports,
        }
        fu_latency = {
            _FU_INT: cfg.int_alu_latency,
            "mul": cfg.int_mul_latency,
            "div": cfg.int_div_latency,
            "fadd": cfg.fp_add_latency,
            "fmul": cfg.fp_mul_latency,
            "fdiv": cfg.fp_div_latency,
        }

        # Pre-decoded arrays and bound methods, hoisted out of the cycle
        # loop (every site below runs once per cycle or per instruction).
        decoded = self.program.decoded()
        kinds = decoded.kinds
        fu_classes = decoded.fu_classes
        op_values = decoded.op_values
        functional_step = self.functional.step_reference
        hierarchy = self.hierarchy
        hierarchy_access = hierarchy.access
        load_needs_mshr = hierarchy.load_needs_mshr
        mshr_available = hierarchy.mshr_available
        is_mapped = self.memory_image.is_mapped
        predict = self.predictor.predict
        predictor_update = self.predictor.update
        stride_pf = self.l1_stride_prefetcher
        stride_degree = self.config.stride_prefetcher_degree

        rob: Deque[_Entry] = deque()
        iq_occupancy = 0
        lq_occupancy = 0
        sq_occupancy = 0
        # Fetch pipe: (dyn, dispatch_ready_cycle) after the front-end depth.
        fetch_pipe: Deque = deque()
        reg_producer: List[Optional[_Entry]] = [None] * NUM_REGS
        consumers: Dict[int, List[_Entry]] = {}  # id(entry) -> waiters
        div_busy_until = 0
        fetch_stalled_until = 0
        fetch_stalled_on: Optional[_Entry] = None
        fetched = 0
        committed = 0
        cycle = 0
        done_fetching = False
        max_cycles = 400 * limit + 100_000  # runaway guard
        obs = self.observability
        event_trace = obs.trace if obs is not None else None

        while committed < limit and cycle < max_cycles:
            # ---- commit (oldest first, up to width) ----
            commits = 0
            while rob and commits < width and rob[0].state == _DONE:
                entry = rob.popleft()
                epc = entry.dyn.pc
                if event_trace is not None:
                    event_trace.emit(cycle, EV_RETIRE, epc, op_values[epc])
                ekind = kinds[epc]
                if ekind == K_LOAD:
                    lq_occupancy -= 1
                elif ekind == K_STORE:
                    sq_occupancy -= 1
                committed += 1
                commits += 1
                if committed >= limit:
                    break

            # ---- writeback / wakeup ----
            for entry in rob:
                if entry.state == _ISSUED and entry.complete_cycle <= cycle:
                    entry.state = _DONE
                    if event_trace is not None:
                        epc = entry.dyn.pc
                        event_trace.emit(cycle, EV_COMPLETE, epc, op_values[epc])
                    for waiter in consumers.pop(id(entry), []):
                        waiter.deps.discard(id(entry))
                        if not waiter.deps and waiter.state == _WAITING:
                            waiter.state = _READY

            # ---- issue (ready entries, per-class bandwidth) ----
            issued_per_class = {cls: 0 for cls in fu_units}
            for entry in rob:
                if entry.state != _READY:
                    continue
                cls = entry.fu_class
                if issued_per_class[cls] >= fu_units[cls]:
                    continue
                epc = entry.dyn.pc
                ekind = kinds[epc]
                if cls == _FU_DIV and div_busy_until > cycle:
                    continue
                if ekind == K_LOAD:
                    addr = entry.dyn.addr
                    if load_needs_mshr(addr, cycle) and not mshr_available(cycle):
                        continue  # retry next cycle
                    result = hierarchy_access(addr, cycle, source="main")
                    entry.complete_cycle = result.ready
                    if stride_pf is not None:
                        issue_stride_prefetches(
                            stride_pf, epc, addr, cycle, hierarchy, stride_degree
                        )
                elif ekind == K_STORE:
                    hierarchy_access(entry.dyn.addr, cycle, source="main", write=True)
                    entry.complete_cycle = cycle + 1
                elif ekind == K_PREFETCH:
                    if entry.dyn.addr is not None and is_mapped(entry.dyn.addr):
                        if mshr_available(cycle):
                            hierarchy_access(
                                entry.dyn.addr, cycle, source="prefetcher", prefetch=True
                            )
                    entry.complete_cycle = cycle + 1
                elif ekind >= K_BNZ:
                    # Branches (BNZ/BEZ/JMP), NOP and HALT: kind codes 4..8
                    # are contiguous by construction (see predecode).
                    entry.complete_cycle = cycle + 1
                else:
                    entry.complete_cycle = cycle + fu_latency[cls]
                    if cls == _FU_DIV:
                        div_busy_until = cycle + fu_latency[cls]
                entry.state = _ISSUED
                if event_trace is not None:
                    event_trace.emit(cycle, EV_ISSUE, epc, op_values[epc])
                if entry.in_iq:
                    entry.in_iq = False
                    iq_occupancy -= 1
                issued_per_class[cls] += 1
                # Branch resolution unblocks fetch after the redirect.
                if entry is fetch_stalled_on:
                    fetch_stalled_until = entry.complete_cycle + 1
                    fetch_stalled_on = None

            # ---- dispatch (fetch pipe -> ROB/IQ/LSQ) ----
            dispatched = 0
            while (
                fetch_pipe
                and dispatched < width
                and len(rob) < rob_size
                and iq_occupancy < iq_size
                and fetch_pipe[0][1] <= cycle
            ):
                dyn, _ = fetch_pipe[0]
                dpc = dyn.pc
                dkind = kinds[dpc]
                if dkind == K_LOAD and lq_occupancy >= lq_size:
                    break
                if dkind == K_STORE and sq_occupancy >= sq_size:
                    break
                fetch_pipe.popleft()
                instr = dyn.instr
                deps = set()
                entry = _Entry(dyn, deps, fu_classes[dpc])
                for src in instr.sources():
                    producer = reg_producer[src]
                    if producer is not None and producer.state != _DONE:
                        deps.add(id(producer))
                        consumers.setdefault(id(producer), []).append(entry)
                entry.state = _WAITING if deps else _READY
                if instr.rd is not None:
                    reg_producer[instr.rd] = entry
                rob.append(entry)
                iq_occupancy += 1
                if dkind == K_LOAD:
                    lq_occupancy += 1
                elif dkind == K_STORE:
                    sq_occupancy += 1
                dispatched += 1

            # ---- fetch ----
            if not done_fetching and fetch_stalled_on is None and cycle >= fetch_stalled_until:
                for _ in range(width):
                    if fetched >= limit or len(fetch_pipe) >= pipe_cap:
                        break
                    dyn = functional_step()
                    if dyn is None:
                        done_fetching = True
                        break
                    fetched += 1
                    fetch_pipe.append((dyn, cycle + fe_stages))
                    fpc = dyn.pc
                    fkind = kinds[fpc]
                    if event_trace is not None:
                        event_trace.emit(cycle, EV_FETCH, fpc, op_values[fpc])
                    if fkind == K_BNZ or fkind == K_BEZ:
                        predicted = predict(fpc)
                        predictor_update(fpc, dyn.taken, predicted)
                        if predicted != dyn.taken:
                            # Stall fetch until this branch executes.
                            fetch_stalled_on = None
                            fetch_stalled_until = 1 << 60
                            self._pending_branch_dyn = dyn
                            break
            # Bind the stalled-on marker to the branch's ROB entry once
            # it has been dispatched (it may even have issued already).
            if fetch_stalled_until == 1 << 60 and fetch_stalled_on is None:
                pending = getattr(self, "_pending_branch_dyn", None)
                for entry in rob:
                    if entry.dyn is pending:
                        if entry.state in (_ISSUED, _DONE):
                            fetch_stalled_until = entry.complete_cycle + 1
                        else:
                            fetch_stalled_on = entry
                        self._pending_branch_dyn = None
                        break

            if not rob and not fetch_pipe and done_fetching:
                break
            cycle += 1

        if cycle >= max_cycles:
            raise SimulationError("CycleCore exceeded its cycle guard")
        return self._finalize(cycle, fetched, committed, event_trace)

    def _finalize(
        self,
        cycle: int,
        fetched: int,
        committed: int,
        event_trace,
    ) -> SimulationResult:
        self.hierarchy.finalize_timeliness()
        cycles = max(1, cycle)
        obs = self.observability
        registry = obs.counters if obs is not None else CounterRegistry()
        publish_core_counters(
            registry,
            cycles=cycles,
            fetched=fetched,
            committed=committed,
            full_stall=0,
            episodes=0,
            commit_blocked=0,
            predictions=self.predictor.predictions,
            mispredictions=self.predictor.mispredictions,
            buckets={},
        )
        self.hierarchy.publish_counters(registry)
        registry.set("mem.mshr.mean_occupancy", self.hierarchy.mshrs.mean_occupancy(cycles))
        return SimulationResult(
            workload=self.workload_name,
            technique="ooo-cycle",
            counters=registry.snapshot(),
            trace_digest=event_trace.digest() if event_trace is not None else None,
            trace_events=event_trace.emitted if event_trace is not None else 0,
        )
