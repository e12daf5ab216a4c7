"""Decoupled Vector Runahead (the paper's contribution, Section 4).

DVR runs as an on-demand, speculative, in-order subthread alongside the
main thread. The flow implemented here follows the paper:

1. **Trigger** — a confident striding load retires (no full-ROB stall
   needed) and no subthread is active.
2. **Discovery Mode** (Section 4.1) — follow the main thread's commit
   stream for one loop iteration: switch to a more-inner striding load
   if one repeats (innermost bits in the RPT), taint-track the
   dependent chain (VTT -> Final-Load Register), and track the
   compare/backward-branch pair (LCR + SBB) whose checkpointed operands
   yield the remaining loop iterations.
3. **Spawn** — when the striding load retires again, a
   :class:`VectorChainRun` is launched from the striding load to the
   FLR with ``min(remaining, 128)`` lanes, reconvergence-stack
   divergence handling, and gather-style prefetching. It advances
   decoupled from the main thread via :meth:`advance_to`.
4. **Nested Discovery Mode** (Section 4.3) — if fewer than 64 upcoming
   iterations exist, the subthread instead skips out of the inner loop
   (inverting the backward branch), walks to an *outer* striding load,
   vectorises it by 16, follows the dependents of each outer iteration
   back down to the inner striding load (capturing per-lane state), and
   finally vectorises up to 128 inner-loop start addresses drawn from
   many inner-loop invocations at once.

The paper's Figure 8 ablation configurations are expressed as
declarative config pins in the technique registry
(:mod:`repro.techniques`): ``dvr-offload`` pins
``runahead.discovery_enabled=False, nested_enabled=False`` (trigger on
any stride, fixed 128 lanes), ``dvr-discovery`` adds Discovery back,
and full DVR adds Nested mode. The engine itself reads every flag from
the resolved :class:`~repro.config.RunaheadConfig` — the config is the
only source of truth.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..isa.predecode import K_LOAD
from ..observability.trace import (
    EV_RUNAHEAD_ENTER,
    EV_RUNAHEAD_EXIT,
    EV_VECTOR_DISPATCH,
)
from ..prefetch.base import Technique
from .interpreter import SpeculativeInterpreter
from .loop_bounds import LoopBoundDetector
from .reconvergence import ReconvergenceStack
from .shadow import ShadowState
from .stride_detector import StrideDetector
from .taint import VectorTaintTracker
from .vector_engine import EngineCounterMixin, VectorChainRun

_IDLE = "idle"
_DISCOVERY = "discovery"

# Commit-stream budget for one Discovery Mode pass before aborting.
_DISCOVERY_BUDGET = 600
# Outer-loop vectorisation factor in Nested Discovery Mode (paper: 16).
_NDM_OUTER_LANES = 16


class DecoupledVectorRunahead(EngineCounterMixin, Technique):
    name = "dvr"

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__()
        self._init_engine_book()
        if name:
            self.name = name
        self.shadow = ShadowState()
        self.detector: StrideDetector = None  # built in attach()
        self._state = _IDLE
        self._active: Optional[VectorChainRun] = None
        self._continuation: Optional[Callable[[int], None]] = None
        # Per-trigger-PC furthest prefetched address (retrigger damping).
        self._coverage: Dict[int, int] = {}
        # Discovery-mode state.
        self._trigger_pc = 0
        self._trigger_stride = 0
        self._vtt = VectorTaintTracker()
        self._flr: Optional[int] = None
        self._lbd: Optional[LoopBoundDetector] = None
        self._entry_checkpoint: List = []
        self._budget = 0
        # Stats.
        self.discoveries = 0
        self.discovery_aborts = 0
        self.innermost_switches = 0
        self.spawns = 0
        self.nested_spawns = 0
        self.nested_fallbacks = 0
        self.prefetches = 0
        self.subthread_instructions = 0
        self.total_lanes = 0
        self.lanes_invalidated = 0
        self.zero_lane_skips = 0

    # -- configuration ------------------------------------------------------------

    def attach(self, core) -> None:
        super().attach(core)
        cfg = self.resolved_runahead(self.config.runahead)
        self.detector = StrideDetector(
            entries=cfg.stride_detector_entries,
            confidence_threshold=cfg.stride_confidence,
        )
        self.lanes_max = cfg.dvr_lanes
        self.vector_width = cfg.vector_width
        self.timeout = cfg.instruction_timeout
        self.nested_threshold = cfg.nested_threshold
        self.reconv_depth = cfg.reconvergence_stack_depth
        self.discovery_enabled = cfg.discovery_enabled
        self.nested_enabled = cfg.nested_enabled
        self.reconvergence_enabled = cfg.reconvergence_enabled
        self.vector_chaining = cfg.vector_chaining
        self.issue_width = cfg.subthread_issue_width
        self._rd_of = self.decoded.rd
        self._kinds = self.decoded.kinds
        self._instrs = self.decoded.instrs

    def _new_stack(self) -> Optional[ReconvergenceStack]:
        if not self.reconvergence_enabled:
            return None
        return ReconvergenceStack(self.reconv_depth)

    def _engine_kwargs(self) -> dict:
        return {
            "chaining": self.vector_chaining,
            "issue_width": self.issue_width,
        }

    # -- decoupled progress ---------------------------------------------------------

    def advance_to(self, cycle: int) -> None:
        while self._active is not None:
            self._active.advance_to(cycle)
            if not self._active.finished:
                return
            run = self._active
            continuation = self._continuation
            self._active = None
            self._continuation = None
            self.prefetches += run.prefetches
            self.subthread_instructions += run.instructions
            self.lanes_invalidated += run.lanes_invalidated
            self._absorb_engine(run)
            self.emit_event(run.finish_time, EV_RUNAHEAD_EXIT, run.start_pc)
            if continuation is not None:
                continuation(run.finish_time)
            else:
                return

    def finalize(self, cycle: int) -> None:
        self.advance_to(1 << 62)

    # -- commit-stream hook -----------------------------------------------------------

    def on_commit(self, pc, value, addr, next_pc, cycle, complete) -> None:
        # ShadowState.update and the load test, inlined: this runs once
        # per retired instruction.
        shadow = self.shadow
        rd = self._rd_of[pc]
        if rd is not None and value is not None:
            shadow.regs[rd] = value
            shadow.avail[rd] = complete or cycle
        shadow.next_pc = next_pc
        shadow.last_commit_cycle = cycle
        is_load = self._kinds[pc] == K_LOAD
        entry = None
        if is_load:
            entry = self.detector.observe(pc, addr)

        if self._state == _IDLE:
            if (
                entry is not None
                and self._active is None
                and entry.is_confident(self.detector.confidence_threshold)
                and self._worth_retriggering(pc, addr, entry.stride)
            ):
                if self.discovery_enabled:
                    self._begin_discovery(pc, cycle)
                else:
                    # "Offload" configuration: vectorise immediately with
                    # the maximum lane count and no chain endpoint.
                    self._spawn_offload(pc, addr, cycle, entry.stride)
            return

        # ---- Discovery Mode ----
        self._budget -= 1
        if self._budget <= 0:
            self._state = _IDLE
            self.discovery_aborts += 1
            self.emit_event(cycle, EV_RUNAHEAD_EXIT, self._trigger_pc)
            return
        if is_load and entry is not None and pc != self._trigger_pc:
            if entry.is_confident(self.detector.confidence_threshold):
                if entry.innermost_bit:
                    # Seen twice before the trigger came around again:
                    # this stride is more inner — switch to it.
                    self.innermost_switches += 1
                    self._begin_discovery(pc, cycle)
                    return
                entry.innermost_bit = True
        if pc == self._trigger_pc:
            self._finish_discovery(pc, addr, cycle)
            return
        instr = self._instrs[pc]
        tainted = self._vtt.propagate(instr)
        if is_load and tainted:
            self._flr = pc
            self._lbd.on_final_load_update()
        self._lbd.observe(pc, instr)

    # -- discovery ------------------------------------------------------------------

    def _begin_discovery(self, pc: int, cycle: int) -> None:
        self.emit_event(cycle, EV_RUNAHEAD_ENTER, pc)
        self._state = _DISCOVERY
        self._trigger_pc = pc
        self._trigger_stride = self.detector.stride_of(pc)
        self._vtt.reset(self._rd_of[pc])
        self._flr = None
        self._lbd = LoopBoundDetector(pc)
        self._entry_checkpoint = self.shadow.snapshot_values()
        self._budget = _DISCOVERY_BUDGET
        self.detector.clear_innermost_bits()
        self.discoveries += 1

    def _finish_discovery(self, pc: int, addr: int, cycle: int) -> None:
        self._state = _IDLE
        if self._flr is None:
            # No dependent chain beyond the stride prefetcher's reach:
            # not worth a subthread (Section 4.1.2).
            self.emit_event(cycle, EV_RUNAHEAD_EXIT, pc)
            return
        if self._active is not None:
            self.emit_event(cycle, EV_RUNAHEAD_EXIT, pc)
            return
        exit_checkpoint = self.shadow.snapshot_values()
        inference = self._lbd.infer(self._entry_checkpoint, exit_checkpoint)
        lanes = inference.lanes(self.lanes_max)
        if lanes <= 0:
            self.zero_lane_skips += 1
            self.emit_event(cycle, EV_RUNAHEAD_EXIT, pc)
            return
        stride = self._trigger_stride or self.detector.stride_of(pc)
        if not stride:
            self.emit_event(cycle, EV_RUNAHEAD_EXIT, pc)
            return
        use_nested = (
            self.nested_enabled
            and inference.found
            and inference.remaining is not None
            and inference.remaining < self.nested_threshold
            and inference.backward_branch_pc is not None
        )
        if use_nested:
            self._spawn_nested(pc, addr, cycle, stride, lanes, inference)
        else:
            self._spawn_chain(pc, addr, cycle, stride, lanes, end_pc=self._flr)

    def _chain_stride_map(self, trigger_pc: int) -> dict:
        strides = self.detector.confident_strides()
        strides.pop(trigger_pc, None)
        return strides

    # -- retrigger damping ------------------------------------------------------------

    def _worth_retriggering(self, pc: int, addr: int, stride: int) -> bool:
        covered = self._coverage.get(pc)
        if covered is None or not stride:
            return True
        remaining = (covered - addr) // stride if stride else 0
        # Re-prefetch once the main thread has consumed at least half of
        # the previously covered iterations (synchronise with the main
        # thread, Section 6.4).
        return remaining < (3 * self.lanes_max) // 4

    def _record_coverage(self, pc: int, last_addr: int) -> None:
        self._coverage[pc] = last_addr

    # -- spawning -----------------------------------------------------------------------

    def _spawn_chain(
        self,
        pc: int,
        addr: int,
        cycle: int,
        stride: int,
        lanes: int,
        end_pc: Optional[int],
    ) -> None:
        lane_addresses = [addr + stride * (l + 1) for l in range(lanes)]
        run = VectorChainRun(
            program=self.program,
            memory=self.memory_image,
            hierarchy=self.hierarchy,
            scalar_regs=self.shadow.snapshot_values(),
            start_pc=pc,
            lane_addresses=lane_addresses,
            start_cycle=cycle,
            end_pc=end_pc,
            execute_end_pc=True,
            stop_pcs=(pc,),
            vector_width=self.vector_width,
            timeout=self.timeout,
            reconvergence=self._new_stack(),
            source="runahead",
            stride_map=self._chain_stride_map(pc),
            **self._engine_kwargs(),
        )
        self._active = run
        self._continuation = None
        self.spawns += 1
        self.total_lanes += lanes
        self.emit_event(cycle, EV_VECTOR_DISPATCH, pc, lanes)
        self._record_coverage(pc, lane_addresses[-1])

    def _spawn_offload(self, pc: int, addr: int, cycle: int, stride: int) -> None:
        """Offload configuration: no Discovery Mode, fixed max lanes."""
        self._spawn_chain(pc, addr, cycle, stride, self.lanes_max, end_pc=None)

    # -- Nested Discovery Mode -------------------------------------------------------

    def _spawn_nested(
        self,
        trigger_pc: int,
        trigger_addr: int,
        cycle: int,
        stride: int,
        lanes: int,
        inference,
    ) -> None:
        program = self.program
        memory = self.memory_image
        hierarchy = self.hierarchy
        trigger_instr = self._instrs[trigger_pc]

        # Phase A (scalar): invert the backward branch — start on its
        # not-taken path — and walk forward looking for an outer striding
        # load (one whose PC precedes the inner striding load: the ILR
        # comparison).
        interp = SpeculativeInterpreter(
            program,
            memory,
            inference.backward_branch_pc + 1,
            self.shadow.snapshot_values(),
        )
        outer_pc = None
        outer_addr = None
        steps = 0

        def load_cb(pc: int, addr: int):
            value, mapped = memory.read_word_speculative(addr)
            if not mapped:
                return 0, False
            if hierarchy.mshr_available(cycle + steps):
                hierarchy.access(addr, cycle + steps, source="runahead", prefetch=True)
                self.prefetches += 1
            return value, True

        instrs = self._instrs
        for steps in range(self.timeout):
            pc = interp.pc
            if (
                0 <= pc < len(instrs)
                and instrs[pc].is_load
                and pc != trigger_pc
                and pc < trigger_pc
                and self.detector.is_striding(pc)
            ):
                base_reg = instrs[pc].rs1
                if interp.valid[base_reg] and isinstance(interp.regs[base_reg], int):
                    outer_pc = pc
                    outer_addr = interp.regs[base_reg] + instrs[pc].imm
                break
            if not interp.step(load_cb):
                break

        if outer_pc is None or outer_addr is None:
            # No outer striding load within the instruction budget:
            # fall back to the loop-bound-detector iteration count.
            self.nested_fallbacks += 1
            self._spawn_chain(
                trigger_pc, trigger_addr, cycle, stride, lanes, end_pc=self._flr
            )
            return

        # Phase B (vectorised NDM): vectorise the outer striding load by
        # 16 and follow its dependents down to the inner striding load,
        # capturing per-lane register state there.
        outer_stride = self.detector.stride_of(outer_pc)
        outer_lane_addresses = [
            outer_addr + outer_stride * (o + 1) for o in range(_NDM_OUTER_LANES)
        ]
        ndm_run = VectorChainRun(
            program=program,
            memory=memory,
            hierarchy=hierarchy,
            scalar_regs=interp.regs,
            start_pc=outer_pc,
            lane_addresses=outer_lane_addresses,
            start_cycle=cycle + steps,
            end_pc=trigger_pc,
            execute_end_pc=False,
            stop_pcs=(outer_pc,),
            vector_width=self.vector_width,
            timeout=self.timeout,
            reconvergence=self._new_stack(),
            capture_end_states=True,
            source="runahead",
            stride_map=self._chain_stride_map(outer_pc),
            **self._engine_kwargs(),
        )
        flr = self._flr
        induction_reg = inference.induction_reg
        increment = inference.increment or 1
        compare = self._lbd.compare if self._lbd is not None else None

        def continue_with_inner(finish_time: int) -> None:
            inner_addresses = self._collect_inner_addresses(
                ndm_run, trigger_instr, induction_reg, increment, compare, stride
            )
            if not inner_addresses:
                self.nested_fallbacks += 1
                return
            run = VectorChainRun(
                program=program,
                memory=memory,
                hierarchy=hierarchy,
                scalar_regs=self.shadow.snapshot_values(),
                start_pc=trigger_pc,
                lane_addresses=inner_addresses,
                start_cycle=finish_time,
                end_pc=flr,
                execute_end_pc=True,
                stop_pcs=(trigger_pc,),
                vector_width=self.vector_width,
                timeout=self.timeout,
                reconvergence=self._new_stack(),
                source="runahead",
                stride_map=self._chain_stride_map(trigger_pc),
                **self._engine_kwargs(),
            )
            self._active = run
            self._continuation = None
            self.total_lanes += len(inner_addresses)
            self.emit_event(
                finish_time, EV_VECTOR_DISPATCH, trigger_pc, len(inner_addresses)
            )

        self._active = ndm_run
        self._continuation = continue_with_inner
        self.spawns += 1
        self.nested_spawns += 1
        self.emit_event(cycle + steps, EV_VECTOR_DISPATCH, outer_pc, _NDM_OUTER_LANES)
        self._record_coverage(trigger_pc, trigger_addr + stride * lanes)

    def _collect_inner_addresses(
        self, ndm_run, trigger_instr, induction_reg, increment, compare, stride
    ) -> List[int]:
        """Derive up to 128 inner-loop start addresses from NDM lane states."""
        addresses: List[int] = []
        base_reg = trigger_instr.rs1
        for lane in sorted(ndm_run.end_states):
            regs = ndm_run.end_states[lane]
            base = regs[base_reg]
            if base is None or not isinstance(base, int):
                continue
            base += trigger_instr.imm
            iterations = self._lane_iterations(regs, induction_reg, increment, compare)
            for j in range(iterations):
                addresses.append(base + stride * j)
                if len(addresses) >= self.lanes_max:
                    return addresses
        return addresses

    @staticmethod
    def _lane_iterations(regs, induction_reg, increment, compare) -> int:
        """Inner-loop trip count for one outer lane (LCR + IR arithmetic)."""
        default = 8
        if compare is None or induction_reg is None or not increment:
            return default
        current = regs[induction_reg]
        if compare.uses_imm:
            bound = compare.imm
        else:
            bound_reg = compare.rs2 if induction_reg == compare.rs1 else compare.rs1
            bound = regs[bound_reg]
        if not isinstance(current, int) or not isinstance(bound, int):
            return default
        if increment > 0:
            iterations = max(0, -(-(bound - current) // increment))
        else:
            iterations = max(0, -(-(current - bound) // -increment))
        return min(iterations, 128)

    # -- reporting -------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "discoveries": float(self.discoveries),
            "discovery_aborts": float(self.discovery_aborts),
            "innermost_switches": float(self.innermost_switches),
            "spawns": float(self.spawns),
            "nested_spawns": float(self.nested_spawns),
            "nested_fallbacks": float(self.nested_fallbacks),
            "subthread_prefetches": float(self.prefetches),
            "subthread_instructions": float(self.subthread_instructions),
            "total_lanes": float(self.total_lanes),
            "lanes_invalidated": float(self.lanes_invalidated),
            "zero_lane_skips": float(self.zero_lane_skips),
        }
