"""Vector Runahead (Naithani et al., ISCA 2021) — paper Section 2.3.

Triggered by a full-ROB stall, VR pre-executes the future stream until
it meets a confident striding load, then *speculatively vectorises* the
striding load and its dependent chain across many future loop
iterations, issuing all the loads of each indirection level as parallel
gathers. Termination is delayed until the whole chain's memory accesses
have been generated (which can hold up commit even after the blocking
load has returned — the cost DVR's decoupling removes).

Faithfully inherited limitations (the paper's motivation, Section 3):
no loop-bound knowledge (a fixed lane count means over-fetching past
short inner loops), first-lane control flow with divergent lanes
invalidated, and no decoupling (no trigger without a full-ROB stall).
"""

from __future__ import annotations

from typing import Dict

from ..isa.predecode import K_LOAD
from ..observability.trace import (
    EV_RUNAHEAD_ENTER,
    EV_RUNAHEAD_EXIT,
    EV_VECTOR_DISPATCH,
)
from ..prefetch.base import Technique
from .interpreter import SpeculativeInterpreter
from .shadow import ShadowState
from .stride_detector import StrideDetector
from .vector_engine import EngineCounterMixin, VectorChainRun

# How far VR's runahead front-end looks for a striding load before
# giving up on vectorisation for this episode.
_SCAN_BUDGET = 64


class VectorRunahead(EngineCounterMixin, Technique):
    name = "vr"

    def __init__(self) -> None:
        super().__init__()
        self._init_engine_book()
        self.shadow = ShadowState()
        self.detector: StrideDetector = None  # built in attach()
        self.triggers = 0
        self.vector_episodes = 0
        self.prefetches = 0
        self.scalar_prefetches = 0
        self.lanes_invalidated = 0
        self.subthread_instructions = 0
        self.skipped_covered = 0
        # Furthest prefetched address per vectorised stride PC: VR need
        # not re-vectorise a window it has already covered.
        self._coverage = {}

    def attach(self, core) -> None:
        super().attach(core)
        runahead_cfg = self.config.runahead
        self.detector = StrideDetector(
            entries=runahead_cfg.stride_detector_entries,
            confidence_threshold=runahead_cfg.stride_confidence,
        )
        self.lanes = runahead_cfg.vr_lanes
        self.vector_width = runahead_cfg.vector_width
        self.timeout = runahead_cfg.instruction_timeout
        self.vector_chaining = runahead_cfg.vector_chaining
        self.issue_width = runahead_cfg.subthread_issue_width
        self._rd_of = self.decoded.rd
        self._kinds = self.decoded.kinds

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
        if self._kinds[pc] == K_LOAD:
            self.detector.observe(pc, addr)

    def on_full_rob_stall(self, start: int, end: int, head_pc: int) -> None:
        if self.commit_blocked_until > start:
            return  # still finishing the previous vectorised chain
        self.triggers += 1
        self.emit_event(start, EV_RUNAHEAD_ENTER, self.shadow.next_pc)
        program = self.program
        memory = self.memory_image
        hierarchy = self.hierarchy
        interp = SpeculativeInterpreter(
            program,
            memory,
            self.shadow.next_pc,
            self.shadow.snapshot_values(),
            invalid_regs=self.shadow.invalid_regs_at(start),
        )

        def load_cb(pc: int, addr: int):
            value, mapped = memory.read_word_speculative(addr)
            if not mapped:
                return 0, False
            if hierarchy.mshr_available(start):
                hierarchy.access(addr, start, source="runahead", prefetch=True)
                self.scalar_prefetches += 1
            return value, True

        stride_pc = None
        stride_addr = None
        for _ in range(_SCAN_BUDGET):
            pc = interp.pc
            if (
                0 <= pc < len(program)
                and program[pc].is_load
                and self.detector.is_striding(pc)
            ):
                stride_pc = pc
                base = interp.regs[program[pc].rs1]
                if isinstance(base, int) and interp.valid[program[pc].rs1]:
                    stride_addr = base + program[pc].imm
                break
            if interp.step(load_cb) is None:
                break
        if stride_pc is None or stride_addr is None:
            self.emit_event(start, EV_RUNAHEAD_EXIT)
            return

        stride = self.detector.stride_of(stride_pc)
        covered = self._coverage.get(stride_pc)
        if covered is not None and stride and (covered - stride_addr) // stride > self.lanes // 2:
            self.skipped_covered += 1
            self.emit_event(start, EV_RUNAHEAD_EXIT)
            return
        lane_addresses = [stride_addr + stride * (l + 1) for l in range(self.lanes)]
        self._coverage[stride_pc] = lane_addresses[-1]
        run = VectorChainRun(
            program=program,
            memory=memory,
            hierarchy=hierarchy,
            scalar_regs=interp.regs,
            start_pc=stride_pc,
            lane_addresses=lane_addresses,
            start_cycle=start,
            end_pc=None,
            stop_pcs=(stride_pc,),
            vector_width=self.vector_width,
            timeout=self.timeout,
            reconvergence=None,  # VR invalidates diverged lanes
            source="runahead",
            stride_map={
                pc: st
                for pc, st in self.detector.confident_strides().items()
                if pc != stride_pc
            },
            max_scalar_run=16,
            chaining=self.vector_chaining,
            issue_width=self.issue_width,
        )
        self.emit_event(start, EV_VECTOR_DISPATCH, stride_pc, self.lanes)
        run.run_to_completion()
        self.emit_event(run.finish_time, EV_RUNAHEAD_EXIT, stride_pc)
        self.vector_episodes += 1
        self.prefetches += run.prefetches
        self.lanes_invalidated += run.lanes_invalidated
        self.subthread_instructions += run.instructions
        self._absorb_engine(run)
        # Delayed termination: normal mode resumes only once the entire
        # indirect chain has generated its accesses.
        self.commit_blocked_until = max(self.commit_blocked_until, run.finish_time)

    def stats(self) -> Dict[str, float]:
        return {
            "triggers": float(self.triggers),
            "vector_episodes": float(self.vector_episodes),
            "vector_prefetches": float(self.prefetches),
            "scalar_prefetches": float(self.scalar_prefetches),
            "lanes_invalidated": float(self.lanes_invalidated),
            "subthread_instructions": float(self.subthread_instructions),
            "skipped_covered": float(self.skipped_covered),
        }
