"""Classic work-skipping runahead execution (Mutlu et al., HPCA 2003).

Triggered by a full-ROB stall with a cache-missing load at the head.
The processor pseudo-executes the future instruction stream at front-end
rate for the duration of the blocking miss, prefetching every load whose
address can be computed; values that depend on misses are INV. On exit
the pipeline is flushed and refetched (the penalty PRE later removed).
"""

from __future__ import annotations

from typing import Dict

from ..memory.hierarchy import LEVEL_DRAM, LEVEL_MSHR
from ..observability.trace import EV_RUNAHEAD_ENTER, EV_RUNAHEAD_EXIT
from ..prefetch.base import Technique
from .interpreter import SpeculativeInterpreter
from .shadow import ShadowState


class ClassicRunahead(Technique):
    name = "runahead"

    def __init__(self, min_stall_cycles: int = 20) -> None:
        super().__init__()
        self.min_stall_cycles = min_stall_cycles
        self.shadow = ShadowState()
        self.triggers = 0
        self.instructions_executed = 0
        self.prefetches = 0
        self.dropped_no_mshr = 0
        self.fetch_blocked_until = 0

    def on_commit(self, pc, value, addr, next_pc, cycle, complete) -> None:
        self.shadow.update(self.decoded.rd[pc], value, next_pc, cycle, complete)

    def on_full_rob_stall(self, start: int, end: int, head_pc: int) -> None:
        duration = end - start
        if duration < self.min_stall_cycles:
            return
        self.triggers += 1
        self.emit_event(start, EV_RUNAHEAD_ENTER, self.shadow.next_pc)
        config = self.config
        width = config.core.width
        hierarchy = self.hierarchy
        memory = self.memory_image
        interp = SpeculativeInterpreter(
            self.program,
            memory,
            self.shadow.next_pc,
            self.shadow.snapshot_values(),
            invalid_regs=self.shadow.invalid_regs_at(start),
        )
        budget = min(width * duration, 2500)
        issued = 0

        def load_cb(pc: int, addr: int):
            nonlocal issued
            cycle = start + issued // width
            value, mapped = memory.read_word_speculative(addr)
            if not mapped:
                return 0, False
            if hierarchy.load_needs_mshr(addr, cycle) and not hierarchy.mshr_available(cycle):
                self.dropped_no_mshr += 1
                return 0, False
            result = hierarchy.access(addr, cycle, source="runahead", prefetch=True)
            self.prefetches += 1
            # Data is usable within runahead only if it returns in time.
            if result.level in (LEVEL_DRAM, LEVEL_MSHR) and result.ready > end:
                return 0, False
            return value, True

        for k in range(budget):
            if start + k // width >= end:
                break
            step = interp.step(load_cb)
            if step is None:
                break
            issued = k
            self.instructions_executed += 1

        # Exiting runahead flushes and refetches the pipeline.
        penalty = config.runahead.runahead_flush_penalty
        self.fetch_blocked_until = max(self.fetch_blocked_until, end + penalty)
        self.emit_event(end + penalty, EV_RUNAHEAD_EXIT)

    def stats(self) -> Dict[str, float]:
        return {
            "triggers": float(self.triggers),
            "runahead_instructions": float(self.instructions_executed),
            "runahead_prefetches": float(self.prefetches),
            "dropped_no_mshr": float(self.dropped_no_mshr),
        }
