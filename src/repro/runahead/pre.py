"""Precise Runahead Execution (PRE), Naithani et al., HPCA 2020.

The paper's strongest scalar-runahead baseline. Three improvements over
classic runahead (Section 2.1):

1. only the chains of instructions that lead to stalling loads are
   executed in runahead mode (modelled via the program's static
   load-address slice: non-slice instructions cost no runahead budget);
2. the ROB is not flushed on exit (no refetch penalty);
3. short runahead intervals are still exploited.

Its key limitation is inherited faithfully: a load whose address depends
on another *missing* load sees an INV value, so PRE cannot prefetch past
the first level of indirection (Section 2.2).
"""

from __future__ import annotations

from typing import Dict

from ..memory.hierarchy import LEVEL_DRAM, LEVEL_MSHR
from ..observability.trace import EV_RUNAHEAD_ENTER, EV_RUNAHEAD_EXIT
from ..prefetch.base import Technique
from .interpreter import SpeculativeInterpreter
from .shadow import ShadowState


class PreciseRunahead(Technique):
    name = "pre"

    def __init__(self) -> None:
        super().__init__()
        self.shadow = ShadowState()
        self.triggers = 0
        self.instructions_executed = 0
        self.instructions_filtered = 0
        self.prefetches = 0
        self.dropped_no_mshr = 0

    def on_commit(self, pc, value, addr, next_pc, cycle, complete) -> None:
        self.shadow.update(self.decoded.rd[pc], value, next_pc, cycle, complete)

    def on_full_rob_stall(self, start: int, end: int, head_pc: int) -> None:
        duration = end - start
        if duration < self.config.runahead.pre_min_interval:
            return
        self.triggers += 1
        self.emit_event(start, EV_RUNAHEAD_ENTER, self.shadow.next_pc)
        width = self.config.core.width
        hierarchy = self.hierarchy
        memory = self.memory_image
        slice_pcs = self.program.address_slice_pcs()
        interp = SpeculativeInterpreter(
            self.program,
            memory,
            self.shadow.next_pc,
            self.shadow.snapshot_values(),
            invalid_regs=self.shadow.invalid_regs_at(start),
        )
        budget = min(width * duration, 2500)
        charged = 0

        def load_cb(pc: int, addr: int):
            cycle = start + charged // width
            value, mapped = memory.read_word_speculative(addr)
            if not mapped:
                return 0, False
            if hierarchy.load_needs_mshr(addr, cycle) and not hierarchy.mshr_available(cycle):
                self.dropped_no_mshr += 1
                return 0, False
            result = hierarchy.access(cycle=cycle, addr=addr, source="runahead", prefetch=True)
            self.prefetches += 1
            if result.level in (LEVEL_DRAM, LEVEL_MSHR) and result.ready > end:
                return 0, False
            return value, True

        # Hard cap on total interpreted instructions to bound the cost of
        # skipping long non-slice regions.
        for _ in range(4 * budget):
            if charged >= budget or start + charged // width >= end:
                break
            pc = interp.pc
            if not interp.step(load_cb):
                break
            if pc in slice_pcs:
                charged += 1
                self.instructions_executed += 1
            else:
                self.instructions_filtered += 1
        self.emit_event(min(end, start + charged // width), EV_RUNAHEAD_EXIT)

    def stats(self) -> Dict[str, float]:
        return {
            "triggers": float(self.triggers),
            "runahead_instructions": float(self.instructions_executed),
            "filtered_instructions": float(self.instructions_filtered),
            "runahead_prefetches": float(self.prefetches),
            "dropped_no_mshr": float(self.dropped_no_mshr),
        }
