"""Shadow architectural state maintained from the commit stream.

Every runahead engine keeps a copy of the main thread's architectural
registers (real hardware reads them from the rename map / PRF when a
runahead context spawns). We also remember each register's availability
cycle so work-skipping runahead can mark values produced by still-
outstanding loads as INV at the moment a stall begins.
"""

from __future__ import annotations

from typing import List, Optional

from ..isa.instructions import NUM_REGS


class ShadowState:
    """Architectural register values + availability, plus the next PC."""

    def __init__(self) -> None:
        self.regs: List = [0] * NUM_REGS
        self.avail: List[int] = [0] * NUM_REGS
        self.next_pc = 0
        self.last_commit_cycle = 0

    def update(
        self,
        rd: Optional[int],
        value,
        next_pc: int,
        commit_cycle: int,
        complete_cycle: int = 0,
    ) -> None:
        """Apply one retired instruction: its destination register (None
        for none), the value it wrote, and its successor pc.

        VR's and DVR's commit hooks inline this body; keep them in step
        (``tests/test_vector_slice_engine.py`` compares the three).
        """
        if rd is not None and value is not None:
            self.regs[rd] = value
            # Availability is the *execute-complete* cycle: instructions
            # still sitting in the ROB have produced their values and a
            # runahead context may use them; only results of outstanding
            # misses are INV.
            self.avail[rd] = complete_cycle or commit_cycle
        self.next_pc = next_pc
        self.last_commit_cycle = commit_cycle

    def snapshot_values(self) -> List:
        return list(self.regs)

    def invalid_regs_at(self, cycle: int) -> List[int]:
        """Registers whose producing instruction has not committed by ``cycle``.

        Used to seed the INV set of work-skipping runahead: a runahead
        context launched mid-stall must treat values that depend on
        outstanding misses as invalid.
        """
        return [r for r in range(NUM_REGS) if self.avail[r] > cycle]
