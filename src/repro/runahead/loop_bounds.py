"""Loop-bound inference (paper Section 4.1.3).

During Discovery Mode we look for the compare that feeds the first
backward branch of the loop:

* **LCR** (Last-Compare Register) remembers the compare's operands.
* **SBB** (Seen-Branch Bit) locks the LCR once a backward branch that
  consumes it has been seen; both are cleared whenever the Final-Load
  Register is updated.
* Two architectural checkpoints (Discovery entry / exit) reveal which
  compare operand is loop-invariant (the bound) and which one changes
  (the induction variable, whose delta is the increment).

The inference yields the number of remaining iterations, which caps the
number of vector lanes DVR spawns — the mechanism that makes DVR
accurate where VR over-fetches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa.instructions import Instruction, Opcode


@dataclass
class LoopBoundInference:
    """Result of the checkpoint comparison at Discovery exit."""

    found: bool
    remaining: Optional[int] = None
    increment: Optional[int] = None
    induction_reg: Optional[int] = None
    bound_value: Optional[int] = None
    backward_branch_pc: Optional[int] = None
    backward_branch_target: Optional[int] = None

    def lanes(self, max_lanes: int) -> int:
        """How many lanes to spawn; unknown bounds run the 128 maximum."""
        if not self.found or self.remaining is None:
            return max_lanes
        return max(0, min(self.remaining, max_lanes))


class _LastCompare:
    __slots__ = ("rs1", "rs2", "rd", "imm", "uses_imm", "pc")

    def __init__(self, pc: int, instr: Instruction) -> None:
        self.rs1 = instr.rs1
        self.rs2 = instr.rs2
        self.rd = instr.rd
        self.imm = instr.imm
        self.uses_imm = instr.opcode is Opcode.CMP_LTI
        self.pc = pc


class LoopBoundDetector:
    """Tracks LCR / SBB while Discovery Mode observes committed instructions."""

    def __init__(self, trigger_pc: int) -> None:
        self.trigger_pc = trigger_pc
        self._lcr: Optional[_LastCompare] = None
        self._sbb = False
        self.backward_branch_pc: Optional[int] = None
        self.backward_branch_target: Optional[int] = None

    def on_final_load_update(self) -> None:
        """FLR changed: zero the LCR and SBB (paper rule)."""
        self._lcr = None
        self._sbb = False
        self.backward_branch_pc = None
        self.backward_branch_target = None

    def observe(self, pc: int, instr: Instruction) -> None:
        """Track one committed instruction: its pc and static instruction."""
        if instr.is_compare and not self._sbb:
            self._lcr = _LastCompare(pc, instr)
            return
        if (
            instr.is_conditional_branch
            and self._lcr is not None
            and instr.rs1 == self._lcr.rd
            and instr.target is not None
            and instr.target <= self.trigger_pc
        ):
            self._sbb = True
            self.backward_branch_pc = pc
            self.backward_branch_target = instr.target

    @property
    def locked(self) -> bool:
        return self._sbb and self._lcr is not None

    @property
    def compare(self) -> Optional[_LastCompare]:
        return self._lcr

    def infer(self, entry_regs: List, exit_regs: List) -> LoopBoundInference:
        """Compare the two register checkpoints to derive the loop bound."""
        lcr = self._lcr
        if lcr is None or not self._sbb:
            return LoopBoundInference(found=False)
        if lcr.uses_imm:
            induction = lcr.rs1
            bound_value = lcr.imm
        else:
            v1_entry, v1_exit = entry_regs[lcr.rs1], exit_regs[lcr.rs1]
            v2_entry, v2_exit = entry_regs[lcr.rs2], exit_regs[lcr.rs2]
            if v1_entry == v1_exit and v2_entry != v2_exit:
                induction, bound_value = lcr.rs2, v1_exit
            elif v2_entry == v2_exit and v1_entry != v1_exit:
                induction, bound_value = lcr.rs1, v2_exit
            else:
                return LoopBoundInference(
                    found=False,
                    backward_branch_pc=self.backward_branch_pc,
                    backward_branch_target=self.backward_branch_target,
                )
        try:
            increment = int(exit_regs[induction]) - int(entry_regs[induction])
            current = int(exit_regs[induction])
            bound = int(bound_value)
        except (TypeError, ValueError):
            return LoopBoundInference(found=False)
        if increment == 0:
            return LoopBoundInference(
                found=False,
                backward_branch_pc=self.backward_branch_pc,
                backward_branch_target=self.backward_branch_target,
            )
        if increment > 0:
            remaining = max(0, -(-(bound - current) // increment))
        else:
            remaining = max(0, -(-(current - bound) // -increment))
        return LoopBoundInference(
            found=True,
            remaining=remaining,
            increment=increment,
            induction_reg=induction,
            bound_value=bound,
            backward_branch_pc=self.backward_branch_pc,
            backward_branch_target=self.backward_branch_target,
        )
