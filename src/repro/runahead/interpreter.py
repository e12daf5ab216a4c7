"""Scalar speculative interpreter with INV (invalid-value) tracking.

Work-skipping runahead (classic and PRE) pre-executes the future
instruction stream with whatever register values are available:
registers that depend on outstanding misses carry an INV bit, loads with
INV addresses produce INV results, branches with INV conditions fall
through. Stores are dropped — runahead is transient execution.

The same interpreter drives the scalar prelude of DVR's Nested
Discovery Mode (walking from the inner loop's exit to the outer
striding load).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from ..isa.instructions import NUM_REGS, Opcode
from ..isa.program import Program
from ..isa.semantics import alu_evaluate
from ..memory.memory_image import MemoryImage

# Callback: (pc, addr) -> (value, value_is_valid). The engine decides
# whether to issue a prefetch and whether data would return in time.
LoadCallback = Callable[[int, int], Tuple[object, bool]]


class SpeculativeInterpreter:
    """Executes the static program from a register snapshot."""

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        start_pc: int,
        regs: List,
        invalid_regs: Iterable[int] = (),
    ) -> None:
        self.program = program
        self._instrs = program.instructions
        self.memory = memory
        self.pc = start_pc
        self.regs = list(regs)
        self.valid = [True] * NUM_REGS
        for reg in invalid_regs:
            self.valid[reg] = False
        self.halted = False
        self.steps = 0

    def _read(self, reg: Optional[int]):
        if reg is None:
            return None, True
        return self.regs[reg], self.valid[reg]

    def step(self, load_cb: Optional[LoadCallback] = None) -> bool:
        """Execute one instruction; False once halted / out of range.

        Executing HALT returns True and halts the interpreter, so the
        next call returns False.
        """
        instrs = self._instrs
        if self.halted or not 0 <= self.pc < len(instrs):
            self.halted = True
            return False
        pc = self.pc
        instr = instrs[pc]
        op = instr.opcode
        self.steps += 1
        next_pc = pc + 1

        if op is Opcode.HALT:
            self.halted = True
            return True
        if op is Opcode.LOAD:
            base, base_valid = self._read(instr.rs1)
            if base_valid and isinstance(base, int):
                addr = base + instr.imm
                if load_cb is not None:
                    value, value_valid = load_cb(pc, addr)
                else:
                    value, value_valid = self.memory.read_word_speculative(addr)
                self.regs[instr.rd] = value if value_valid else 0
                self.valid[instr.rd] = value_valid
            else:
                self.regs[instr.rd] = 0
                self.valid[instr.rd] = False
        elif op is Opcode.STORE or op is Opcode.PREFETCH:
            pass  # transient execution: the store itself is discarded
        elif op in (Opcode.BNZ, Opcode.BEZ):
            cond, cond_valid = self._read(instr.rs1)
            if cond_valid:
                taken = (cond != 0) if op is Opcode.BNZ else (cond == 0)
            else:
                taken = False  # INV condition: fall through
            if taken:
                next_pc = instr.target
        elif op is Opcode.JMP:
            next_pc = instr.target
        elif op is Opcode.NOP:
            pass
        else:
            a, a_valid = self._read(instr.rs1)
            b, b_valid = self._read(instr.rs2)
            valid = a_valid and b_valid
            if valid:
                try:
                    value = alu_evaluate(op, a, b, instr.imm)
                except (TypeError, ValueError, OverflowError):
                    value, valid = 0, False
            else:
                value = 0
            self.regs[instr.rd] = value
            self.valid[instr.rd] = valid

        self.pc = next_pc
        return True
