"""Architectural (functional) execution of a program.

The timing core is execution-driven at fetch: the functional stage,
:meth:`FunctionalCore.fill`, architecturally executes the next chunk of
the program into the columns of an
:class:`~repro.perf.trace.ArchTrace`, and the kernel applies each
store to the shared memory image at that instruction's turn, so
speculative interpreters (runahead engines) observe memory as of the
fetch point — see DESIGN.md for why this is faithful.

Three entry points share the pre-decoded program
(:mod:`repro.isa.predecode`: one list index selects a per-PC
specialized closure, so there is no per-step opcode dispatch and no
``Instruction`` attribute chasing) and one reference:

* :meth:`FunctionalCore.fill` — the stage the timing kernel reads;
* :meth:`FunctionalCore.step` — one :class:`DynInstr` per call, for
  the test oracles and the ``repro bench`` harness;
* :meth:`FunctionalCore.run_to_completion` — functional-only runs;
* :meth:`FunctionalCore.step_reference` — the original interpreter,
  kept verbatim as the executable specification. The differential
  property suite (``tests/test_predecode_replay.py``) asserts the
  others produce its stream over random programs, and the
  ``repro bench`` harness measures the fast paths against it.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from ..errors import SimulationError
from ..isa.instructions import NUM_REGS, Instruction, Opcode
from ..isa.predecode import K_STORE
from ..isa.program import Program
from ..isa.semantics import alu_evaluate
from ..memory.memory_image import MemoryImage
from ..perf.trace import CHUNK, ArchTrace
from .dyninstr import DynInstr


class _UndoImage:
    """The image as a fill's handlers see it: reads pass through, and
    each write first logs the word it overwrites to ``undo``."""

    __slots__ = ("read_word", "write_word")

    def __init__(self, memory: MemoryImage, undo: list) -> None:
        self.read_word = memory.read_word
        self.write_word = partial(memory.write_word, undo=undo)


class FunctionalCore:
    """Sequential interpreter with architectural register state."""

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        entry: int = 0,
        initial_regs: Optional[List] = None,
    ) -> None:
        self.program = program
        self.memory = memory
        self.pc = entry
        self.regs: List = list(initial_regs) if initial_regs else [0] * NUM_REGS
        if len(self.regs) != NUM_REGS:
            raise SimulationError("initial register file has wrong size")
        self.halted = False
        self.executed = 0
        # Pre-decoded fast path: hoisted once, shared across every core
        # that runs this program (decode is cached on the Program).
        decoded = program.decoded() if isinstance(program, Program) else None
        if decoded is None:
            from ..isa.predecode import decode_program

            decoded = decode_program(program)
        self._handlers = decoded.handlers
        self._instrs = decoded.instrs
        self._kinds = decoded.kinds
        self._plen = len(decoded.instrs)
        self._undo: list = []
        self._undo_image = _UndoImage(memory, self._undo)

    def step(self) -> Optional[DynInstr]:
        """Execute one instruction; None once the program has halted."""
        if self.halted:
            return None
        pc = self.pc
        if 0 <= pc < self._plen:
            value, addr, taken, next_pc = self._handlers[pc](self.regs, self.memory)
        else:
            raise SimulationError(f"PC out of range: {pc}")
        seq = self.executed
        self.executed = seq + 1
        if next_pc is None:
            self.halted = True
            return DynInstr(seq, pc, self._instrs[pc], next_pc=pc)
        self.pc = next_pc
        if self._kinds[pc] == K_STORE:
            value = None  # the handler's value is the stored word
        return DynInstr(seq, pc, self._instrs[pc], value, addr, taken, next_pc)

    def fill(self, trace: ArchTrace, upto: int) -> None:
        """Append the stream's next chunk to ``trace``'s columns.

        Executes at most :data:`~repro.perf.trace.CHUNK` instructions,
        and never past ``upto`` instructions in all; HALT ends the
        stream (its ``next_pcs`` entry is its own pc, as
        :meth:`step` reports it). Each store writes the shared image as
        it executes, so later loads of the chunk read it, and logs the
        word it overwrote; the log is rolled back before ``fill``
        returns, also when a handler raises, so the image is left as
        the fill found it. The consumer applies each store (its word is
        in ``values``) at that instruction's turn, and must have applied
        every store of a chunk before it asks for the next. Afterwards
        ``trace`` carries the register file and halt state.
        """
        if self.halted:
            return
        budget = min(CHUNK, upto - trace.length)
        handlers = self._handlers
        regs = self.regs
        memory = self._undo_image
        plen = self._plen
        pcs: list = []
        values: list = []
        addrs: list = []
        takens: list = []
        next_pcs: list = []
        pcs_append = pcs.append
        values_append = values.append
        addrs_append = addrs.append
        takens_append = takens.append
        next_append = next_pcs.append
        pc = self.pc
        n = 0
        try:
            while n < budget:
                if not 0 <= pc < plen:
                    raise SimulationError(f"PC out of range: {pc}")
                value, addr, taken, next_pc = handlers[pc](regs, memory)
                n += 1
                pcs_append(pc)
                values_append(value)
                addrs_append(addr)
                takens_append(taken)
                if next_pc is None:
                    self.halted = True
                    next_append(pc)
                    break
                next_append(next_pc)
                pc = next_pc
        finally:
            undo = self._undo
            while undo:
                view, index, old = undo.pop()
                view[index] = old
            self.pc = pc
            self.executed += n
        trace.chunks.append((pcs, values, addrs, takens, next_pcs))
        trace.length += n
        trace.halted = self.halted
        trace.regs = list(regs)

    def step_reference(self) -> Optional[DynInstr]:
        """The original (un-predecoded) interpreter, kept as the spec.

        Bit-identical to :meth:`step`; used by the differential tests
        and as the baseline of the ``repro bench`` functional kernel.
        """
        if self.halted:
            return None
        if not 0 <= self.pc < len(self.program):
            raise SimulationError(f"PC out of range: {self.pc}")
        instr: Instruction = self.program[self.pc]
        op = instr.opcode
        seq = self.executed
        pc = self.pc
        value = None
        addr = None
        taken = None
        next_pc = pc + 1

        if op is Opcode.HALT:
            self.halted = True
            dyn = DynInstr(seq, pc, instr, next_pc=pc)
            self.executed += 1
            return dyn
        if op is Opcode.LOAD:
            addr = int(self.regs[instr.rs1]) + instr.imm
            value = self.memory.read_word(addr)
            self.regs[instr.rd] = value
        elif op is Opcode.STORE:
            addr = int(self.regs[instr.rs1]) + instr.imm
            self.memory.write_word(addr, self.regs[instr.rs2])
        elif op is Opcode.PREFETCH:
            # Non-binding hint: computes an address, never faults.
            base = self.regs[instr.rs1]
            addr = int(base) + instr.imm if isinstance(base, int) else None
        elif op is Opcode.BNZ:
            taken = self.regs[instr.rs1] != 0
            if taken:
                next_pc = instr.target
        elif op is Opcode.BEZ:
            taken = self.regs[instr.rs1] == 0
            if taken:
                next_pc = instr.target
        elif op is Opcode.JMP:
            next_pc = instr.target
        elif op is Opcode.NOP:
            pass
        else:
            a = self.regs[instr.rs1] if instr.rs1 is not None else None
            b = self.regs[instr.rs2] if instr.rs2 is not None else None
            value = alu_evaluate(op, a, b, instr.imm)
            self.regs[instr.rd] = value

        self.pc = next_pc
        self.executed += 1
        return DynInstr(seq, pc, instr, value=value, addr=addr, taken=taken, next_pc=next_pc)

    def run_to_completion(self, max_instructions: int = 10_000_000) -> int:
        """Run functionally only (no timing); returns instruction count.

        This path needs no :class:`DynInstr` records at all, so it runs
        the handlers directly with everything hoisted into locals —
        the alloc-free bulk loop of the pre-decoded kernel.
        """
        handlers = self._handlers
        regs = self.regs
        memory = self.memory
        plen = self._plen
        pc = self.pc
        executed = self.executed
        try:
            while not self.halted:
                if executed >= max_instructions:
                    raise SimulationError(
                        f"program did not halt within {max_instructions} instructions"
                    )
                if not 0 <= pc < plen:
                    raise SimulationError(f"PC out of range: {pc}")
                next_pc = handlers[pc](regs, memory)[3]
                executed += 1
                if next_pc is None:
                    self.halted = True
                    break
                pc = next_pc
        finally:
            # Keep observable state consistent even if a handler raised
            # (unmapped store, type error from garbage register values).
            self.pc = pc
            self.executed = executed
        return executed
