"""Architectural (functional) execution of a program.

The timing core is execution-driven at fetch: the functional stage,
:meth:`FunctionalCore.fill`, architecturally executes the next chunk of
the program into the columns of an
:class:`~repro.perf.trace.ArchTrace`, and the kernel applies each
store to the shared memory image at that instruction's turn, so
speculative interpreters (runahead engines) observe memory as of the
fetch point — see DESIGN.md for why this is faithful.

One loop runs the pre-decoded program (:mod:`repro.isa.predecode`: one
list index selects a per-PC specialized closure, so there is no
per-step opcode dispatch and no ``Instruction`` attribute chasing),
beside one reference:

* :meth:`FunctionalCore.fill` — the stage the timing kernel reads;
  :meth:`FunctionalCore.run_to_completion` runs a program functionally
  over it, applying each chunk's stores in order;
* :meth:`FunctionalCore.step_reference` — the original interpreter,
  kept verbatim as the executable specification, one
  :class:`DynInstr` per call. The differential suite
  (``tests/test_stream_stage.py``) asserts ``fill`` produces its stream
  over random programs, the audit's ``functional.equivalence``
  re-executes runs with it, the test oracles step with it, and the
  ``repro bench`` harness measures ``fill`` against it.
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

    def __init__(self, program: Program, memory: MemoryImage) -> None:
        self.program = program
        self.memory = memory
        self.pc = 0
        self.regs: List = [0] * NUM_REGS
        self.halted = False
        self.executed = 0
        # Pre-decoded handlers: decoded once and cached on the Program,
        # so every core that runs it shares them.
        decoded = program.decoded()
        self._handlers = decoded.handlers
        self._kinds = decoded.kinds
        self._plen = len(decoded.instrs)
        self._undo: list = []
        self._undo_image = _UndoImage(memory, self._undo)

    def fill(self, trace: ArchTrace, upto: int) -> None:
        """Append the stream's next chunk to ``trace``'s columns.

        Executes at most :data:`~repro.perf.trace.CHUNK` instructions,
        and never past ``upto`` instructions in all; HALT ends the
        stream (its ``next_pcs`` entry is its own pc, as
        :meth:`step_reference` reports it). Each store writes the shared
        image as it executes, so later loads of the chunk read it, and
        logs the word it overwrote; the log is rolled back before ``fill``
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

        One :class:`DynInstr` per call, None once the program has
        halted; a store writes the image as it executes. :meth:`fill`
        produces the same stream; the differential tests, the audit's
        re-execution and the test oracles step with this, and it is the
        baseline of every ``repro bench`` kernel.
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

        Fills the stream a chunk at a time and applies each chunk's
        stores in order, as the timing kernel does, keeping no chunk.
        A handler that raises (unmapped store, type error from garbage
        register values) rolls its chunk's stores back with the fill,
        so the image is left as of the last whole chunk.
        """
        stream = ArchTrace()
        kinds = self._kinds
        write_word = self.memory.write_word
        while not self.halted:
            if self.executed >= max_instructions:
                raise SimulationError(
                    f"program did not halt within {max_instructions} instructions"
                )
            self.fill(stream, len(stream) + max_instructions - self.executed)
            pcs, values, addrs, _, _ = stream.chunks.pop()
            for j, pc in enumerate(pcs):
                if kinds[pc] == K_STORE:
                    write_word(addrs[j], values[j])
        return self.executed
