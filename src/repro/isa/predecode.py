"""Pre-decoded program representation: the simulation fast path.

The original interpreter (``FunctionalCore.step_reference``, kept as
the spec) re-decodes every instruction on every dynamic execution: an
``Opcode`` enum identity chain (up to eight comparisons before even
reaching :func:`~repro.isa.semantics.alu_evaluate`, itself another
~20-way chain), fresh attribute lookups on the frozen
``Instruction`` dataclass, and a bounds check per step. This module
lowers a :class:`~repro.isa.program.Program` once into flat parallel
arrays plus one *specialized closure per PC* — threaded code in the
classic interpreter sense: the ADDI at pc 7 becomes a function whose
body is literally ``regs[rd] = regs[rs1] + imm`` with ``rd``/``rs1``/
``imm`` captured as locals, no dispatch left to do at run time.

Handlers share one calling convention::

    value, addr, taken, next_pc = handler(regs, memory)

``next_pc is None`` signals HALT. ``value`` is the destination value
and, for a store, the stored word: the architectural stream's columns
keep it so a consumer can apply the store later (``DynInstr.value``
stays None for stores). Handlers have *identical architectural
semantics* to the reference interpreter; the differential property
tests in ``tests/test_stream_stage.py`` pin this over random programs
(through ``FunctionalCore.fill``, the one loop that runs them), and the
golden-trace digests pin it over the real workloads.

The flat arrays (``kinds``, ``fu_classes``, ``op_values``, operand
indices) are consumed by the timing cores, which previously paid an
``Opcode``-enum dict lookup and attribute chase per dynamic instruction.

Decoding is cached on the ``Program`` (see :meth:`Program.decoded`), so
the cost is paid once per static program, not once per run.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .instructions import Instruction, Opcode
from .semantics import hash64

# Dispatch kind codes (dense small ints; order matters for the range
# tests below — keep branches contiguous).
K_ALU = 0
K_LOAD = 1
K_STORE = 2
K_PREFETCH = 3
K_BNZ = 4
K_BEZ = 5
K_JMP = 6
K_NOP = 7
K_HALT = 8

_KIND_OF = {
    Opcode.LOAD: K_LOAD,
    Opcode.STORE: K_STORE,
    Opcode.PREFETCH: K_PREFETCH,
    Opcode.BNZ: K_BNZ,
    Opcode.BEZ: K_BEZ,
    Opcode.JMP: K_JMP,
    Opcode.NOP: K_NOP,
    Opcode.HALT: K_HALT,
}

# Functional-unit classes (canonical home; ``core.ooo`` maps them to
# dense integer codes).
FU_INT = "int"
FU_MUL = "mul"
FU_DIV = "div"
FU_FADD = "fadd"
FU_FMUL = "fmul"
FU_FDIV = "fdiv"
FU_MEM = "mem"

OP_FU_CLASS = {
    Opcode.MUL: FU_MUL,
    Opcode.HASH: FU_MUL,
    Opcode.DIV: FU_DIV,
    Opcode.FADD: FU_FADD,
    Opcode.FMUL: FU_FMUL,
    Opcode.FDIV: FU_FDIV,
    Opcode.LOAD: FU_MEM,
    Opcode.STORE: FU_MEM,
    Opcode.PREFETCH: FU_MEM,
}

# handler(regs, memory) -> (value, addr, taken, next_pc); next_pc None = halt.
Handler = Callable[[list, object], Tuple[object, Optional[int], Optional[bool], Optional[int]]]


def _make_handler(instr: Instruction, fall: int) -> Handler:
    """Build the specialized closure for one static instruction.

    ``fall`` is the fall-through PC (``pc + 1``). Every operand the
    instruction uses is captured as a closure cell, so the returned
    function touches no ``Instruction`` attributes and performs no
    opcode dispatch.
    """
    op = instr.opcode
    rd = instr.rd
    rs1 = instr.rs1
    rs2 = instr.rs2
    imm = instr.imm
    target = instr.target

    if op is Opcode.HALT:
        def h(regs, memory):
            return None, None, None, None
        return h
    if op is Opcode.LOAD:
        def h(regs, memory):
            addr = int(regs[rs1]) + imm
            value = memory.read_word(addr)
            regs[rd] = value
            return value, addr, None, fall
        return h
    if op is Opcode.STORE:
        def h(regs, memory):
            addr = int(regs[rs1]) + imm
            value = regs[rs2]
            memory.write_word(addr, value)
            return value, addr, None, fall
        return h
    if op is Opcode.PREFETCH:
        # Non-binding hint: computes an address, never faults.
        def h(regs, memory):
            base = regs[rs1]
            addr = int(base) + imm if isinstance(base, int) else None
            return None, addr, None, fall
        return h
    if op is Opcode.BNZ:
        def h(regs, memory):
            taken = regs[rs1] != 0
            return None, None, taken, (target if taken else fall)
        return h
    if op is Opcode.BEZ:
        def h(regs, memory):
            taken = regs[rs1] == 0
            return None, None, taken, (target if taken else fall)
        return h
    if op is Opcode.JMP:
        def h(regs, memory):
            return None, None, None, target
        return h
    if op is Opcode.NOP:
        def h(regs, memory):
            return None, None, None, fall
        return h

    # ALU family: one closure per opcode, semantics identical to
    # ``alu_evaluate`` (division by zero yields 0, floats coerce, etc.).
    if op is Opcode.LI:
        def h(regs, memory):
            regs[rd] = imm
            return imm, None, None, fall
        return h
    if op is Opcode.MOV:
        def h(regs, memory):
            value = regs[rs1]
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.ADD:
        def h(regs, memory):
            value = regs[rs1] + regs[rs2]
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.ADDI:
        def h(regs, memory):
            value = regs[rs1] + imm
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.SUB:
        def h(regs, memory):
            value = regs[rs1] - regs[rs2]
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.MUL:
        def h(regs, memory):
            value = regs[rs1] * regs[rs2]
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.DIV:
        def h(regs, memory):
            b = regs[rs2]
            value = regs[rs1] // b if b else 0
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.AND:
        def h(regs, memory):
            value = regs[rs1] & regs[rs2]
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.ANDI:
        def h(regs, memory):
            value = regs[rs1] & imm
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.OR:
        def h(regs, memory):
            value = regs[rs1] | regs[rs2]
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.XOR:
        def h(regs, memory):
            value = regs[rs1] ^ regs[rs2]
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.SHLI:
        def h(regs, memory):
            value = regs[rs1] << imm
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.SHRI:
        def h(regs, memory):
            value = regs[rs1] >> imm
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.HASH:
        def h(regs, memory):
            value = hash64(regs[rs1])
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.CMP_LT:
        def h(regs, memory):
            value = 1 if regs[rs1] < regs[rs2] else 0
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.CMP_EQ:
        def h(regs, memory):
            value = 1 if regs[rs1] == regs[rs2] else 0
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.CMP_LTI:
        def h(regs, memory):
            value = 1 if regs[rs1] < imm else 0
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.FADD:
        def h(regs, memory):
            value = float(regs[rs1]) + float(regs[rs2])
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.FMUL:
        def h(regs, memory):
            value = float(regs[rs1]) * float(regs[rs2])
            regs[rd] = value
            return value, None, None, fall
        return h
    if op is Opcode.FDIV:
        def h(regs, memory):
            b = regs[rs2]
            value = float(regs[rs1]) / float(b) if b else 0.0
            regs[rd] = value
            return value, None, None, fall
        return h
    raise ValueError(f"cannot pre-decode {op}")  # pragma: no cover


class DecodedProgram:
    """Flat, index-by-PC lowering of a program.

    Everything the hot loops need is a list indexed by PC; the
    ``Instruction`` objects themselves are kept (``instrs``) so
    :class:`~repro.core.dyninstr.DynInstr` records stay identity-equal
    to ``program[pc]`` and downstream consumers (techniques, tests) see
    no difference.
    """

    __slots__ = (
        "instrs",
        "handlers",
        "kinds",
        "fu_classes",
        "op_values",
        "rd",
        "rs1",
        "rs2",
    )

    def __init__(self, instructions: Tuple[Instruction, ...]) -> None:
        self.instrs = instructions
        self.handlers: List[Handler] = [
            _make_handler(instr, pc + 1) for pc, instr in enumerate(instructions)
        ]
        self.kinds: List[int] = [
            _KIND_OF.get(instr.opcode, K_ALU) for instr in instructions
        ]
        self.fu_classes: List[str] = [
            OP_FU_CLASS.get(instr.opcode, FU_INT) for instr in instructions
        ]
        self.op_values: List[int] = [instr.opcode.value for instr in instructions]
        self.rd: List[Optional[int]] = [instr.rd for instr in instructions]
        self.rs1: List[Optional[int]] = [instr.rs1 for instr in instructions]
        self.rs2: List[Optional[int]] = [instr.rs2 for instr in instructions]

    def __len__(self) -> int:
        return len(self.instrs)


def decode_program(program) -> DecodedProgram:
    """Lower ``program`` (a :class:`Program` or instruction sequence)."""
    instructions = getattr(program, "instructions", None)
    if instructions is None:
        instructions = tuple(program)
    return DecodedProgram(tuple(instructions))
