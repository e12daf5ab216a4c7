"""Instruction set definition: opcodes, operand shapes, classification."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

NUM_REGS = 32
ZERO_REG = 0  # r0 reads as written value but conventionally holds 0


class Opcode(enum.Enum):
    """Every operation the simulator understands."""

    # Immediate / moves
    LI = enum.auto()        # rd <- imm
    MOV = enum.auto()       # rd <- rs1
    # Integer ALU
    ADD = enum.auto()       # rd <- rs1 + rs2
    ADDI = enum.auto()      # rd <- rs1 + imm
    SUB = enum.auto()       # rd <- rs1 - rs2
    MUL = enum.auto()       # rd <- rs1 * rs2
    DIV = enum.auto()       # rd <- rs1 // rs2 (0 if rs2 == 0)
    AND = enum.auto()       # rd <- rs1 & rs2
    ANDI = enum.auto()      # rd <- rs1 & imm
    OR = enum.auto()        # rd <- rs1 | rs2
    XOR = enum.auto()       # rd <- rs1 ^ rs2
    SHLI = enum.auto()      # rd <- rs1 << imm
    SHRI = enum.auto()      # rd <- rs1 >> imm
    HASH = enum.auto()      # rd <- hash64(rs1) (mult-class latency)
    # Floating point (values live in the same register file)
    FADD = enum.auto()      # rd <- rs1 + rs2 (float)
    FMUL = enum.auto()      # rd <- rs1 * rs2 (float)
    FDIV = enum.auto()      # rd <- rs1 / rs2 (float, 0.0 if rs2 == 0)
    # Memory (byte addresses; accesses are 8-byte words)
    LOAD = enum.auto()      # rd <- M[rs1 + imm]
    STORE = enum.auto()     # M[rs1 + imm] <- rs2
    PREFETCH = enum.auto()  # non-binding hint: fetch M[rs1 + imm]
    # Compares (write 0/1 into rd; feed conditional branches)
    CMP_LT = enum.auto()    # rd <- rs1 < rs2
    CMP_EQ = enum.auto()    # rd <- rs1 == rs2
    CMP_LTI = enum.auto()   # rd <- rs1 < imm
    # Control flow
    BNZ = enum.auto()       # branch to target if rs1 != 0
    BEZ = enum.auto()       # branch to target if rs1 == 0
    JMP = enum.auto()       # unconditional branch
    # Misc
    NOP = enum.auto()
    HALT = enum.auto()


class OperandKind(enum.Enum):
    """How an instruction uses its operand slots (for validation)."""

    NONE = enum.auto()
    RD_IMM = enum.auto()          # LI
    RD_RS1 = enum.auto()          # MOV, HASH
    RD_RS1_RS2 = enum.auto()      # three-register ALU
    RD_RS1_IMM = enum.auto()      # ADDI/ANDI/shifts/CMP_LTI/LOAD
    RS1_RS2_IMM = enum.auto()     # STORE
    RS1_IMM = enum.auto()         # PREFETCH
    RS1_TARGET = enum.auto()      # BNZ/BEZ
    TARGET = enum.auto()          # JMP


_OPERAND_SHAPE = {
    Opcode.LI: OperandKind.RD_IMM,
    Opcode.MOV: OperandKind.RD_RS1,
    Opcode.HASH: OperandKind.RD_RS1,
    Opcode.ADD: OperandKind.RD_RS1_RS2,
    Opcode.SUB: OperandKind.RD_RS1_RS2,
    Opcode.MUL: OperandKind.RD_RS1_RS2,
    Opcode.DIV: OperandKind.RD_RS1_RS2,
    Opcode.AND: OperandKind.RD_RS1_RS2,
    Opcode.OR: OperandKind.RD_RS1_RS2,
    Opcode.XOR: OperandKind.RD_RS1_RS2,
    Opcode.FADD: OperandKind.RD_RS1_RS2,
    Opcode.FMUL: OperandKind.RD_RS1_RS2,
    Opcode.FDIV: OperandKind.RD_RS1_RS2,
    Opcode.CMP_LT: OperandKind.RD_RS1_RS2,
    Opcode.CMP_EQ: OperandKind.RD_RS1_RS2,
    Opcode.ADDI: OperandKind.RD_RS1_IMM,
    Opcode.ANDI: OperandKind.RD_RS1_IMM,
    Opcode.SHLI: OperandKind.RD_RS1_IMM,
    Opcode.SHRI: OperandKind.RD_RS1_IMM,
    Opcode.CMP_LTI: OperandKind.RD_RS1_IMM,
    Opcode.LOAD: OperandKind.RD_RS1_IMM,
    Opcode.STORE: OperandKind.RS1_RS2_IMM,
    Opcode.PREFETCH: OperandKind.RS1_IMM,
    Opcode.BNZ: OperandKind.RS1_TARGET,
    Opcode.BEZ: OperandKind.RS1_TARGET,
    Opcode.JMP: OperandKind.TARGET,
    Opcode.NOP: OperandKind.NONE,
    Opcode.HALT: OperandKind.NONE,
}

LOADS = frozenset({Opcode.LOAD})
_LOAD = Opcode.LOAD
STORES = frozenset({Opcode.STORE})
PREFETCHES = frozenset({Opcode.PREFETCH})
MEMORY_OPS = LOADS | STORES | PREFETCHES
CONDITIONAL_BRANCHES = frozenset({Opcode.BNZ, Opcode.BEZ})
BRANCHES = CONDITIONAL_BRANCHES | {Opcode.JMP}
COMPARES = frozenset({Opcode.CMP_LT, Opcode.CMP_EQ, Opcode.CMP_LTI})
FLOAT_OPS = frozenset({Opcode.FADD, Opcode.FMUL, Opcode.FDIV})
# Integer ops usable in address computation (relevant for taint tracking).
INT_ALU_OPS = frozenset(
    {
        Opcode.LI,
        Opcode.MOV,
        Opcode.ADD,
        Opcode.ADDI,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.AND,
        Opcode.ANDI,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHLI,
        Opcode.SHRI,
        Opcode.HASH,
    }
) | COMPARES


def is_address_op(op: Opcode) -> bool:
    """True for ops that can participate in address computation."""
    return op in INT_ALU_OPS or op in LOADS


def reg_name(index: int) -> str:
    return f"r{index}"


@dataclass(frozen=True)
class Instruction:
    """A static instruction. ``target`` is a resolved PC after assembly."""

    opcode: Opcode
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[int] = None
    # Free-form annotation (e.g. "inner-stride") used by tests/debugging.
    note: str = ""

    @property
    def shape(self) -> OperandKind:
        return _OPERAND_SHAPE[self.opcode]

    @property
    def is_load(self) -> bool:
        # LOADS has one member: an identity test against a module
        # constant skips the Enum hash that a frozenset lookup pays.
        return self.opcode is _LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode in STORES

    @property
    def is_prefetch(self) -> bool:
        return self.opcode in PREFETCHES

    @property
    def is_mem(self) -> bool:
        return self.opcode in MEMORY_OPS

    @property
    def is_branch(self) -> bool:
        return self.opcode in BRANCHES

    @property
    def is_conditional_branch(self) -> bool:
        return self.opcode in CONDITIONAL_BRANCHES

    @property
    def is_compare(self) -> bool:
        return self.opcode in COMPARES

    @property
    def is_float(self) -> bool:
        return self.opcode in FLOAT_OPS

    def sources(self) -> tuple:
        """Architectural source registers read by this instruction."""
        srcs = []
        if self.rs1 is not None:
            srcs.append(self.rs1)
        if self.rs2 is not None:
            srcs.append(self.rs2)
        return tuple(srcs)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.opcode.name.lower()]
        if self.rd is not None:
            parts.append(reg_name(self.rd))
        if self.rs1 is not None:
            parts.append(reg_name(self.rs1))
        if self.rs2 is not None:
            parts.append(reg_name(self.rs2))
        if self.shape in (
            OperandKind.RD_IMM,
            OperandKind.RD_RS1_IMM,
            OperandKind.RS1_RS2_IMM,
            OperandKind.RS1_IMM,
        ):
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"@{self.target}")
        return " ".join(parts)
