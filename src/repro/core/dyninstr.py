"""Dynamic (executed) instruction records: ``FunctionalCore.step``'s output.

The timing kernel reads the architectural stream as columns
(``repro.perf.trace``); these records serve the step-by-step
interpreters, the test oracles and the bench harness.
"""

from __future__ import annotations

from typing import Optional, Union

from ..isa.instructions import Instruction


class DynInstr:
    """One executed instruction with its actual values.

    Runahead engines never see these (they re-interpret the static
    program themselves).
    """

    __slots__ = ("seq", "pc", "instr", "value", "addr", "taken", "next_pc")

    def __init__(
        self,
        seq: int,
        pc: int,
        instr: Instruction,
        value: Union[int, float, None] = None,
        addr: Optional[int] = None,
        taken: Optional[bool] = None,
        next_pc: int = 0,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.instr = instr
        self.value = value  # destination value (loads: loaded data)
        self.addr = addr  # byte address for memory ops
        self.taken = taken  # conditional branches only
        self.next_pc = next_pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.addr is not None:
            extra = f" addr=0x{self.addr:x}"
        if self.taken is not None:
            extra += f" taken={self.taken}"
        return f"<#{self.seq} pc={self.pc} {self.instr}{extra}>"
