"""The original flat-gather vector executor, kept as a test oracle.

``repro.runahead.vector_engine.VectorChainRun`` executes a vectorised
chain as per-slice work with optional chaining. This subclass swaps its
generator for the executor the slice engine was rebuilt from: one global
clock, every copy issuing at ``max(time, operand readiness)``, and
gathers scheduled through the unfused ``load_needs_mshr`` /
``mshr_next_free`` / ``access`` sequence. With chaining off the slice
engine must match it bit for bit (``tests/test_vector_slice_engine.py``,
``tests/test_oracle_fuzz.py``). The ``chaining`` and ``issue_width``
arguments are accepted and ignored.

Full-run suites install it with :func:`use_reference_engine`, which
monkeypatches the name VR and DVR construct their runs from.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.isa.instructions import Opcode
from repro.isa.semantics import alu_evaluate
from repro.runahead import dvr, vr
from repro.runahead.vector_engine import (
    _SCALAR,
    _VECTOR,
    VectorChainRun,
    _Group,
    _op_latency,
)


def use_reference_engine(monkeypatch) -> None:
    """Make VR and DVR build :class:`ReferenceVectorChainRun` runs."""
    monkeypatch.setattr(vr, "VectorChainRun", ReferenceVectorChainRun)
    monkeypatch.setattr(dvr, "VectorChainRun", ReferenceVectorChainRun)


class ReferenceVectorChainRun(VectorChainRun):
    """:class:`VectorChainRun` driven by the reference executor."""

    def _lane_ready(self, reg: int, lane: int) -> int:
        if self._kind[reg] == _SCALAR:
            return self._sready[reg]
        return self._vready[reg][lane]

    def _lane_chunks(self, lanes: Tuple[int, ...]):
        for i in range(0, len(lanes), self.vector_width):
            yield lanes[i : i + self.vector_width]

    def _issue_gather(
        self, lanes: Tuple[int, ...], rd: int, addr_of, first_visit: bool
    ) -> None:
        """Issue one vectorised load: per-lane scalar accesses + MSHRs."""
        self._ensure_vector(rd)
        vval = self._vval[rd]
        vready = self._vready[rd]
        hierarchy = self.hierarchy
        memory = self.memory
        for chunk in self._lane_chunks(lanes):
            data_ready = 0
            for lane in chunk:
                ready = addr_of(lane)[1]
                if ready > data_ready:
                    data_ready = ready
            issue = self.time
            if issue > data_ready:
                self.chain_stalls += 1
            else:
                issue = data_ready
            self.time = issue + 1
            self.copies_issued += 1
            self.slices_issued += 1
            for lane in chunk:
                addr, _ = addr_of(lane)
                if addr is None or not isinstance(addr, int) or addr < 0:
                    vval[lane] = None
                    vready[lane] = issue
                    self._invalidate(lane)
                    continue
                value, mapped = memory.read_word_speculative(addr)
                if not mapped:
                    vval[lane] = None
                    vready[lane] = issue
                    self._invalidate(lane)
                    continue
                t = issue
                if hierarchy.load_needs_mshr(addr, t) and not hierarchy.mshr_available(t):
                    t = max(t, hierarchy.mshr_next_free(t))
                result = hierarchy.access(addr, t, source=self.source, prefetch=True)
                self.prefetches += 1
                vval[lane] = value
                vready[lane] = result.ready

    def _run(self) -> Iterator[int]:
        """The flat-gather executor: one global clock, one copy per cycle."""
        group = _Group(self.start_pc, tuple(range(self.lanes)))
        stack = self.reconvergence
        scalar_run = 0
        # The seeded striding load itself (vectorised via the stride).
        seeded = {lane: self.lane_addresses[lane] for lane in group.lanes}
        first = True
        global_budget = self.timeout * 16

        while True:
            if group is None or not group.lanes:
                popped = stack.pop() if stack else None
                if popped is None:
                    break
                group = _Group(popped.pc, popped.lanes)
                # A reconvergence pop switches control-flow paths: the
                # FLR-less exhaustion counter must not leak across groups.
                scalar_run = 0
                continue
            pc = group.pc
            terminate = False
            if not 0 <= pc < len(self.program):
                terminate = True
            elif not first and pc in self.stop_pcs:
                terminate = True
            elif group.steps >= self.timeout or global_budget <= 0:
                terminate = True
            elif self.max_scalar_run is not None and scalar_run > self.max_scalar_run:
                terminate = True
            if not terminate and self.end_pc is not None and pc == self.end_pc and not first:
                if self.execute_end_pc:
                    instr = self.program[pc]
                    if instr.is_load:
                        self._execute_vector_load(group, instr)
                        self.instructions += 1
                        self.instr_vector += 1
                        yield self.time
                else:
                    self._capture(group)
                terminate = True
            if terminate:
                group = None
                continue

            instr = self.program[pc]
            op = instr.opcode
            group.steps += 1
            global_budget -= 1
            self.instructions += 1

            if first:
                # Execute the seeded striding load across all lanes. The
                # address register is vectorised too (VRAT seeding), so
                # offset loads from the same base (e.g. row[u+1]) compute
                # per-lane addresses.
                base_ready = self.time
                self._issue_gather(
                    group.lanes,
                    instr.rd,
                    lambda lane: (seeded[lane], base_ready),
                    first_visit=True,
                )
                self.instr_vector += 1
                if instr.rs1 is not None and instr.rs1 != instr.rd:
                    self._ensure_vector(instr.rs1)
                    vv = self._vval[instr.rs1]
                    vr = self._vready[instr.rs1]
                    for lane in group.lanes:
                        vv[lane] = seeded[lane] - instr.imm
                        vr[lane] = base_ready
                group.pc = pc + 1
                first = False
                yield self.time
                continue

            if op is Opcode.HALT:
                self.instr_no_issue += 1
                group = None
                continue
            if op is Opcode.STORE or op is Opcode.PREFETCH:
                # Transient execution: stores are dropped, and software
                # prefetch hints are redundant inside the subthread.
                self.instr_no_issue += 1
                group.pc = pc + 1
                continue
            if op is Opcode.JMP:
                self.instr_no_issue += 1
                group.pc = instr.target
                continue

            vectorised = any(
                self._kind[src] == _VECTOR for src in instr.sources()
            )
            if vectorised or pc in self.stride_map:
                scalar_run = 0
            else:
                scalar_run += 1

            if op in (Opcode.BNZ, Opcode.BEZ):
                if vectorised:
                    self.instr_vector += 1
                else:
                    self.instr_scalar += 1
                group = self._execute_branch(group, instr, vectorised)
                yield self.time
                continue

            if op is Opcode.LOAD:
                if vectorised:
                    self.instr_vector += 1
                    self._execute_vector_load(group, instr)
                elif pc in self.stride_map:
                    self._execute_secondary_stride_load(group, instr, pc)
                else:
                    self.instr_scalar += 1
                    self._execute_scalar_load(instr)
                group.pc = pc + 1
                yield self.time
                continue

            # ALU-class instruction.
            if vectorised:
                self.instr_vector += 1
                self._execute_vector_alu(group, instr)
            else:
                self.instr_scalar += 1
                self._execute_scalar_alu(instr)
            group.pc = pc + 1
            yield self.time

        self._finish()

    def _execute_scalar_alu(self, instr) -> None:
        a = self._sval[instr.rs1] if instr.rs1 is not None else None
        b = self._sval[instr.rs2] if instr.rs2 is not None else None
        ready = self.time
        for src in instr.sources():
            ready = max(ready, self._sready[src])
        if (instr.rs1 is not None and a is None) or (instr.rs2 is not None and b is None):
            value = None
        else:
            try:
                value = alu_evaluate(instr.opcode, a, b, instr.imm)
            except (TypeError, ValueError, OverflowError):
                value = None
        issue = max(self.time, ready)
        self.time = issue + 1
        self.copies_issued += 1
        self.scalar_copies += 1
        self._write_scalar(instr.rd, value, issue + _op_latency(instr.opcode))

    def _execute_scalar_load(self, instr) -> None:
        base = self._sval[instr.rs1]
        ready = max(self.time, self._sready[instr.rs1])
        issue = ready
        self.time = issue + 1
        self.copies_issued += 1
        self.scalar_copies += 1
        if base is None or not isinstance(base, int):
            self._write_scalar(instr.rd, None, issue)
            return
        addr = base + instr.imm
        value, mapped = self.memory.read_word_speculative(addr)
        if not mapped:
            self._write_scalar(instr.rd, None, issue)
            return
        t = issue
        hierarchy = self.hierarchy
        if hierarchy.load_needs_mshr(addr, t) and not hierarchy.mshr_available(t):
            t = max(t, hierarchy.mshr_next_free(t))
        result = hierarchy.access(addr, t, source=self.source, prefetch=True)
        self.prefetches += 1
        self._write_scalar(instr.rd, value, result.ready)

    def _execute_secondary_stride_load(self, group: _Group, instr, pc: int) -> None:
        """A non-tainted load that the RPT knows strides: vectorise it by
        its own stride from the current scalar address (lane l covers
        iteration l+1 into the future, matching the trigger's seeding)."""
        base = self._sval[instr.rs1]
        data_ready = self._sready[instr.rs1]
        if base is None or not isinstance(base, int):
            # The copy still issues (and counts) even when its base is
            # unknown — all issue paths count uniformly.
            self.instr_scalar += 1
            issue = max(self.time, data_ready)
            self.time = issue + 1
            self.copies_issued += 1
            self.scalar_copies += 1
            self._write_scalar(instr.rd, None, issue)
            return
        self.instr_vector += 1
        stride = self.stride_map[pc]
        addr0 = base + instr.imm

        def addr_of(lane: int):
            return addr0 + stride * (lane + 1), data_ready

        self._issue_gather(group.lanes, instr.rd, addr_of, first_visit=False)

    def _execute_vector_alu(self, group: _Group, instr) -> None:
        self._ensure_vector(instr.rd)
        vval = self._vval[instr.rd]
        vready = self._vready[instr.rd]
        for chunk in self._lane_chunks(group.lanes):
            data_ready = 0
            for lane in chunk:
                for src in instr.sources():
                    r = self._lane_ready(src, lane)
                    if r > data_ready:
                        data_ready = r
            issue = self.time
            if issue > data_ready:
                self.chain_stalls += 1
            else:
                issue = data_ready
            self.time = issue + 1
            self.copies_issued += 1
            self.slices_issued += 1
            done = issue + _op_latency(instr.opcode)
            for lane in chunk:
                a = self._lane_value(instr.rs1, lane) if instr.rs1 is not None else None
                b = self._lane_value(instr.rs2, lane) if instr.rs2 is not None else None
                if (instr.rs1 is not None and a is None) or (
                    instr.rs2 is not None and b is None
                ):
                    vval[lane] = None
                else:
                    try:
                        vval[lane] = alu_evaluate(instr.opcode, a, b, instr.imm)
                    except (TypeError, ValueError, OverflowError):
                        vval[lane] = None
                vready[lane] = done

    def _execute_vector_load(self, group: _Group, instr) -> None:
        rs1 = instr.rs1
        imm = instr.imm

        def addr_of(lane: int):
            base = self._lane_value(rs1, lane)
            if base is None or not isinstance(base, int):
                return None, self._lane_ready(rs1, lane)
            return base + imm, self._lane_ready(rs1, lane)

        self._issue_gather(group.lanes, instr.rd, addr_of, first_visit=False)

    def _execute_branch(self, group: _Group, instr, vectorised: bool) -> Optional[_Group]:
        pc = group.pc
        taken_target = instr.target
        if not vectorised:
            cond = self._sval[instr.rs1]
            issue = max(self.time, self._sready[instr.rs1])
            self.time = issue + 1
            self.copies_issued += 1
            self.scalar_copies += 1
            if cond is None:
                # Lost track of scalar control flow: terminate the group.
                return None
            taken = (cond != 0) if instr.opcode is Opcode.BNZ else (cond == 0)
            group.pc = taken_target if taken else pc + 1
            return group
        # Vector condition: evaluate per lane.
        taken_lanes: List[int] = []
        fall_lanes: List[int] = []
        for chunk in self._lane_chunks(group.lanes):
            data_ready = 0
            for lane in chunk:
                r = self._lane_ready(instr.rs1, lane)
                if r > data_ready:
                    data_ready = r
            issue = self.time
            if issue > data_ready:
                self.chain_stalls += 1
            else:
                issue = data_ready
            self.time = issue + 1
            self.copies_issued += 1
            self.slices_issued += 1
            for lane in chunk:
                cond = self._lane_value(instr.rs1, lane)
                if cond is None:
                    self._invalidate(lane)
                    continue
                taken = (cond != 0) if instr.opcode is Opcode.BNZ else (cond == 0)
                (taken_lanes if taken else fall_lanes).append(lane)
        return self._branch_route(group, pc, taken_target, taken_lanes, fall_lanes)
