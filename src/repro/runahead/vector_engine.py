"""The timed vector-chain executor (the Vector Issue Register model).

This module models what the paper's Vectorizer + VIR + VRAT pipeline
does to one invocation of a speculatively vectorised indirect chain:

* The initiating striding load is replaced by ``lanes`` scalar-equivalent
  copies whose addresses are seeded from the detected stride.
* Every subsequent instruction executes once (scalar) if no source is
  vectorised, or as ``ceil(lanes / vector_width)`` vector copies (16
  AVX-512 copies for 128 lanes in the paper) if any source is vectorised
  — the VRAT distinction between scalar and vector physical registers.
* Vectorised loads behave like gathers: each lane becomes an individual
  L1-D access that allocates its own MSHR, giving the massive MLP of
  Figure 9. A copy cannot issue before the lane values it depends on
  have returned, so each level of indirection costs one memory round
  trip — overlapped across all lanes.
* Branch divergence either masks lanes off against the first lane's
  control flow (Vector Runahead) or pushes the diverged group onto a
  GPU-style reconvergence stack (DVR, Section 4.2.3).

The timing model is slice-based execution with chaining. Each vector
instruction becomes ``ceil(lanes / vector_width)`` *slices* with
per-slice issue times. With ``chaining=True`` a dependent op's slice
issues as soon as its own source slice's operands are ready (independent
of sibling slices), subject to ``issue_width`` slices per cycle (the
config's ``subthread_issue_width``) and a control floor: no slice issues
before the latest branch has resolved. With ``chaining=False`` every
copy issues in order on one global clock, which reproduces the original
flat-gather executor bit for bit; that executor survives as a test
oracle (``tests/oracles/vector_reference.py``) and the differential
suites pin the chaining-off engine to it.

The accounting books (``engine_stats``) balance on every run: every
issued copy is either a scalar copy or a vector slice, every executed
instruction is scalar/vector/no-issue, and every lane either completes
or is invalidated exactly once — the conservation laws the ``vector.*``
audit checks assert.

The executor is a generator so a decoupled engine can advance it
incrementally against the main thread's clock (``advance_to``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..isa.instructions import NUM_REGS, Opcode
from ..isa.program import Program
from ..isa.semantics import ALU_HANDLERS, alu_evaluate
from ..memory.hierarchy import MemoryHierarchy
from ..memory.memory_image import MemoryImage
from .reconvergence import ReconvergenceStack

_SCALAR = 0
_VECTOR = 1

# Vector-copy execute latencies (cycles) by opcode class.
_LAT_MUL = 3
_LAT_DIV = 18


#: The ``vr.engine.*`` counter book every run reports (engine_stats()).
ENGINE_COUNTER_KEYS = (
    "slices",
    "copies",
    "copies.scalar",
    "chain_stalls",
    "prefetches",
    "lanes.total",
    "lanes.completed",
    "lanes.invalidated",
    "instructions",
    "instructions.scalar",
    "instructions.vector",
    "instructions.no_issue",
)


class EngineCounterMixin:
    """Accumulates finished runs' engine books; publishes ``vr.engine.*``.

    Mixed into the VR/DVR techniques ahead of ``Technique`` so the
    engine book rides along with the ``runahead.<name>.*`` publication.
    The book is published even when zero runs spawned, so the
    ``vector.*`` audit checks always see a complete (vacuously
    conserved) family.
    """

    def _init_engine_book(self) -> None:
        self._engine: Dict[str, int] = {key: 0 for key in ENGINE_COUNTER_KEYS}

    def _absorb_engine(self, run: "VectorChainRun") -> None:
        book = self._engine
        for key, value in run.engine_stats().items():
            book[key] += value

    def publish_counters(self, registry) -> None:
        super().publish_counters(registry)
        for key, value in self._engine.items():
            registry.set(f"vr.engine.{key}", value)


def _op_latency(op: Opcode) -> int:
    if op in (Opcode.MUL, Opcode.HASH):
        return _LAT_MUL
    if op is Opcode.DIV:
        return _LAT_DIV
    return 1


class _Group:
    """One set of lanes following a common control-flow path."""

    __slots__ = ("pc", "lanes", "steps")

    def __init__(self, pc: int, lanes: Tuple[int, ...]) -> None:
        self.pc = pc
        self.lanes = lanes
        self.steps = 0


class VectorChainRun:
    """One vectorised invocation: from the striding load to termination."""

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        hierarchy: MemoryHierarchy,
        scalar_regs: Sequence,
        start_pc: int,
        lane_addresses: Sequence[int],
        start_cycle: int,
        end_pc: Optional[int] = None,
        execute_end_pc: bool = True,
        stop_pcs: Sequence[int] = (),
        vector_width: int = 8,
        timeout: int = 200,
        reconvergence: Optional[ReconvergenceStack] = None,
        capture_end_states: bool = False,
        source: str = "runahead",
        stride_map: Optional[Dict[int, int]] = None,
        max_scalar_run: Optional[int] = None,
        chaining: bool = True,
        issue_width: int = 2,
        record_issue_log: bool = False,
    ) -> None:
        self.program = program
        self.memory = memory
        self.hierarchy = hierarchy
        self.start_pc = start_pc
        self.end_pc = end_pc
        self.execute_end_pc = execute_end_pc
        self.stop_pcs = frozenset(stop_pcs)
        self.vector_width = max(1, vector_width)
        self.timeout = timeout
        self.reconvergence = reconvergence
        self.capture_end_states = capture_end_states
        self.source = source
        # Other confident striding loads in the chain (e.g. a weights or
        # values array walked in lockstep with the trigger) are vectorised
        # by their own stride — paper Section 4.1.1: "We can vectorize
        # multiple strides in the same loop".
        self.stride_map = dict(stride_map or {})
        # Without a Final-Load Register (plain VR), the chain is deemed
        # exhausted after this many consecutive non-vector instructions.
        self.max_scalar_run = max_scalar_run
        self.chaining = chaining
        self.issue_width = max(1, issue_width)
        self.lanes = len(lane_addresses)
        self.lane_addresses = list(lane_addresses)
        self.time = start_cycle
        self.finished = self.lanes == 0
        self.finish_time = start_cycle
        # Stats.
        self.prefetches = 0
        self.copies_issued = 0
        self.scalar_copies = 0
        self.slices_issued = 0
        self.chain_stalls = 0
        self.lanes_invalidated = 0
        self.lanes_completed = self.lanes if self.finished else 0
        self.instructions = 0
        self.instr_scalar = 0
        self.instr_vector = 0
        self.instr_no_issue = 0
        # Per-lane register state captured at end_pc (for Nested mode).
        self.end_states: Dict[int, List] = {}
        # Distinct-lane invalidation book: a lane invalidated in a
        # gather stays in its group (carrying None) and can fail again
        # later — it must still count once.
        self._dead: set = set()

        # Register file: kind + scalar value/ready + per-lane value/ready.
        self._kind = [_SCALAR] * NUM_REGS
        self._sval: List = list(scalar_regs)
        self._sready = [start_cycle] * NUM_REGS
        self._vval: List[Optional[List]] = [None] * NUM_REGS
        self._vready: List[Optional[List[int]]] = [None] * NUM_REGS
        self._gen: Optional[Iterator[int]] = None
        # Chained-issue state: per-cycle issued-slice counts (the
        # subthread_issue_width port book) and the control floor (no
        # slice issues before the latest branch has resolved).
        self._port: Dict[int, int] = {}
        self._ctl = start_cycle
        #: Optional (ready, issue) pairs per issued copy, for the
        #: chaining property tests.
        self.issue_log: Optional[List[Tuple[int, int]]] = (
            [] if record_issue_log else None
        )

    # -- public driving ---------------------------------------------------------

    def advance_to(self, cycle: int) -> None:
        """Run until the internal clock passes ``cycle`` (or completion)."""
        if self.finished:
            return
        if self._gen is None:
            self._gen = self._run()
        while not self.finished and self.time <= cycle:
            try:
                next(self._gen)
            except StopIteration:
                break

    def run_to_completion(self) -> None:
        self.advance_to(1 << 62)

    def engine_stats(self) -> Dict[str, int]:
        """The ``vr.engine.*`` counter book for this run."""
        return {
            "slices": self.slices_issued,
            "copies": self.copies_issued,
            "copies.scalar": self.scalar_copies,
            "chain_stalls": self.chain_stalls,
            "prefetches": self.prefetches,
            "lanes.total": self.lanes,
            "lanes.completed": self.lanes_completed,
            "lanes.invalidated": self.lanes_invalidated,
            "instructions": self.instructions,
            "instructions.scalar": self.instr_scalar,
            "instructions.vector": self.instr_vector,
            "instructions.no_issue": self.instr_no_issue,
        }

    # -- register helpers --------------------------------------------------------

    def _lane_value(self, reg: int, lane: int):
        if self._kind[reg] == _SCALAR:
            return self._sval[reg]
        return self._vval[reg][lane]

    def _write_scalar(self, reg: int, value, ready: int) -> None:
        self._kind[reg] = _SCALAR
        self._sval[reg] = value
        self._sready[reg] = ready

    def _ensure_vector(self, reg: int) -> None:
        """Promote a scalar register to vector form (fresh VRAT mapping)."""
        if self._kind[reg] == _VECTOR:
            return
        self._kind[reg] = _VECTOR
        self._vval[reg] = [self._sval[reg]] * self.lanes
        self._vready[reg] = [self._sready[reg]] * self.lanes

    def _invalidate(self, lane: int) -> None:
        """Count a lane out at most once, no matter how often it fails."""
        dead = self._dead
        if lane not in dead:
            dead.add(lane)
            self.lanes_invalidated += 1

    def _finish(self) -> None:
        self.finished = True
        self.finish_time = self.time
        self.lanes_completed = self.lanes - len(self._dead)

    # -- the slice issue port ----------------------------------------------------

    def _slice_issue(self, ready: int) -> int:
        """Issue one copy: returns its issue cycle and advances the clock.

        Chaining off: the legacy serialized model — every copy issues at
        ``max(time, ready)`` and bumps the global clock. Chaining on:
        the copy issues at the first cycle >= ``ready`` with a free
        issue slot (``issue_width`` copies per cycle); ``self.time``
        becomes a high-water mark.
        """
        if not self.chaining:
            t = self.time
            if ready > t:
                t = ready
            if self.issue_log is not None:
                self.issue_log.append((ready, t))
            self.time = t + 1
            return t
        port = self._port
        cap = self.issue_width
        t = ready
        n = port.get(t, 0)
        while n >= cap:
            t += 1
            n = port.get(t, 0)
        port[t] = n + 1
        if self.issue_log is not None:
            self.issue_log.append((ready, t))
        if t >= self.time:
            self.time = t + 1
        return t

    # -- the slice engine --------------------------------------------------------

    def _run(self) -> Iterator[int]:
        """The slice engine: one yield per executed instruction."""
        group = _Group(self.start_pc, tuple(range(self.lanes)))
        stack = self.reconvergence
        scalar_run = 0
        # The seeded striding load itself (vectorised via the stride).
        seeded = self.lane_addresses
        first = True
        global_budget = self.timeout * 16
        instrs = self.program.instructions
        stride_map = self.stride_map

        while True:
            if group is None or not group.lanes:
                popped = stack.pop() if stack else None
                if popped is None:
                    break
                group = _Group(popped.pc, popped.lanes)
                # A reconvergence pop switches control-flow paths: the
                # FLR-less exhaustion counter tracks the *current*
                # path's scalar prefix and must not leak across groups.
                scalar_run = 0
                continue
            pc = group.pc
            terminate = False
            if not 0 <= pc < len(instrs):
                terminate = True
            elif not first and pc in self.stop_pcs:
                terminate = True
            elif group.steps >= self.timeout or global_budget <= 0:
                terminate = True
            elif self.max_scalar_run is not None and scalar_run > self.max_scalar_run:
                terminate = True
            if not terminate and self.end_pc is not None and pc == self.end_pc and not first:
                if self.execute_end_pc:
                    instr = instrs[pc]
                    if instr.is_load:
                        self._sl_vector_load(group, instr)
                        self.instructions += 1
                        self.instr_vector += 1
                        yield self.time
                else:
                    self._capture(group)
                terminate = True
            if terminate:
                group = None
                continue

            instr = instrs[pc]
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
                lanes = group.lanes
                self._sl_gather_const(
                    lanes, instr.rd, [seeded[lane] for lane in lanes], base_ready
                )
                self.instr_vector += 1
                if instr.rs1 is not None and instr.rs1 != instr.rd:
                    self._ensure_vector(instr.rs1)
                    vv = self._vval[instr.rs1]
                    vr = self._vready[instr.rs1]
                    for lane in lanes:
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

            kind = self._kind
            vectorised = any(kind[src] == _VECTOR for src in instr.sources())
            if vectorised or pc in stride_map:
                scalar_run = 0
            else:
                scalar_run += 1

            if op in (Opcode.BNZ, Opcode.BEZ):
                if vectorised:
                    self.instr_vector += 1
                else:
                    self.instr_scalar += 1
                group = self._sl_branch(group, instr, vectorised)
                yield self.time
                continue

            if op is Opcode.LOAD:
                if vectorised:
                    self.instr_vector += 1
                    self._sl_vector_load(group, instr)
                elif pc in stride_map:
                    self._sl_secondary_stride_load(group, instr, pc)
                else:
                    self.instr_scalar += 1
                    self._sl_scalar_load(instr)
                group.pc = pc + 1
                yield self.time
                continue

            # ALU-class instruction.
            if vectorised:
                self.instr_vector += 1
                self._sl_vector_alu(group, instr)
            else:
                self.instr_scalar += 1
                self._sl_scalar_alu(instr)
            group.pc = pc + 1
            yield self.time

        self._finish()

    # -- slice-engine per-class execution ----------------------------------------

    def _sl_scalar_alu(self, instr) -> None:
        rs1 = instr.rs1
        rs2 = instr.rs2
        sval = self._sval
        sready = self._sready
        a = sval[rs1] if rs1 is not None else None
        b = sval[rs2] if rs2 is not None else None
        ready = self._ctl
        if rs1 is not None and sready[rs1] > ready:
            ready = sready[rs1]
        if rs2 is not None and sready[rs2] > ready:
            ready = sready[rs2]
        if (rs1 is not None and a is None) or (rs2 is not None and b is None):
            value = None
        else:
            try:
                value = alu_evaluate(instr.opcode, a, b, instr.imm)
            except (TypeError, ValueError, OverflowError):
                value = None
        issue = self._slice_issue(ready)
        self.copies_issued += 1
        self.scalar_copies += 1
        self._write_scalar(instr.rd, value, issue + _op_latency(instr.opcode))

    def _sl_scalar_load(self, instr) -> None:
        rs1 = instr.rs1
        base = self._sval[rs1]
        ready = self._sready[rs1]
        if self._ctl > ready:
            ready = self._ctl
        issue = self._slice_issue(ready)
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
        # prefetch_ready translates under a TLB (speculative source:
        # runahead.tlb_policy may drop the gather at an L2-TLB miss).
        ready = self.hierarchy.prefetch_ready(addr, issue, self.source)
        self.prefetches += 1
        self._write_scalar(instr.rd, value, ready)

    def _sl_secondary_stride_load(self, group: _Group, instr, pc: int) -> None:
        """A non-tainted load that the RPT knows strides: vectorise it by
        its own stride from the current scalar address (lane l covers
        iteration l+1 into the future, matching the trigger's seeding)."""
        rs1 = instr.rs1
        base = self._sval[rs1]
        data_ready = self._sready[rs1]
        if base is None or not isinstance(base, int):
            # The copy still issues (and counts) even when its base is
            # unknown — all issue paths count uniformly.
            self.instr_scalar += 1
            ready = data_ready
            if self._ctl > ready:
                ready = self._ctl
            issue = self._slice_issue(ready)
            self.copies_issued += 1
            self.scalar_copies += 1
            self._write_scalar(instr.rd, None, issue)
            return
        self.instr_vector += 1
        stride = self.stride_map[pc]
        addr0 = base + instr.imm
        lanes = group.lanes
        self._sl_gather_const(
            lanes,
            instr.rd,
            [addr0 + stride * (lane + 1) for lane in lanes],
            data_ready,
        )

    def _sl_gather_const(
        self, lanes: Tuple[int, ...], rd: int, addrs: List, data_ready: int
    ) -> None:
        """Gather whose per-lane addresses and readiness are precomputed
        (the seeded trigger load and secondary striding loads)."""
        self._ensure_vector(rd)
        dval = self._vval[rd]
        dready = self._vready[rd]
        width = self.vector_width
        ctl = self._ctl
        floor = data_ready if data_ready > ctl else ctl
        read = self.memory.read_word_speculative
        prefetch_ready = self.hierarchy.prefetch_ready
        source = self.source
        invalidate = self._invalidate
        slice_issue = self._slice_issue
        n = len(lanes)
        for i in range(0, n, width):
            issue = slice_issue(floor)
            if issue > data_ready:
                self.chain_stalls += 1
            self.copies_issued += 1
            self.slices_issued += 1
            top = i + width
            if top > n:
                top = n
            for j in range(i, top):
                lane = lanes[j]
                addr = addrs[j]
                if addr is None or not isinstance(addr, int) or addr < 0:
                    dval[lane] = None
                    dready[lane] = issue
                    invalidate(lane)
                    continue
                value, mapped = read(addr)
                if not mapped:
                    dval[lane] = None
                    dready[lane] = issue
                    invalidate(lane)
                    continue
                self.prefetches += 1
                dval[lane] = value
                dready[lane] = prefetch_ready(addr, issue, source)

    def _sl_vector_load(self, group: _Group, instr) -> None:
        """The hot gather: per-slice issue, bulk per-lane processing."""
        rd = instr.rd
        rs1 = instr.rs1
        imm = instr.imm
        self._ensure_vector(rd)
        dval = self._vval[rd]
        dready = self._vready[rd]
        src_scalar = self._kind[rs1] == _SCALAR
        if src_scalar:
            sbase = self._sval[rs1]
            const_ready = self._sready[rs1]
            sv = sr = None
        else:
            sbase = const_ready = None
            sv = self._vval[rs1]
            sr = self._vready[rs1]
        lanes = group.lanes
        width = self.vector_width
        ctl = self._ctl
        read = self.memory.read_word_speculative
        prefetch_ready = self.hierarchy.prefetch_ready
        source = self.source
        invalidate = self._invalidate
        slice_issue = self._slice_issue
        n = len(lanes)
        for i in range(0, n, width):
            chunk = lanes[i : i + width]
            if src_scalar:
                data_ready = const_ready
            else:
                data_ready = 0
                for lane in chunk:
                    r = sr[lane]
                    if r > data_ready:
                        data_ready = r
            floor = data_ready if data_ready > ctl else ctl
            issue = slice_issue(floor)
            if issue > data_ready:
                self.chain_stalls += 1
            self.copies_issued += 1
            self.slices_issued += 1
            for lane in chunk:
                base = sbase if src_scalar else sv[lane]
                if base is None or not isinstance(base, int):
                    dval[lane] = None
                    dready[lane] = issue
                    invalidate(lane)
                    continue
                addr = base + imm
                if addr < 0:
                    dval[lane] = None
                    dready[lane] = issue
                    invalidate(lane)
                    continue
                value, mapped = read(addr)
                if not mapped:
                    dval[lane] = None
                    dready[lane] = issue
                    invalidate(lane)
                    continue
                self.prefetches += 1
                dval[lane] = value
                dready[lane] = prefetch_ready(addr, issue, source)

    def _sl_vector_alu(self, group: _Group, instr) -> None:
        rd = instr.rd
        rs1 = instr.rs1
        rs2 = instr.rs2
        op = instr.opcode
        imm = instr.imm
        self._ensure_vector(rd)
        dval = self._vval[rd]
        dready = self._vready[rd]
        kind = self._kind
        s1 = rs1 is not None and kind[rs1] == _SCALAR
        s2 = rs2 is not None and kind[rs2] == _SCALAR
        a_const = self._sval[rs1] if s1 else None
        b_const = self._sval[rs2] if s2 else None
        v1 = self._vval[rs1] if (rs1 is not None and not s1) else None
        r1 = self._vready[rs1] if (rs1 is not None and not s1) else None
        v2 = self._vval[rs2] if (rs2 is not None and not s2) else None
        r2 = self._vready[rs2] if (rs2 is not None and not s2) else None
        base_ready = 0
        if s1:
            base_ready = self._sready[rs1]
        if s2 and self._sready[rs2] > base_ready:
            base_ready = self._sready[rs2]
        lat = _op_latency(op)
        has1 = rs1 is not None
        has2 = rs2 is not None
        lanes = group.lanes
        width = self.vector_width
        ctl = self._ctl
        slice_issue = self._slice_issue
        handler = ALU_HANDLERS.get(op)
        n = len(lanes)
        for i in range(0, n, width):
            chunk = lanes[i : i + width]
            data_ready = base_ready
            if r1 is not None:
                for lane in chunk:
                    r = r1[lane]
                    if r > data_ready:
                        data_ready = r
            if r2 is not None:
                for lane in chunk:
                    r = r2[lane]
                    if r > data_ready:
                        data_ready = r
            floor = data_ready if data_ready > ctl else ctl
            issue = slice_issue(floor)
            if issue > data_ready:
                self.chain_stalls += 1
            self.copies_issued += 1
            self.slices_issued += 1
            done = issue + lat
            for lane in chunk:
                a = a_const if s1 else (v1[lane] if v1 is not None else None)
                b = b_const if s2 else (v2[lane] if v2 is not None else None)
                if handler is None or (has1 and a is None) or (has2 and b is None):
                    dval[lane] = None
                else:
                    try:
                        dval[lane] = handler(a, b, imm)
                    except (TypeError, ValueError, OverflowError):
                        dval[lane] = None
                dready[lane] = done

    def _sl_branch(self, group: _Group, instr, vectorised: bool) -> Optional[_Group]:
        pc = group.pc
        taken_target = instr.target
        rs1 = instr.rs1
        if not vectorised:
            cond = self._sval[rs1]
            ready = self._sready[rs1]
            if self._ctl > ready:
                ready = self._ctl
            issue = self._slice_issue(ready)
            self.copies_issued += 1
            self.scalar_copies += 1
            self._ctl = issue + 1
            if cond is None:
                # Lost track of scalar control flow: terminate the group.
                return None
            taken = (cond != 0) if instr.opcode is Opcode.BNZ else (cond == 0)
            group.pc = taken_target if taken else pc + 1
            return group
        # Vector condition: evaluate per slice.
        vval = self._vval[rs1]
        vready = self._vready[rs1]
        is_bnz = instr.opcode is Opcode.BNZ
        taken_lanes: List[int] = []
        fall_lanes: List[int] = []
        lanes = group.lanes
        width = self.vector_width
        ctl = self._ctl
        invalidate = self._invalidate
        slice_issue = self._slice_issue
        last_issue = ctl
        n = len(lanes)
        for i in range(0, n, width):
            chunk = lanes[i : i + width]
            data_ready = 0
            for lane in chunk:
                r = vready[lane]
                if r > data_ready:
                    data_ready = r
            floor = data_ready if data_ready > ctl else ctl
            issue = slice_issue(floor)
            if issue > data_ready:
                self.chain_stalls += 1
            self.copies_issued += 1
            self.slices_issued += 1
            if issue > last_issue:
                last_issue = issue
            for lane in chunk:
                cond = vval[lane]
                if cond is None:
                    invalidate(lane)
                    continue
                taken = (cond != 0) if is_bnz else (cond == 0)
                (taken_lanes if taken else fall_lanes).append(lane)
        # Control floor: later ops wait for the branch to resolve.
        self._ctl = last_issue + 1
        return self._branch_route(group, pc, taken_target, taken_lanes, fall_lanes)

    def _branch_route(
        self,
        group: _Group,
        pc: int,
        taken_target: int,
        taken_lanes: List[int],
        fall_lanes: List[int],
    ) -> Optional[_Group]:
        """Route the lane partitions (shared, timing-free bookkeeping)."""
        if not taken_lanes and not fall_lanes:
            return None
        if not taken_lanes:
            group.lanes = tuple(fall_lanes)
            group.pc = pc + 1
            return group
        if not fall_lanes:
            group.lanes = tuple(taken_lanes)
            group.pc = taken_target
            return group
        # Divergence.
        first_lane = group.lanes[0]
        if first_lane in taken_lanes:
            lead_lanes, lead_pc = taken_lanes, taken_target
            other_lanes, other_pc = fall_lanes, pc + 1
        else:
            lead_lanes, lead_pc = fall_lanes, pc + 1
            other_lanes, other_pc = taken_lanes, taken_target
        if self.reconvergence is not None:
            if not self.reconvergence.push(other_pc, tuple(other_lanes)):
                for lane in other_lanes:
                    self._invalidate(lane)
        else:
            # VR semantics: lanes that diverge from the first scalar-
            # equivalent lane are invalidated.
            for lane in other_lanes:
                self._invalidate(lane)
        group.lanes = tuple(lead_lanes)
        group.pc = lead_pc
        return group

    # -- end-state capture (Nested Discovery Mode) --------------------------------

    def _capture(self, group: _Group) -> None:
        if not self.capture_end_states:
            return
        for lane in group.lanes:
            if lane in self.end_states:
                continue
            self.end_states[lane] = [
                self._lane_value(reg, lane) for reg in range(NUM_REGS)
            ]
