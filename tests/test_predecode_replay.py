"""Differential tests for the pre-decoded kernel and trace replay.

The fast path (:meth:`FunctionalCore.step`, per-PC specialized
closures) must be bit-identical to the original interpreter
(:meth:`FunctionalCore.step_reference`, kept verbatim as the spec) —
hypothesis drives both over randomly generated programs mixing ALU
ops, loads, stores, prefetches, and a conditional loop, comparing the
full ``DynInstr`` stream and every piece of architectural state. The
functional stage (:meth:`FunctionalCore.fill`) is pinned against the
same programs in ``tests/test_stream_stage.py``.

The replay half asserts the ``repro.perf`` claim: a memoised
architectural stream replayed into a timing run produces *exactly* the
result of a from-scratch run — same counters, same cycles, same golden
trace digest — across every (technique, workload) combination of the
golden suite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core import FunctionalCore, OoOCore
from repro.errors import SimulationError
from repro.experiments.cache import BATCH_COUNTERS
from repro.experiments.runner import run_simulation
from repro.isa import Opcode, ProgramBuilder
from repro.memory import MemoryImage
from repro.perf.trace import ArchTrace, clear_trace_memo

# -- random mixed programs ----------------------------------------------------

_ALU_OPS = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.CMP_LT,
    Opcode.CMP_EQ,
]

_BUF_WORDS = 16

_body_item = st.one_of(
    st.tuples(
        st.just("alu"),
        st.sampled_from(_ALU_OPS),
        st.integers(1, 7),  # rd
        st.integers(1, 7),  # rs1
        st.integers(1, 7),  # rs2
    ),
    st.tuples(st.just("load"), st.integers(1, 7), st.integers(0, _BUF_WORDS - 1)),
    st.tuples(st.just("store"), st.integers(1, 7), st.integers(0, _BUF_WORDS - 1)),
    st.tuples(st.just("prefetch"), st.integers(0, _BUF_WORDS - 1)),
    st.tuples(st.just("nop")),
)


def _build(seeds, body, iterations):
    """One program/memory pair: seeded regs, a counted loop of ``body``."""
    mem = MemoryImage()
    seg = mem.allocate("buf", _BUF_WORDS)
    b = ProgramBuilder()
    for reg, value in enumerate(seeds, start=1):
        b.li(f"r{reg}", value)
    b.li("r8", seg.base)
    b.li("r9", iterations)
    b.label("loop")
    for item in body:
        kind = item[0]
        if kind == "alu":
            _, op, rd, rs1, rs2 = item
            b._emit(op, rd=rd, rs1=rs1, rs2=rs2)
        elif kind == "load":
            _, rd, word = item
            b.load(f"r{rd}", "r8", imm=8 * word)
        elif kind == "store":
            _, rs2, word = item
            b.store(f"r{rs2}", "r8", imm=8 * word)
        elif kind == "prefetch":
            b.prefetch("r8", imm=8 * item[1])
        else:
            b.nop()
    b.addi("r9", "r9", -1)
    b.bnz("r9", "loop")
    b.bez("r9", "done")
    b.nop()  # skipped: the BEZ above is always taken at loop exit
    b.label("done")
    return b.build(), mem


@given(
    seeds=st.lists(st.integers(-1000, 1000), min_size=7, max_size=7),
    body=st.lists(_body_item, min_size=1, max_size=20),
    iterations=st.integers(1, 4),
)
@settings(max_examples=50, deadline=None)
def test_fast_path_matches_reference_interpreter(seeds, body, iterations):
    """step() and step_reference() emit identical DynInstr streams."""
    program, mem = _build(seeds, body, iterations)
    fast = FunctionalCore(program, mem)
    program_ref, mem_ref = _build(seeds, body, iterations)
    ref = FunctionalCore(program_ref, mem_ref)

    for _ in range(100_000):
        a = fast.step()
        b = ref.step_reference()
        if a is None or b is None:
            assert (a is None) and (b is None)
            break
        assert (a.seq, a.pc, a.value, a.addr, a.taken, a.next_pc) == (
            b.seq,
            b.pc,
            b.value,
            b.addr,
            b.taken,
            b.next_pc,
        )
        # Instruction identity must come from the live program object.
        assert a.instr is program[a.pc]

    assert fast.halted and ref.halted
    assert fast.regs == ref.regs
    assert (fast.pc, fast.executed) == (ref.pc, ref.executed)
    for seg_ref in mem_ref.segments():
        assert np.array_equal(mem.segment(seg_ref.name).data, seg_ref.data)


# -- replay vs from-scratch over the golden suite -----------------------------

_INSTRUCTIONS = 1_500
_COMBOS = [
    (t, w)
    for t in ("ooo", "vr", "dvr", "pre")
    for w in ("camel", "nas_is")
]


@pytest.mark.parametrize("technique,workload", _COMBOS)
def test_replay_matches_from_scratch_on_goldens(technique, workload):
    """Cached-trace replay is bit-identical to a from-scratch run."""
    clear_trace_memo()
    fresh = run_simulation(
        workload, technique, max_instructions=_INSTRUCTIONS, trace=True, replay="off"
    )
    # First auto run captures the stream, second replays it.
    captured = run_simulation(
        workload, technique, max_instructions=_INSTRUCTIONS, trace=True
    )
    before = BATCH_COUNTERS.snapshot().get("batch.trace.replays", 0)
    replayed = run_simulation(
        workload, technique, max_instructions=_INSTRUCTIONS, trace=True
    )
    assert BATCH_COUNTERS.snapshot().get("batch.trace.replays", 0) == before + 1
    assert captured.to_dict() == fresh.to_dict()
    assert replayed.to_dict() == fresh.to_dict()
    assert replayed.trace_digest == fresh.trace_digest


def test_streams_are_technique_independent():
    """One captured stream serves every technique of a workload."""
    clear_trace_memo()
    run_simulation("camel", "ooo", max_instructions=_INSTRUCTIONS)  # capture
    before = BATCH_COUNTERS.snapshot().get("batch.trace.replays", 0)
    for technique in ("vr", "dvr", "pre"):
        live = run_simulation(
            "camel", technique, max_instructions=_INSTRUCTIONS, trace=True,
            replay="off",
        )
        shared = run_simulation(
            "camel", technique, max_instructions=_INSTRUCTIONS, trace=True
        )
        assert shared.to_dict() == live.to_dict()
    # Exactly one replay per shared run; the live runs never replay.
    assert BATCH_COUNTERS.snapshot().get("batch.trace.replays", 0) == before + 3


# -- unit coverage ------------------------------------------------------------

def _filled(program, mem, limit):
    """The stream of ``program`` over ``mem``, cut at ``limit`` steps."""
    stream = ArchTrace()
    stage = FunctionalCore(program, mem)
    while len(stream) < limit and not stream.halted:
        stage.fill(stream, limit)
    return stream


def test_truncated_stream_raises_past_its_budget():
    """A budget-truncated memoised stream must never silently run dry."""
    program, mem = _build([1] * 7, [("nop",)], iterations=4)
    stream = _filled(program, mem, limit=3)
    assert not stream.halted and len(stream) == 3
    program2, mem2 = _build([1] * 7, [("nop",)], iterations=4)
    core = OoOCore(program2, mem2, SimConfig(max_instructions=4), stream=stream)
    with pytest.raises(SimulationError):
        core.run()
    # Within its budget the same stream replays to the end.
    program3, mem3 = _build([1] * 7, [("nop",)], iterations=4)
    core = OoOCore(program3, mem3, SimConfig(max_instructions=3), stream=stream)
    assert core.run().instructions == 3


def test_halted_stream_ends_the_run():
    """A halted memoised stream ends the run early, with no raise."""
    program, mem = _build([1] * 7, [("nop",)], iterations=1)
    stream = _filled(program, mem, limit=100_000)
    assert stream.halted
    cfg = SimConfig(max_instructions=100_000)
    program2, mem2 = _build([1] * 7, [("nop",)], iterations=1)
    replayed = OoOCore(program2, mem2, cfg, stream=stream).run()
    program3, mem3 = _build([1] * 7, [("nop",)], iterations=1)
    fresh = OoOCore(program3, mem3, cfg).run()
    assert replayed.instructions == len(stream) < 100_000
    assert replayed.to_dict() == fresh.to_dict()
