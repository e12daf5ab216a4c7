"""Differential tests for the pre-decoded kernel and trace replay.

The fast path (:meth:`FunctionalCore.step`, per-PC specialized
closures) must be bit-identical to the original interpreter
(:meth:`FunctionalCore.step_reference`, kept verbatim as the spec) —
hypothesis drives both over randomly generated programs mixing ALU
ops, loads, stores, prefetches, and a conditional loop, comparing the
full ``DynInstr`` stream and every piece of architectural state.

The replay half asserts the ``repro.perf`` claim: a cached
architectural trace replayed into a timing run produces *exactly* the
result of a from-scratch run — same counters, same cycles, same golden
trace digest — across every (technique, workload) combination of the
golden suite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FunctionalCore
from repro.errors import SimulationError
from repro.experiments.cache import BATCH_COUNTERS
from repro.experiments.runner import run_simulation
from repro.isa import Opcode, ProgramBuilder
from repro.memory import MemoryImage
from repro.perf.trace import (
    ArchTrace,
    ReplaySource,
    capture_arch_trace,
    clear_trace_memo,
)

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


@given(
    seeds=st.lists(st.integers(-1000, 1000), min_size=7, max_size=7),
    body=st.lists(_body_item, min_size=1, max_size=20),
    iterations=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_capture_replay_matches_live_stream(seeds, body, iterations):
    """A captured trace replays the exact live DynInstr stream."""
    program, mem = _build(seeds, body, iterations)
    trace = capture_arch_trace(program, mem, limit=100_000)
    assert trace.halted

    program2, mem2 = _build(seeds, body, iterations)
    live = FunctionalCore(program2, mem2)
    replay = ReplaySource(trace, program2, mem2)
    while True:
        a = replay.step()
        b = live.step()
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
        assert a.instr is b.instr
    # Stores were re-applied: the replayed image equals the live one.
    for seg in mem2.segments():
        assert np.array_equal(mem.segment(seg.name).data, seg.data)


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

def test_arch_trace_payload_round_trip():
    trace = ArchTrace(
        pcs=[0, 1, 2],
        values=[None, 5, None],
        addrs=[None, 64, 72],
        takens=[None, None, None],
        next_pcs=[1, 2, 3],
        halted=True,
    )
    clone = ArchTrace.from_payload(trace.to_payload())
    assert len(clone) == 3
    for field in ("pcs", "values", "addrs", "takens", "next_pcs", "halted"):
        assert getattr(clone, field) == getattr(trace, field)


def test_arch_trace_rejects_foreign_schema():
    payload = ArchTrace([], [], [], [], [], True).to_payload()
    payload["schema"] = "something/else"
    with pytest.raises(ValueError):
        ArchTrace.from_payload(payload)


def test_replay_source_raises_past_truncated_trace():
    """A budget-truncated trace must never silently run dry."""
    program, mem = _build([1] * 7, [("nop",)], iterations=4)
    trace = capture_arch_trace(program, mem, limit=3)
    assert not trace.halted
    program2, mem2 = _build([1] * 7, [("nop",)], iterations=4)
    source = ReplaySource(trace, program2, mem2)
    for _ in range(3):
        assert source.step() is not None
    with pytest.raises(SimulationError):
        source.step()


def test_replay_source_returns_none_after_halt():
    program, mem = _build([1] * 7, [("nop",)], iterations=1)
    trace = capture_arch_trace(program, mem, limit=100_000)
    assert trace.halted
    program2, mem2 = _build([1] * 7, [("nop",)], iterations=1)
    source = ReplaySource(trace, program2, mem2)
    while source.step() is not None:
        pass
    assert source.step() is None  # stays exhausted, no raise
