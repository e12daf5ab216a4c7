"""Property-based tests (hypothesis) on core invariants.

These exercise the simulator with randomly generated programs and
access patterns and assert structural invariants that must hold for
*any* input: functional/timing agreement, timing-model sanity, cache
bounds, and runahead's non-interference with architectural state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, SimConfig
from repro.core import FunctionalCore, OoOCore
from repro.isa import Opcode, ProgramBuilder
from repro.isa.semantics import alu_evaluate
from repro.memory import Cache, MemoryImage
from repro.techniques import make_technique

# -- random straight-line ALU programs ---------------------------------------

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

_alu_instr = st.tuples(
    st.sampled_from(_ALU_OPS),
    st.integers(1, 7),  # rd
    st.integers(1, 7),  # rs1
    st.integers(1, 7),  # rs2
)


@given(
    seeds=st.lists(st.integers(-1000, 1000), min_size=7, max_size=7),
    body=st.lists(_alu_instr, min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_functional_core_matches_direct_evaluation(seeds, body):
    """Executing a random ALU program equals evaluating it directly."""
    b = ProgramBuilder()
    for reg, value in enumerate(seeds, start=1):
        b.li(f"r{reg}", value)
    for op, rd, rs1, rs2 in body:
        b._emit(op, rd=rd, rs1=rs1, rs2=rs2)
    mem = MemoryImage()
    mem.allocate("pad", 1)
    core = FunctionalCore(b.build(), mem)
    core.run_to_completion()

    regs = [0] * 32
    for reg, value in enumerate(seeds, start=1):
        regs[reg] = value
    for op, rd, rs1, rs2 in body:
        regs[rd] = alu_evaluate(op, regs[rs1], regs[rs2], 0)
    assert core.regs[1:8] == regs[1:8]


@given(
    seeds=st.lists(st.integers(-100, 100), min_size=7, max_size=7),
    body=st.lists(_alu_instr, min_size=1, max_size=25),
)
@settings(max_examples=25, deadline=None)
def test_timing_model_preserves_architectural_results(seeds, body):
    """The OoO core replays the same architectural execution."""
    def build():
        b = ProgramBuilder()
        for reg, value in enumerate(seeds, start=1):
            b.li(f"r{reg}", value)
        for op, rd, rs1, rs2 in body:
            b._emit(op, rd=rd, rs1=rs1, rs2=rs2)
        mem = MemoryImage()
        mem.allocate("pad", 1)
        return b.build(), mem

    program, mem = build()
    reference = FunctionalCore(program, mem)
    reference.run_to_completion()

    program2, mem2 = build()
    core = OoOCore(program2, mem2, SimConfig(max_instructions=10_000))
    result = core.run()
    assert result.instructions == reference.executed
    assert core.stream.regs == reference.regs


@given(
    lines=st.lists(st.integers(0, 500), min_size=1, max_size=200),
    assoc=st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=40, deadline=None)
def test_cache_never_exceeds_geometry(lines, assoc):
    cache = Cache("t", CacheConfig(assoc * 4 * 64, assoc, latency=1))
    for cycle, line in enumerate(lines):
        cache.probe(line, cycle)
        cache.fill(line, cycle)
    total = sum(len(bucket) for bucket in cache._sets.values())
    assert total <= cache.num_sets * cache.assoc
    for bucket in cache._sets.values():
        assert len(bucket) <= cache.assoc


@given(
    n_log=st.integers(6, 10),
    levels=st.integers(1, 3),
    seed=st.integers(0, 99),
    technique=st.sampled_from(["ooo", "pre", "imp", "vr", "dvr"]),
)
@settings(max_examples=15, deadline=None)
def test_techniques_never_corrupt_architectural_state(n_log, levels, seed, technique):
    """Runahead is transient: whatever the technique does, the memory
    image after simulation equals a pure functional run's image."""
    from conftest import build_indirect_kernel

    n = 1 << n_log
    program, mem = build_indirect_kernel(n=n, levels=levels, seed=seed)
    # A freshly built identical kernel serves as the pure-functional
    # reference (same seed => same initial memory).
    program_ref, mem_ref = build_indirect_kernel(n=n, levels=levels, seed=seed)
    ref_core = FunctionalCore(program_ref, mem_ref)
    budget = 2_000
    for _ in range(budget):
        if ref_core.step() is None:
            break

    core = OoOCore(
        program, mem, SimConfig(max_instructions=budget), technique=make_technique(technique)
    )
    result = core.run()
    assert result.instructions == ref_core.executed
    for seg_ref in mem_ref.segments():
        seg = mem.segment(seg_ref.name)
        assert np.array_equal(seg.data, seg_ref.data)


@given(rob=st.sampled_from([64, 128, 350, 700]), seed=st.integers(0, 20))
@settings(max_examples=10, deadline=None)
def test_cycles_scale_sanely_with_rob(rob, seed):
    """No configuration may produce zero or negative timing."""
    from repro.config import CoreConfig

    from conftest import build_indirect_kernel

    program, mem = build_indirect_kernel(n=1024, levels=1, seed=seed)
    cfg = SimConfig(max_instructions=1_500).with_core(CoreConfig().with_scaled_backend(rob))
    result = OoOCore(program, mem, cfg).run()
    assert result.cycles > 0
    assert result.ipc <= cfg.core.width
