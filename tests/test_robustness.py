"""Adversarial robustness: every technique must survive arbitrary
programs (garbage addresses, weird control flow, degenerate loops)
without crashing, hanging, or corrupting architectural state.

Runahead is transient execution over speculative values — the engines
routinely compute wild addresses and follow wrong paths, and the paper's
hardware never faults on them. Neither may we.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FunctionalCore, OoOCore
from repro.isa import Opcode, ProgramBuilder
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.memory import MemoryImage
from repro.techniques import make_technique

from conftest import quick_config

_TECHNIQUES = ["pre", "runahead", "imp", "vr", "dvr", "continuous"]


def _random_program(rng, n_instructions, n_segments, seg_words, striding=False):
    """A random but *terminating* program: a bounded counted loop whose
    body is random ALU/memory/branch soup. With ``striding`` the body
    opens with a striding load the soup can chain indirect loads off —
    the shape Vector Runahead vectorises."""
    mem = MemoryImage()
    bases = []
    for k in range(n_segments):
        seg = mem.allocate(f"S{k}", rng.integers(0, 1 << 20, seg_words))
        bases.append(seg.base)
    b = ProgramBuilder()
    for reg, base in enumerate(bases, start=20):
        b.li(f"r{reg}", int(base))
    b.li("r1", 0)
    b.li("r2", 300)  # trip count
    b.label("loop")
    if striding:
        b.andi("r14", "r1", seg_words - 1)
        b.shli("r14", "r14", 3)
        b.add("r14", "r20", "r14")
        b.load("r3", "r14")
    label_count = 0
    for k in range(n_instructions):
        choice = rng.integers(0, 8)
        rd = f"r{int(rng.integers(3, 12))}"
        rs = f"r{int(rng.integers(3, 12))}"
        rt = f"r{int(rng.integers(3, 12))}"
        if choice == 0:
            # Masked load from a random segment: always in bounds.
            base_reg = f"r{int(rng.integers(20, 20 + n_segments))}"
            b.andi(rd, rs, seg_words - 1)
            b.shli(rd, rd, 3)
            b.add(rd, base_reg, rd)
            b.load(rd, rd)
        elif choice == 1:
            b.hash(rd, rs)
        elif choice == 2:
            b.add(rd, rs, rt)
        elif choice == 3:
            b.xor(rd, rs, rt)
        elif choice == 4:
            # Forward branch over one instruction.
            label = f"fwd{label_count}"
            label_count += 1
            b.bnz(rs, label)
            b.addi(rd, rd, 1)
            b.label(label)
        elif choice == 5:
            base_reg = f"r{int(rng.integers(20, 20 + n_segments))}"
            b.andi(rd, rs, seg_words - 1)
            b.shli(rd, rd, 3)
            b.add(rd, base_reg, rd)
            b.store(rt, rd)
        elif choice == 6:
            b.cmp_lt(rd, rs, rt)
        else:
            b.shri(rd, rs, int(rng.integers(0, 4)))
    b.addi("r1", "r1", 1)
    b.cmp_lt("r13", "r1", "r2")
    b.bnz("r13", "loop")
    return b.build(), mem


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_random_programs_run_under_every_technique(seed):
    rng = np.random.default_rng(seed)
    n_instructions = int(rng.integers(4, 16))
    technique = _TECHNIQUES[seed % len(_TECHNIQUES)]
    program, mem = _random_program(rng, n_instructions, n_segments=2, seg_words=256)
    result = OoOCore(
        program, mem, quick_config(2500), technique=make_technique(technique)
    ).run()
    assert result.cycles > 0
    assert 0 < result.ipc <= 5


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_random_programs_preserve_architecture(seed):
    """Timing + technique never changes what the program computes."""
    rng = np.random.default_rng(seed)
    n_instructions = int(rng.integers(4, 12))
    technique = _TECHNIQUES[seed % len(_TECHNIQUES)]

    rng_a = np.random.default_rng(seed + 1)
    program_a, mem_a = _random_program(rng_a, n_instructions, 2, 128)
    rng_b = np.random.default_rng(seed + 1)
    program_b, mem_b = _random_program(rng_b, n_instructions, 2, 128)

    ref = FunctionalCore(program_a, mem_a)
    for _ in range(2000):
        if ref.step_reference() is None:
            break
    OoOCore(
        program_b, mem_b, quick_config(2000), technique=make_technique(technique)
    ).run()
    for seg in mem_a.segments():
        assert np.array_equal(mem_b.segment(seg.name).data, seg.data)


class TestDegenerateShapes:
    """Hand-picked pathological programs."""

    def _run(self, program, mem, technique):
        return OoOCore(
            program, mem, quick_config(2000), technique=make_technique(technique)
        ).run()

    @pytest.mark.parametrize("technique", _TECHNIQUES)
    def test_stride_load_with_wild_pointer_chain(self, technique):
        """The dependent 'pointer' values point far outside every
        segment — engines must mask lanes, never fault."""
        mem = MemoryImage()
        a = mem.allocate("A", [(1 << 55) + 17 * k for k in range(512)])
        b = ProgramBuilder()
        b.li("r1", a.base)
        b.li("r2", 0)
        b.li("r3", 512)
        b.label("loop")
        b.shli("r4", "r2", 3)
        b.add("r4", "r1", "r4")
        b.load("r5", "r4")     # striding load of wild values
        b.load("r6", "r5")     # dependent load at a garbage address...
        b.addi("r2", "r2", 1)
        b.cmp_lt("r7", "r2", "r3")
        b.bnz("r7", "loop")
        program = b.build()
        # ...which even the *architectural* execution cannot survive, so
        # the functional core must fault — but only the main thread:
        from repro.errors import MemoryError_

        with pytest.raises(MemoryError_):
            self._run(program, mem, technique)

    @pytest.mark.parametrize("technique", _TECHNIQUES)
    def test_speculatively_wild_but_architecturally_safe(self, technique):
        """Same shape, but the wild dereference is branch-guarded so the
        real execution never takes it. Runahead engines *will* go down
        that path speculatively; they must not crash."""
        mem = MemoryImage()
        rng = np.random.default_rng(8)
        a = mem.allocate("A", (rng.integers(1, 1 << 50, 1024) | 1))
        safe = mem.allocate("SAFE", rng.integers(0, 1024, 1024))
        b = ProgramBuilder()
        b.li("r1", a.base)
        b.li("r8", safe.base)
        b.li("r2", 0)
        b.li("r3", 1024)
        b.li("r9", 0)  # guard: never true architecturally
        b.label("loop")
        b.shli("r4", "r2", 3)
        b.add("r4", "r1", "r4")
        b.load("r5", "r4")          # striding load of wild values
        b.bez("r9", "safe_path")
        b.load("r6", "r5")          # wild deref: architecturally dead
        b.label("safe_path")
        b.andi("r6", "r5", 1023)
        b.shli("r6", "r6", 3)
        b.add("r6", "r8", "r6")
        b.load("r7", "r6")          # safe dependent load
        b.addi("r2", "r2", 1)
        b.cmp_lt("r10", "r2", "r3")
        b.bnz("r10", "loop")
        result = self._run(b.build(), mem, technique)
        assert result.instructions > 0

    @pytest.mark.parametrize("technique", _TECHNIQUES)
    def test_single_iteration_loop(self, technique):
        mem = MemoryImage()
        a = mem.allocate("A", [3])
        b = ProgramBuilder()
        b.li("r1", a.base)
        b.li("r2", 0)
        b.label("loop")
        b.load("r3", "r1")
        b.addi("r2", "r2", 1)
        b.cmp_lti("r4", "r2", 1)
        b.bnz("r4", "loop")
        result = self._run(b.build(), mem, technique)
        assert result.instructions > 0

    @pytest.mark.parametrize("technique", _TECHNIQUES)
    def test_zero_trip_inner_loops(self, technique):
        """Inner loops that never execute (empty rows)."""
        mem = MemoryImage()
        row = mem.allocate("ROW", [0] * 257)  # every row empty
        col = mem.allocate("COL", [0])
        b = ProgramBuilder()
        b.li("r1", row.base)
        b.li("r2", col.base)
        b.li("r3", 0)
        b.li("r4", 256)
        b.label("outer")
        b.shli("r5", "r3", 3)
        b.add("r5", "r1", "r5")
        b.load("r6", "r5")
        b.load("r7", "r5", 8)
        b.mov("r8", "r6")
        b.cmp_lt("r9", "r8", "r7")
        b.bez("r9", "done")
        b.label("inner")
        b.shli("r10", "r8", 3)
        b.add("r10", "r2", "r10")
        b.load("r11", "r10")
        b.addi("r8", "r8", 1)
        b.cmp_lt("r9", "r8", "r7")
        b.bnz("r9", "inner")
        b.label("done")
        b.addi("r3", "r3", 1)
        b.cmp_lt("r12", "r3", "r4")
        b.bnz("r12", "outer")
        result = self._run(b.build(), mem, technique)
        assert result.instructions > 0

    @pytest.mark.parametrize("technique", ["vr", "dvr"])
    def test_self_modifying_induction(self, technique):
        """An induction variable that is itself loaded from memory."""
        mem = MemoryImage()
        a = mem.allocate("A", list(range(1, 2049)))
        idx = mem.allocate("IDX", [0])
        b = ProgramBuilder()
        b.li("r1", a.base)
        b.li("r2", idx.base)
        b.li("r3", 2048)
        b.label("loop")
        b.load("r4", "r2")      # i = IDX[0]
        b.shli("r5", "r4", 3)
        b.add("r5", "r1", "r5")
        b.load("r6", "r5")      # A[i]
        b.addi("r4", "r4", 1)
        b.store("r4", "r2")     # IDX[0] = i + 1
        b.cmp_lt("r7", "r4", "r3")
        b.bnz("r7", "loop")
        result = self._run(b.build(), mem, technique)
        assert result.instructions > 0

    @pytest.mark.parametrize("technique", _TECHNIQUES)
    def test_program_of_only_branches(self, technique):
        b = ProgramBuilder()
        b.li("r1", 64)
        b.label("loop")
        b.addi("r1", "r1", -1)
        b.bnz("r1", "loop")
        mem = MemoryImage()
        mem.allocate("PAD", 8)
        result = self._run(b.build(), mem, technique)
        assert result.instructions > 0
