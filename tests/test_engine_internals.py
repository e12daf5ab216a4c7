"""Deeper unit tests of vector-engine internals (VRAT semantics, WAW
overwrites, reconvergence overflow, negative strides) and of classic
runahead's INV behaviour."""

import numpy as np
import pytest

from repro.config import MemoryConfig
from repro.isa import ProgramBuilder
from repro.memory import MemoryHierarchy, MemoryImage
from repro.runahead.reconvergence import ReconvergenceStack
from repro.runahead.vector_engine import VectorChainRun


def engine_for(program, mem, regs, lanes, **kwargs):
    hierarchy = MemoryHierarchy(MemoryConfig.scaled())
    run = VectorChainRun(
        program,
        mem,
        hierarchy,
        regs,
        start_pc=0,
        lane_addresses=lanes,
        start_cycle=0,
        vector_width=8,
        timeout=100,
        **kwargs,
    )
    return run, hierarchy


class TestVRATSemantics:
    def test_scalar_promoted_on_vector_write(self):
        """A register written by a tainted op becomes a vector register
        (the VRAT's fresh-physical-register case)."""
        mem = MemoryImage()
        a = mem.allocate("A", list(range(64)))
        b = ProgramBuilder()
        b.load("r4", "r3")      # trigger
        b.addi("r5", "r4", 1)   # r5 becomes vector
        b.halt()
        regs = [0] * 32
        regs[3] = a.base
        run, _ = engine_for(b.build(), mem, regs, [a.base, a.base + 8], end_pc=None)
        run.run_to_completion()
        assert run._kind[5] == 1  # vector
        assert run._vval[5][0] == mem.read_word(a.base) + 1
        assert run._vval[5][1] == mem.read_word(a.base + 8) + 1

    def test_waw_scalar_overwrite_demotes(self):
        """A clean scalar write to a vectorised register demotes it back
        to scalar (the paper's WAW renaming case)."""
        mem = MemoryImage()
        a = mem.allocate("A", list(range(64)))
        b = ProgramBuilder()
        b.load("r4", "r3")      # r4 vector
        b.li("r4", 7)           # overwritten by a scalar immediate
        b.addi("r5", "r4", 1)   # so r5 is scalar too
        b.halt()
        regs = [0] * 32
        regs[3] = a.base
        run, _ = engine_for(b.build(), mem, regs, [a.base, a.base + 8], end_pc=None)
        run.run_to_completion()
        assert run._kind[4] == 0  # scalar again
        assert run._sval[5] == 8

    def test_untainted_ops_execute_once(self):
        mem = MemoryImage()
        a = mem.allocate("A", list(range(64)))
        b = ProgramBuilder()
        b.load("r4", "r3")
        b.addi("r9", "r9", 1)   # scalar: one copy regardless of lanes
        b.halt()
        regs = [0] * 32
        regs[3] = a.base
        lanes = [a.base + 8 * k for k in range(16)]
        run, _ = engine_for(b.build(), mem, regs, lanes, end_pc=None)
        run.run_to_completion()
        # 16 lanes / 8-wide = 2 copies for the load, 1 for the addi.
        assert run.copies_issued == 3

    def test_lane_values_correct_through_two_levels(self):
        rng = np.random.default_rng(4)
        mem = MemoryImage()
        a = mem.allocate("A", rng.integers(0, 64, 64))
        c = mem.allocate("C", rng.integers(0, 1 << 20, 64))
        b = ProgramBuilder()
        b.load("r4", "r3")
        b.shli("r5", "r4", 3)
        b.add("r5", "r6", "r5")
        b.load("r7", "r5")
        b.halt()
        regs = [0] * 32
        regs[3] = a.base
        regs[6] = c.base
        lanes = [a.base + 8 * k for k in range(8)]
        run, _ = engine_for(b.build(), mem, regs, lanes, end_pc=3)
        run.run_to_completion()
        for lane in range(8):
            idx = mem.read_word(lanes[lane])
            assert run._vval[7][lane] == mem.read_word(c.base + 8 * idx)


class TestReconvergenceInEngine:
    def _divergent_program(self, levels_of_branching):
        """Nested data-dependent branches to overflow the stack."""
        b = ProgramBuilder()
        b.load("r4", "r3")  # trigger: random bits per lane
        reg = 4
        for level in range(levels_of_branching):
            b.shri(f"r{5 + level}", f"r{reg}", level)
            b.andi(f"r{5 + level}", f"r{5 + level}", 1)
            b.bnz(f"r{5 + level}", f"skip{level}")
            b.addi("r20", "r20", 1)
            b.label(f"skip{level}")
        b.halt()
        return b.build()

    def test_deep_divergence_overflows_bounded_stack(self):
        rng = np.random.default_rng(9)
        mem = MemoryImage()
        a = mem.allocate("A", rng.integers(0, 1 << 12, 128))
        regs = [0] * 32
        regs[3] = a.base
        program = self._divergent_program(12)
        stack = ReconvergenceStack(2)
        lanes = [a.base + 8 * k for k in range(32)]
        run, _ = engine_for(
            program, mem, regs, lanes, end_pc=None, reconvergence=stack
        )
        run.run_to_completion()
        assert stack.overflows > 0
        assert run.finished

    def test_divergence_without_stack_keeps_first_lane(self):
        rng = np.random.default_rng(9)
        mem = MemoryImage()
        a = mem.allocate("A", rng.integers(0, 2, 128))
        regs = [0] * 32
        regs[3] = a.base
        b = ProgramBuilder()
        b.load("r4", "r3")
        b.bnz("r4", "t")
        b.addi("r5", "r5", 1)
        b.label("t")
        b.halt()
        lanes = [a.base + 8 * k for k in range(16)]
        run, _ = engine_for(b.build(), mem, regs, lanes, end_pc=None)
        run.run_to_completion()
        flags = [mem.read_word(addr) for addr in lanes]
        minority = sum(1 for f in flags if f != flags[0])
        assert run.lanes_invalidated == minority


class TestSecondaryStrideEdgeCases:
    def test_negative_secondary_stride(self):
        mem = MemoryImage()
        a = mem.allocate("A", list(range(128)))
        w = mem.allocate("W", list(range(128)))
        b = ProgramBuilder()
        b.load("r4", "r3")
        b.load("r5", "r10")  # W walked backwards
        b.halt()
        regs = [0] * 32
        regs[3] = a.base
        regs[10] = w.base + 8 * 100
        lanes = [a.base + 8 * k for k in range(4)]
        run, hierarchy = engine_for(
            b.build(), mem, regs, lanes, end_pc=None, stride_map={1: -8}
        )
        run.run_to_completion()
        line = hierarchy.line_of(w.base + 8 * 96)  # 100 - 4
        assert hierarchy.l1.contains(line, 1 << 60)

    def test_secondary_stride_with_dead_base(self):
        """A stride-mapped load whose base register is invalid must not
        crash — lanes go dead instead."""
        mem = MemoryImage()
        a = mem.allocate("A", list(range(64)))
        b = ProgramBuilder()
        b.load("r4", "r3")
        b.load("r5", "r11")  # r11 never initialised to a mapped address
        b.halt()
        regs = [None] * 32
        regs[3] = a.base
        lanes = [a.base + 8 * k for k in range(4)]
        run, _ = engine_for(b.build(), mem, regs, lanes, end_pc=None, stride_map={1: 8})
        run.run_to_completion()
        assert run.finished


class TestClassicRunaheadINV:
    def test_inv_registers_block_dependent_prefetch(self):
        """PRE/classic cannot prefetch past a value that has not
        returned: seed an INV base register and check no prefetch."""
        from repro.runahead.interpreter import SpeculativeInterpreter

        mem = MemoryImage()
        a = mem.allocate("A", list(range(64)))
        b = ProgramBuilder()
        b.load("r5", "r4")   # r4 is INV -> no address
        b.load("r6", "r5")   # transitively INV
        b.halt()
        calls = []

        def cb(pc, addr):
            calls.append(pc)
            return 1, True

        interp = SpeculativeInterpreter(
            b.build(), mem, 0, [0] * 32, invalid_regs=[4]
        )
        while interp.step(cb):
            pass
        assert calls == []  # neither load had a valid address
