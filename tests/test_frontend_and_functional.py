"""Unit tests for the branch predictor and the functional core."""

import pytest

from repro.config import BranchPredictorConfig
from repro.core import FunctionalCore
from repro.errors import SimulationError
from repro.frontend import TageLitePredictor
from repro.isa import Opcode, ProgramBuilder
from repro.memory import MemoryImage

from conftest import build_counted_loop


class TestTageLite:
    def test_learns_always_taken(self):
        predictor = TageLitePredictor()
        pc = 0x40
        for _ in range(50):
            predicted = predictor.predict(pc)
            predictor.update(pc, True, predicted)
        assert predictor.predict(pc) is True

    def test_learns_always_not_taken(self):
        predictor = TageLitePredictor()
        pc = 0x44
        for _ in range(50):
            predicted = predictor.predict(pc)
            predictor.update(pc, False, predicted)
        assert predictor.predict(pc) is False

    def test_learns_alternating_pattern_via_history(self):
        """T,N,T,N... defeats bimodal but is trivial for tagged tables."""
        predictor = TageLitePredictor()
        pc = 0x48
        mispredicts_late = 0
        for i in range(600):
            taken = i % 2 == 0
            predicted = predictor.predict(pc)
            predictor.update(pc, taken, predicted)
            if i >= 500 and predicted != taken:
                mispredicts_late += 1
        assert mispredicts_late < 20

    def test_misprediction_rate_bounds(self):
        predictor = TageLitePredictor()
        assert predictor.misprediction_rate() == 0.0
        predicted = predictor.predict(0)
        predictor.update(0, not predicted, predicted)
        assert predictor.misprediction_rate() == 1.0

    def test_geometric_history_lengths(self):
        lengths = TageLitePredictor._geometric_lengths(8, 64, 4)
        assert lengths[0] == 8 and lengths[-1] == 64
        assert lengths == sorted(lengths)

    def test_custom_config(self):
        predictor = TageLitePredictor(BranchPredictorConfig(num_tagged_tables=2))
        for i in range(100):
            p = predictor.predict(4)
            predictor.update(4, True, p)
        assert predictor.predictions == 100


class TestFunctionalCore:
    def test_counted_loop_executes_right_count(self):
        program, mem = build_counted_loop(10)
        core = FunctionalCore(program, mem)
        executed = core.run_to_completion()
        # 2 setup + 10 * 4 loop body + 1 halt
        assert executed == 2 + 40 + 1
        assert core.regs[1] == 10

    def test_load_store_roundtrip(self):
        mem = MemoryImage()
        seg = mem.allocate("a", [5, 0])
        b = ProgramBuilder()
        b.li("r1", seg.base)
        b.load("r2", "r1")
        b.addi("r2", "r2", 1)
        b.store("r2", "r1", 8)
        core = FunctionalCore(b.build(), mem)
        core.run_to_completion()
        assert mem.read_word(seg.base + 8) == 6

    def test_dyn_instr_fields_for_load(self):
        mem = MemoryImage()
        seg = mem.allocate("a", [42])
        b = ProgramBuilder()
        b.li("r1", seg.base)
        b.load("r2", "r1")
        core = FunctionalCore(b.build(), mem)
        core.step_reference()
        dyn = core.step_reference()
        assert dyn.addr == seg.base
        assert dyn.value == 42
        assert dyn.instr.opcode is Opcode.LOAD

    def test_branch_taken_records_next_pc(self):
        b = ProgramBuilder()
        b.li("r1", 1)
        b.bnz("r1", "target")
        b.li("r2", 9)
        b.label("target")
        b.halt()
        mem = MemoryImage()
        mem.allocate("pad", 1)
        core = FunctionalCore(b.build(), mem)
        core.step_reference()
        dyn = core.step_reference()
        assert dyn.taken is True
        assert dyn.next_pc == 3
        assert core.step_reference().instr.opcode is Opcode.HALT

    def test_branch_not_taken(self):
        b = ProgramBuilder()
        b.li("r1", 0)
        b.bnz("r1", "target")
        b.li("r2", 9)
        b.label("target")
        b.halt()
        mem = MemoryImage()
        mem.allocate("pad", 1)
        core = FunctionalCore(b.build(), mem)
        core.step_reference()
        dyn = core.step_reference()
        assert dyn.taken is False and dyn.next_pc == 2

    def test_halt_returns_none_afterwards(self):
        program, mem = build_counted_loop(1)
        core = FunctionalCore(program, mem)
        core.run_to_completion()
        assert core.step_reference() is None

    def test_fault_leaves_the_image_as_of_the_last_whole_chunk(self, monkeypatch):
        """run_to_completion applies each whole chunk's stores; a fault
        rolls back the faulting chunk's, as the fill does."""
        import repro.core.functional as functional
        from repro.errors import MemoryError_

        mem = MemoryImage()
        seg = mem.allocate("a", [0, 0])
        b = ProgramBuilder()
        b.li("r1", seg.base)         # chunk 1
        b.li("r2", 7)
        b.store("r2", "r1")          # chunk 2: applied
        b.li("r3", 1 << 20)
        b.store("r2", "r1", 8)       # chunk 3: rolled back
        b.load("r4", "r3")           # unmapped: faults here
        core = FunctionalCore(b.build(), mem)
        monkeypatch.setattr(functional, "CHUNK", 2)
        with pytest.raises(MemoryError_):
            core.run_to_completion()
        assert list(mem.segment("a").data) == [7, 0]
        assert (core.pc, core.executed, core.halted) == (5, 5, False)

    def test_non_halting_program_detected(self):
        b = ProgramBuilder()
        b.label("spin")
        b.jmp("spin")
        mem = MemoryImage()
        mem.allocate("pad", 1)
        core = FunctionalCore(b.build(), mem)
        with pytest.raises(SimulationError):
            core.run_to_completion(max_instructions=100)

    def test_hash_and_mask_sequence(self):
        from repro.isa.semantics import hash64

        b = ProgramBuilder()
        b.li("r1", 12345)
        b.hash("r2", "r1")
        b.andi("r2", "r2", 1023)
        mem = MemoryImage()
        mem.allocate("pad", 1)
        core = FunctionalCore(b.build(), mem)
        core.run_to_completion()
        assert core.regs[2] == hash64(12345) & 1023

    def test_float_pipeline(self):
        mem = MemoryImage()
        import numpy as np

        seg = mem.allocate("f", [2.0, 3.0], dtype=np.float64)
        b = ProgramBuilder()
        b.li("r1", seg.base)
        b.load("r2", "r1")
        b.load("r3", "r1", 8)
        b.fmul("r4", "r2", "r3")
        b.fadd("r5", "r4", "r2")
        core = FunctionalCore(b.build(), mem)
        core.run_to_completion()
        assert core.regs[5] == pytest.approx(8.0)
