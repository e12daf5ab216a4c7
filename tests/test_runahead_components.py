"""Unit tests for the shared runahead building blocks: stride detector,
taint tracker, loop-bound detector, reconvergence stack, shadow state,
and the scalar speculative interpreter."""

import pytest

from repro.isa import Instruction, Opcode, ProgramBuilder
from repro.memory import MemoryImage
from repro.runahead import (
    LoopBoundDetector,
    ReconvergenceStack,
    ShadowState,
    StrideDetector,
    VectorTaintTracker,
)
from repro.runahead.interpreter import SpeculativeInterpreter


class TestStrideDetector:
    def test_detects_constant_stride(self):
        detector = StrideDetector()
        for k in range(5):
            detector.observe(pc=3, addr=0x1000 + 8 * k)
        assert detector.is_striding(3)
        assert detector.stride_of(3) == 8

    def test_needs_confidence(self):
        detector = StrideDetector(confidence_threshold=2)
        detector.observe(3, 0x1000)
        detector.observe(3, 0x1008)
        assert not detector.is_striding(3)  # stride seen once, conf 0->?
        detector.observe(3, 0x1010)
        detector.observe(3, 0x1018)
        assert detector.is_striding(3)

    def test_stride_change_resets_confidence(self):
        detector = StrideDetector()
        for k in range(5):
            detector.observe(3, 0x1000 + 8 * k)
        detector.observe(3, 0x9000)
        detector.observe(3, 0x9100)
        assert not detector.is_striding(3)

    def test_same_address_decays(self):
        detector = StrideDetector()
        for k in range(5):
            detector.observe(3, 0x1000 + 8 * k)
        for _ in range(4):
            detector.observe(3, 0x1020)
        assert not detector.is_striding(3)

    def test_lru_capacity(self):
        detector = StrideDetector(entries=4)
        for pc in range(8):
            detector.observe(pc, 0x1000)
        assert len(detector) == 4
        assert detector.lookup(0) is None
        assert detector.lookup(7) is not None

    def test_negative_stride(self):
        detector = StrideDetector()
        for k in range(5):
            detector.observe(3, 0x9000 - 16 * k)
        assert detector.is_striding(3)
        assert detector.stride_of(3) == -16

    def test_confident_strides_snapshot(self):
        detector = StrideDetector()
        for k in range(5):
            detector.observe(1, 0x1000 + 8 * k)
            detector.observe(2, 0x5000 + 64 * k)
            detector.observe(3, 0x8000)  # not striding
        snapshot = detector.confident_strides()
        assert snapshot == {1: 8, 2: 64}

    def test_innermost_bits_cleared(self):
        detector = StrideDetector()
        for k in range(4):
            detector.observe(1, 0x1000 + 8 * k)
        detector.lookup(1).innermost_bit = True
        detector.clear_innermost_bits()
        assert not detector.lookup(1).innermost_bit


class TestVectorTaintTracker:
    def make(self, seed=4):
        vtt = VectorTaintTracker()
        vtt.reset(seed)
        return vtt

    def test_seed_tainted(self):
        vtt = self.make(4)
        assert vtt.is_tainted(4)
        assert not vtt.is_tainted(5)

    def test_propagates_through_alu(self):
        vtt = self.make(4)
        assert vtt.propagate(Instruction(Opcode.ADD, rd=6, rs1=4, rs2=2))
        assert vtt.is_tainted(6)

    def test_clean_overwrite_clears(self):
        vtt = self.make(4)
        vtt.propagate(Instruction(Opcode.ADD, rd=6, rs1=4, rs2=2))
        assert not vtt.propagate(Instruction(Opcode.LI, rd=6, imm=0))
        assert not vtt.is_tainted(6)

    def test_transitive_chain(self):
        vtt = self.make(4)
        vtt.propagate(Instruction(Opcode.SHLI, rd=5, rs1=4, imm=3))
        vtt.propagate(Instruction(Opcode.ADD, rd=6, rs1=5, rs2=1))
        vtt.propagate(Instruction(Opcode.LOAD, rd=7, rs1=6))
        assert vtt.is_tainted(7)

    def test_reset_clears_previous(self):
        vtt = self.make(4)
        vtt.propagate(Instruction(Opcode.MOV, rd=9, rs1=4))
        vtt.reset(2)
        assert vtt.is_tainted(2)
        assert not vtt.is_tainted(9) and not vtt.is_tainted(4)


class TestLoopBoundDetector:
    def _locked_detector(self, trigger_pc=10):
        lbd = LoopBoundDetector(trigger_pc)
        lbd.observe(12, Instruction(Opcode.CMP_LT, rd=5, rs1=1, rs2=2))
        lbd.observe(13, Instruction(Opcode.BNZ, rs1=5, target=8))
        return lbd

    def test_locks_on_backward_branch(self):
        lbd = self._locked_detector()
        assert lbd.locked
        assert lbd.backward_branch_pc == 13
        assert lbd.backward_branch_target == 8

    def test_forward_branch_does_not_lock(self):
        lbd = LoopBoundDetector(10)
        lbd.observe(12, Instruction(Opcode.CMP_LT, rd=5, rs1=1, rs2=2))
        lbd.observe(13, Instruction(Opcode.BNZ, rs1=5, target=20))
        assert not lbd.locked

    def test_lcr_frozen_after_sbb(self):
        lbd = self._locked_detector()
        lbd.observe(14, Instruction(Opcode.CMP_EQ, rd=7, rs1=3, rs2=4))
        assert lbd.compare.rd == 5  # unchanged

    def test_final_load_update_resets(self):
        lbd = self._locked_detector()
        lbd.on_final_load_update()
        assert not lbd.locked

    def test_inference_increasing_induction(self):
        lbd = self._locked_detector()
        entry = [0] * 32
        exit_ = [0] * 32
        entry[1], exit_[1] = 5, 6  # induction += 1
        entry[2], exit_[2] = 100, 100  # bound constant
        inference = lbd.infer(entry, exit_)
        assert inference.found
        assert inference.remaining == 94
        assert inference.increment == 1
        assert inference.induction_reg == 1

    def test_inference_bound_in_rs1(self):
        lbd = self._locked_detector()
        entry = [0] * 32
        exit_ = [0] * 32
        entry[1], exit_[1] = 50, 50  # constant bound in rs1
        entry[2], exit_[2] = 10, 12  # induction in rs2 += 2
        inference = lbd.infer(entry, exit_)
        assert inference.found
        assert inference.induction_reg == 2
        assert inference.remaining == 19

    def test_inference_decrement_loop(self):
        lbd = self._locked_detector()
        entry = [0] * 32
        exit_ = [0] * 32
        entry[1], exit_[1] = 20, 18  # counting down by 2
        entry[2], exit_[2] = 0, 0
        inference = lbd.infer(entry, exit_)
        assert inference.found and inference.remaining == 9

    def test_inference_fails_when_both_change(self):
        lbd = self._locked_detector()
        entry = [0] * 32
        exit_ = [0] * 32
        entry[1], exit_[1] = 5, 6
        entry[2], exit_[2] = 7, 8
        assert not lbd.infer(entry, exit_).found

    def test_inference_immediate_compare(self):
        lbd = LoopBoundDetector(10)
        lbd.observe(12, Instruction(Opcode.CMP_LTI, rd=5, rs1=1, imm=64))
        lbd.observe(13, Instruction(Opcode.BNZ, rs1=5, target=9))
        entry = [0] * 32
        exit_ = [0] * 32
        entry[1], exit_[1] = 10, 11
        inference = lbd.infer(entry, exit_)
        assert inference.found and inference.remaining == 53

    def test_lanes_clamped(self):
        lbd = self._locked_detector()
        entry = [0] * 32
        exit_ = [0] * 32
        entry[1], exit_[1] = 0, 1
        entry[2], exit_[2] = 1000, 1000
        inference = lbd.infer(entry, exit_)
        assert inference.lanes(128) == 128

    def test_lanes_default_when_unknown(self):
        lbd = LoopBoundDetector(10)
        assert lbd.infer([0] * 32, [0] * 32).lanes(128) == 128


class TestReconvergenceStack:
    def test_push_pop_lifo(self):
        stack = ReconvergenceStack(4)
        stack.push(10, (0, 1))
        stack.push(20, (2,))
        entry = stack.pop()
        assert entry.pc == 20 and entry.lanes == (2,)
        assert stack.pop().pc == 10
        assert stack.pop() is None

    def test_overflow_drops(self):
        stack = ReconvergenceStack(2)
        assert stack.push(1, (0,))
        assert stack.push(2, (1,))
        assert not stack.push(3, (2,))
        assert stack.overflows == 1

    def test_depth_tracking(self):
        stack = ReconvergenceStack(8)
        stack.push(1, (0,))
        stack.push(2, (1,))
        stack.pop()
        stack.push(3, (2,))
        assert stack.max_depth_seen == 2
        assert len(stack) == 2


class TestShadowState:
    def test_tracks_values_and_next_pc(self):
        shadow = ShadowState()
        instr = Instruction(Opcode.LI, rd=3, imm=77)
        shadow.update(instr.rd, 77, 6, 100, 90)
        assert shadow.regs[3] == 77
        assert shadow.next_pc == 6
        assert shadow.avail[3] == 90

    def test_invalid_regs_at(self):
        shadow = ShadowState()
        shadow.update(3, 1, 6, 100, 250)
        assert 3 in shadow.invalid_regs_at(200)
        assert 3 not in shadow.invalid_regs_at(300)


class TestSpeculativeInterpreter:
    def _program(self):
        b = ProgramBuilder()
        b.addi("r2", "r1", 1)       # 0
        b.load("r3", "r2")          # 1
        b.bnz("r3", "skip")         # 2
        b.addi("r4", "r4", 1)       # 3
        b.label("skip")
        b.halt()                    # 4
        return b.build()

    def test_inv_propagates(self):
        mem = MemoryImage()
        mem.allocate("pad", 4)
        interp = SpeculativeInterpreter(
            self._program(), mem, 0, [0] * 32, invalid_regs=[1]
        )
        step = interp.step()
        assert not step.value_valid
        assert not interp.valid[2]

    def test_inv_address_means_no_load(self):
        mem = MemoryImage()
        mem.allocate("pad", 4)
        interp = SpeculativeInterpreter(
            self._program(), mem, 0, [0] * 32, invalid_regs=[1]
        )
        interp.step()
        step = interp.step()
        assert not step.addr_valid
        assert not interp.valid[3]

    def test_inv_branch_falls_through(self):
        mem = MemoryImage()
        mem.allocate("pad", 4)
        interp = SpeculativeInterpreter(
            self._program(), mem, 0, [0] * 32, invalid_regs=[1]
        )
        interp.step()
        interp.step()
        step = interp.step()
        assert step.taken is False  # INV condition: not taken
        assert interp.pc == 3

    def test_valid_load_uses_callback(self):
        mem = MemoryImage()
        seg = mem.allocate("a", [0, 42])
        regs = [0] * 32
        regs[1] = seg.base  # r2 = base+8 after addi... use imm trick
        seen = []

        def load_cb(pc, addr):
            seen.append(addr)
            return 42, True

        interp = SpeculativeInterpreter(self._program(), mem, 0, regs)
        interp.step()
        interp.step(load_cb)
        assert seen == [seg.base + 1]
        assert interp.regs[3] == 42

    def test_stores_are_dropped(self):
        b = ProgramBuilder()
        b.store("r2", "r1")
        program = b.build()
        mem = MemoryImage()
        seg = mem.allocate("a", [7])
        regs = [0] * 32
        regs[1] = seg.base
        regs[2] = 99
        interp = SpeculativeInterpreter(program, mem, 0, regs)
        step = interp.step()
        assert step.addr == seg.base
        assert mem.read_word(seg.base) == 7  # unchanged

    def test_halts(self):
        mem = MemoryImage()
        mem.allocate("pad", 4)
        interp = SpeculativeInterpreter(self._program(), mem, 4, [0] * 32)
        assert interp.step().instr.opcode is Opcode.HALT
        assert interp.step() is None
