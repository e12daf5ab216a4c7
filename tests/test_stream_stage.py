"""Differential tests for the functional stage that fills stream columns.

:meth:`FunctionalCore.fill` writes the architectural stream into an
:class:`~repro.perf.trace.ArchTrace` a chunk at a time, and the timing
kernel applies each store to the image at its instruction's turn. Over
``tests/test_predecode_replay.py``'s random programs, at chunk sizes 1,
3 and the default, the stage must produce the reference interpreter's
stream field for field (a store's ``values`` entry is the stored word,
where ``DynInstr.value`` is None), leave the image as every fill found
it, and, once every store is applied in order, leave the image the live
interpreter leaves. Fixed cases cover int64-wrapping stores, float
segments, a word stored twice in one chunk, and a mid-chunk fault.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.functional as functional
from repro.config import SimConfig
from repro.core import FunctionalCore, OoOCore
from repro.errors import MemoryError_
from repro.isa import ProgramBuilder
from repro.isa.predecode import K_STORE
from repro.memory import MemoryImage
from repro.perf.trace import CHUNK, ArchTrace

from test_predecode_replay import _body_item, _build

CHUNK_SIZES = (1, 3, CHUNK)


def _columns(stream):
    """The whole stream's columns, its chunks joined."""
    joined = ([], [], [], [], [])
    for chunk in stream.chunks:
        for column, part in zip(joined, chunk):
            column.extend(part)
    return joined


def _reference(program, mem, limit=100_000):
    """``step_reference``'s stream, with each store's word alongside."""
    ref = FunctionalCore(program, mem)
    rows = []
    while ref.executed < limit:
        instr = program[ref.pc] if 0 <= ref.pc < len(program) else None
        stored = ref.regs[instr.rs2] if instr is not None and instr.is_store else None
        dyn = ref.step_reference()
        if dyn is None:
            break
        rows.append((dyn, stored))
    return ref, rows


def _consume(program, mem, chunk, limit=100_000):
    """Fill a whole stream at ``chunk`` instructions per fill and consume
    it as the kernel does: every fill must leave the image as it found
    it, and each chunk's stores are applied, in order, before the next
    fill."""
    kinds = program.decoded().kinds
    stream = ArchTrace()
    stage = FunctionalCore(program, mem)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functional, "CHUNK", chunk)
        while len(stream) < limit and not stream.halted:
            before = mem.digest()
            fill_count = len(stream.chunks)
            stage.fill(stream, limit)
            assert mem.digest() == before, "a fill left a store in the image"
            assert len(stream.chunks) == fill_count + 1
            pcs, values, addrs, _, _ = stream.chunks[-1]
            assert 0 < len(pcs) <= chunk
            for pc, value, addr in zip(pcs, values, addrs):
                if kinds[pc] == K_STORE:
                    mem.write_word(addr, value)
    return stream


def _assert_same_images(mem, reference):
    for seg_ref in reference.segments():
        assert np.array_equal(mem.segment(seg_ref.name).data, seg_ref.data)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@given(
    seeds=st.lists(st.integers(-1000, 1000), min_size=7, max_size=7),
    body=st.lists(_body_item, min_size=1, max_size=20),
    iterations=st.integers(1, 4),
)
@settings(max_examples=20, deadline=None)
def test_stage_columns_match_reference_stream(chunk, seeds, body, iterations):
    program, mem = _build(seeds, body, iterations)
    stream = _consume(program, mem, chunk)
    program_ref, mem_ref = _build(seeds, body, iterations)
    ref, rows = _reference(program_ref, mem_ref)

    pcs, values, addrs, takens, next_pcs = _columns(stream)
    assert len(stream) == len(pcs) == len(rows) == ref.executed
    for j, (dyn, stored) in enumerate(rows):
        expected_value = stored if program[dyn.pc].is_store else dyn.value
        assert (pcs[j], values[j], addrs[j], takens[j], next_pcs[j]) == (
            dyn.pc, expected_value, dyn.addr, dyn.taken, dyn.next_pc
        ), j
    assert stream.halted and ref.halted
    assert stream.regs == ref.regs
    _assert_same_images(mem, mem_ref)


# -- fixed cases --------------------------------------------------------------


def _one_fill(build):
    """Fill ``build()``'s whole program in one chunk; return the image
    the fill left, the stream, and the reference's image."""
    program, mem = build()
    before = mem.digest()
    stream = ArchTrace()
    FunctionalCore(program, mem).fill(stream, 1_000)
    assert stream.halted and len(stream.chunks) == 1
    assert mem.digest() == before
    program_ref, mem_ref = build()
    ref, _ = _reference(program_ref, mem_ref)
    assert stream.regs == ref.regs and len(stream) == ref.executed
    return program, mem, stream, mem_ref


def _apply_stores(program, mem, stream):
    """Apply each store of ``stream`` in order, as the kernel does."""
    kinds = program.decoded().kinds
    pcs, values, addrs, _, _ = _columns(stream)
    for pc, value, addr in zip(pcs, values, addrs):
        if kinds[pc] == K_STORE:
            mem.write_word(addr, value)


def test_int64_wrapping_store_is_undone_and_replayed_exactly():
    def build():
        mem = MemoryImage()
        seg = mem.allocate("buf", [7, -9])
        b = ProgramBuilder()
        b.li("r1", 1 << 40)
        b.mul("r2", "r1", "r1")  # 2**80: wraps to 0 in an int64 word
        b.addi("r2", "r2", -3)  # ... and to -3 once stored
        b.li("r3", seg.base)
        b.store("r2", "r3")
        b.load("r4", "r3")
        b.store("r1", "r3", imm=8)
        return b.build(), mem

    program, mem, stream, mem_ref = _one_fill(build)
    pcs, values, _, _, _ = _columns(stream)
    assert values[pcs.index(4)] == (1 << 80) - 3  # the register's word
    assert values[pcs.index(5)] == -3  # the load saw the wrapped store
    assert list(mem.segment("buf").data) == [7, -9]
    _apply_stores(program, mem, stream)
    _assert_same_images(mem, mem_ref)
    assert list(mem.segment("buf").data) == [-3, 1 << 40]


def test_float_segment_store_is_undone_and_replayed_exactly():
    def build():
        mem = MemoryImage()
        seg = mem.allocate("vals", [0.1, float("nan"), -0.0], dtype=np.float64)
        b = ProgramBuilder()
        b.li("r1", seg.base)
        b.li("r2", 3)
        b.store("r2", "r1")  # an int into a float word
        b.load("r3", "r1")  # reads 3.0
        b.fadd("r4", "r3", "r2")
        b.store("r4", "r1", imm=16)
        b.li("r5", 5)
        b.fdiv("r6", "r5", "r2")
        b.store("r6", "r1", imm=8)
        return b.build(), mem

    program, mem, stream, mem_ref = _one_fill(build)
    pcs, values, _, _, _ = _columns(stream)
    assert values[pcs.index(3)] == 3.0
    # The undo restored the NaN and the negative zero bit for bit.
    original = np.array([0.1, float("nan"), -0.0])
    assert mem.segment("vals").data.tobytes() == original.tobytes()
    _apply_stores(program, mem, stream)
    assert mem.segment("vals").data.tobytes() == mem_ref.segment("vals").data.tobytes()


def test_word_stored_twice_in_one_chunk():
    def build():
        mem = MemoryImage()
        seg = mem.allocate("buf", [11])
        b = ProgramBuilder()
        b.li("r1", seg.base)
        b.li("r2", 22)
        b.li("r3", 33)
        b.store("r2", "r1")
        b.load("r4", "r1")  # reads 22, not the original 11
        b.store("r3", "r1")
        b.load("r5", "r1")  # reads 33
        return b.build(), mem

    program, mem, stream, mem_ref = _one_fill(build)
    pcs, values, _, _, _ = _columns(stream)
    assert (values[pcs.index(4)], values[pcs.index(6)]) == (22, 33)
    assert list(mem.segment("buf").data) == [11]  # both writes undone
    _apply_stores(program, mem, stream)
    _assert_same_images(mem, mem_ref)


def test_mid_chunk_fault_leaves_the_image_as_it_was():
    def build():
        mem = MemoryImage()
        seg = mem.allocate("buf", [1, 2])
        b = ProgramBuilder()
        b.li("r1", seg.base)
        b.li("r2", 99)
        b.store("r2", "r1")
        b.store("r2", "r1", imm=8)
        b.load("r3", "r1", imm=1 << 20)  # unmapped: the run faults here
        b.nop()
        return b.build(), mem

    program, mem = build()
    before = mem.digest()
    stage = FunctionalCore(program, mem)
    stream = ArchTrace()
    with pytest.raises(MemoryError_) as fault:
        stage.fill(stream, 1_000)
    assert mem.digest() == before
    assert list(mem.segment("buf").data) == [1, 2]
    assert not stream.chunks and len(stream) == 0
    # The live interpreter raises the same error at the same instruction.
    program_ref, mem_ref = build()
    ref = FunctionalCore(program_ref, mem_ref)
    with pytest.raises(MemoryError_) as live_fault:
        while ref.step_reference() is not None:
            pass
    assert str(fault.value) == str(live_fault.value)
    assert (stage.pc, stage.executed) == (ref.pc, ref.executed) == (4, 4)
    # A timing run surfaces the same fault.
    program2, mem2 = build()
    with pytest.raises(MemoryError_):
        OoOCore(program2, mem2, SimConfig(max_instructions=1_000)).run()
