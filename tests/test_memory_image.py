"""Unit tests for the functional memory image."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_, SegmentOverlapError
from repro.memory import MemoryImage


class TestAllocation:
    def test_allocate_by_size(self):
        mem = MemoryImage()
        seg = mem.allocate("a", 16)
        assert seg.size_bytes == 128
        assert mem.read_word(seg.base) == 0

    def test_allocate_from_data(self):
        mem = MemoryImage()
        seg = mem.allocate("a", [1, 2, 3])
        assert mem.read_word(seg.base + 8) == 2

    def test_segments_do_not_overlap(self):
        mem = MemoryImage()
        a = mem.allocate("a", 100)
        b = mem.allocate("b", 100)
        assert a.end <= b.base or b.end <= a.base

    def test_segments_line_spaced(self):
        mem = MemoryImage()
        a = mem.allocate("a", 3)  # 24 bytes, not line aligned
        b = mem.allocate("b", 3)
        assert b.base % 8 == 0
        assert b.base - a.end >= 8  # padding keeps lines disjoint

    def test_duplicate_name_rejected(self):
        mem = MemoryImage()
        mem.allocate("a", 8)
        with pytest.raises(SegmentOverlapError):
            mem.allocate("a", 8)

    def test_explicit_base_overlap_rejected(self):
        mem = MemoryImage()
        a = mem.allocate("a", 8)
        with pytest.raises(SegmentOverlapError):
            mem.allocate("b", 8, base=a.base + 8)

    def test_empty_segment_rejected(self):
        with pytest.raises(MemoryError_):
            MemoryImage().allocate("a", 0)

    def test_misaligned_base_rejected(self):
        with pytest.raises(MemoryError_):
            MemoryImage().allocate("a", 8, base=0x1001)

    def test_segment_lookup_by_name(self):
        mem = MemoryImage()
        seg = mem.allocate("data", 4)
        assert mem.segment("data") is seg
        with pytest.raises(MemoryError_):
            mem.segment("nope")

    def test_total_bytes(self):
        mem = MemoryImage()
        mem.allocate("a", 4)
        mem.allocate("b", 8)
        assert mem.total_bytes == 96


class TestAccess:
    def test_write_then_read(self):
        mem = MemoryImage()
        seg = mem.allocate("a", 4)
        mem.write_word(seg.base + 16, 99)
        assert mem.read_word(seg.base + 16) == 99

    def test_unmapped_read_raises(self):
        mem = MemoryImage()
        mem.allocate("a", 4)
        with pytest.raises(MemoryError_):
            mem.read_word(0x10)

    def test_unmapped_write_raises(self):
        mem = MemoryImage()
        mem.allocate("a", 4)
        with pytest.raises(MemoryError_):
            mem.write_word(0x10, 1)

    def test_read_past_segment_end_raises(self):
        mem = MemoryImage()
        seg = mem.allocate("a", 4)
        with pytest.raises(MemoryError_):
            mem.read_word(seg.base + 32)

    def test_float_segment_roundtrip(self):
        mem = MemoryImage()
        seg = mem.allocate("f", [1.5, 2.5], dtype=np.float64)
        assert mem.read_word(seg.base + 8) == pytest.approx(2.5)
        mem.write_word(seg.base, 0.25)
        assert mem.read_word(seg.base) == pytest.approx(0.25)

    def test_values_are_python_scalars(self):
        mem = MemoryImage()
        seg = mem.allocate("a", [7])
        assert type(mem.read_word(seg.base)) is int

    @pytest.mark.parametrize(
        "dtype, stored, expected",
        [(np.int64, 42, 42), (np.int64, -3, -3), (np.float64, 0.75, 0.75),
         (np.float64, 3, 3.0)],
    )
    def test_both_reads_return_the_stored_value_as_a_python_scalar(
        self, dtype, stored, expected
    ):
        mem = MemoryImage()
        seg = mem.allocate("a", 4, dtype=dtype)
        addr = seg.base + 8
        # Read first, so a stale copy of the segment would show below.
        assert mem.read_word_speculative(addr) == (0, True)
        mem.write_word(addr, stored)
        value = mem.read_word(addr)
        spec_value, ok = mem.read_word_speculative(addr)
        assert ok
        assert value == spec_value == expected
        kind = float if np.dtype(dtype).kind == "f" else int
        assert type(value) is kind and type(spec_value) is kind

    def test_int_store_wraps_at_2_pow_63(self):
        mem = MemoryImage()
        seg = mem.allocate("a", 3)
        mem.write_word(seg.base, 2**63)
        mem.write_word(seg.base + 8, 2**64 + 5)
        mem.write_word(seg.base + 16, -(2**63) - 1)
        assert mem.read_word(seg.base) == -(2**63)
        assert mem.read_word(seg.base + 8) == 5
        assert mem.read_word(seg.base + 16) == 2**63 - 1
        assert mem.read_word_speculative(seg.base) == (-(2**63), True)
        assert mem.read_word_speculative(seg.base + 16) == (2**63 - 1, True)


class TestSpeculativeAccess:
    def test_mapped_read(self):
        mem = MemoryImage()
        seg = mem.allocate("a", [5, 6])
        value, ok = mem.read_word_speculative(seg.base + 8)
        assert ok and value == 6

    def test_unmapped_read_is_silent(self):
        mem = MemoryImage()
        mem.allocate("a", 4)
        value, ok = mem.read_word_speculative(0x33)
        assert not ok and value == 0

    def test_negative_address(self):
        mem = MemoryImage()
        mem.allocate("a", 4)
        value, ok = mem.read_word_speculative(-8)
        assert not ok

    def test_non_integer_address(self):
        mem = MemoryImage()
        mem.allocate("a", 4)
        value, ok = mem.read_word_speculative("bogus")
        assert not ok

    def test_misaligned_read_rounds_down(self):
        mem = MemoryImage()
        seg = mem.allocate("a", [5, 6])
        value, ok = mem.read_word_speculative(seg.base + 9)
        assert ok and value == 6

    def test_misaligned_or_unmapped_reads_around_a_segment(self):
        mem = MemoryImage()
        seg = mem.allocate("a", [5, 6])
        mem.allocate("b", [7])
        # A misaligned address rounds down to the word it falls in, so
        # one just below the segment, or just past its end, is unmapped.
        assert mem.read_word_speculative(seg.base - 1) == (0, False)
        assert mem.read_word_speculative(seg.end + 3) == (0, False)
        assert mem.read_word_speculative(seg.end - 1) == (6, True)
        assert mem.read_word_speculative(seg.base + 4096) == (0, False)
        assert mem.read_word_speculative(np.int64(seg.base + 8)) == (6, True)

    def test_reads_see_writes_to_another_segment_and_back(self):
        mem = MemoryImage()
        a = mem.allocate("a", [1, 2])
        b = mem.allocate("b", [3.0], dtype=np.float64)
        assert mem.read_word_speculative(a.base) == (1, True)
        assert mem.read_word_speculative(b.base) == (3.0, True)
        mem.write_word(a.base, 10)
        mem.write_word(b.base, 0.5)
        assert mem.read_word_speculative(a.base) == (10, True)
        assert mem.read_word_speculative(b.base) == (0.5, True)
        assert mem.read_word(a.base + 8) == 2

    def test_is_mapped(self):
        mem = MemoryImage()
        seg = mem.allocate("a", 4)
        assert mem.is_mapped(seg.base)
        assert not mem.is_mapped(seg.base + 4096)


@given(
    offsets=st.lists(st.integers(0, 63), min_size=1, max_size=20),
    values=st.lists(st.integers(-(2**62), 2**62), min_size=20, max_size=20),
)
@settings(max_examples=50)
def test_write_read_roundtrip_property(offsets, values):
    mem = MemoryImage()
    seg = mem.allocate("a", 64)
    expected = {}
    for offset, value in zip(offsets, values):
        addr = seg.base + offset * 8
        mem.write_word(addr, value)
        expected[addr] = value
    for addr, value in expected.items():
        assert mem.read_word(addr) == value
