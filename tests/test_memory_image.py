"""Unit tests for the functional memory image."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FunctionalCore
from repro.errors import MemoryError_, SegmentOverlapError
from repro.isa import ProgramBuilder
from repro.memory import MemoryImage
from repro.perf.trace import ArchTrace


def _read_only(array):
    array.flags.writeable = False
    return array


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


class TestBorrowedSegments:
    """A read-only integer array is a segment's storage as it is."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    def test_read_only_integer_sources_are_borrowed(self, dtype):
        info = np.iinfo(dtype)
        source = _read_only(np.array([info.min, 0, 1, 200, info.max], dtype=dtype))
        mem = MemoryImage()
        seg = mem.allocate("a", source)
        assert np.shares_memory(seg.data, source)
        assert seg.size_bytes == 8 * len(source)
        expected = source.astype(np.int64).tolist()
        addrs = [seg.base + 8 * i for i in range(len(source))]
        reads = [mem.read_word(addr) for addr in addrs]
        assert reads == expected
        assert all(type(value) is int for value in reads)
        assert [mem.read_word_speculative(addr) for addr in addrs] == [
            (value, True) for value in expected
        ]
        assert seg.view.tolist() == expected

    @pytest.mark.parametrize(
        "source,dtype",
        [
            (np.arange(4, dtype=np.uint16), np.int64),
            (_read_only(np.arange(4.0)), np.float64),
            (_read_only(np.arange(4, dtype=np.uint16)), np.float64),
            (_read_only(np.arange(4, dtype=np.uint64)), np.int64),
            (_read_only(np.arange(8, dtype=np.int64))[::2], np.int64),
            (_read_only(np.arange(4, dtype=np.int64)[:]), np.int64),
            (_read_only(np.zeros(4, dtype=bool)), np.int64),
        ],
        ids=["writable", "float", "float-words", "uint64", "strided", "view", "bool"],
    )
    def test_other_sources_are_copied(self, source, dtype):
        mem = MemoryImage()
        seg = mem.allocate("a", source, dtype=dtype)
        assert not np.shares_memory(seg.data, source)
        assert seg.data.dtype == dtype and seg.data.flags.writeable
        mem.write_word(seg.base, 3)
        assert mem.read_word(seg.base) == 3
        assert source[0] == 0

    def test_digest_matches_an_image_of_int64_copies(self):
        rng = np.random.default_rng(5)
        # Longer than one hash chunk, so the narrow ones widen in parts.
        sources = {
            "u8": rng.integers(0, 256, 150_001).astype(np.uint8),
            "u16": rng.integers(0, 1 << 16, 70_000).astype(np.uint16),
            "u32": rng.integers(0, 1 << 32, 9).astype(np.uint32),
            "i64": rng.integers(-(1 << 40), 1 << 40, 9),
        }
        shared, copied = MemoryImage(), MemoryImage()
        for name, array in sources.items():
            copied.allocate(name, array.astype(np.int64))
            assert not shared.allocate(name, _read_only(array)).data.flags.writeable
        for image in (shared, copied):
            image.allocate("f", [0.5, -2.0], dtype=np.float64)
        assert shared.digest() == copied.digest()

    def test_a_store_fails_with_memory_error_and_logs_nothing(self):
        mem = MemoryImage()
        seg = mem.allocate("IN", _read_only(np.arange(4, dtype=np.uint16)))
        digest = mem.digest()
        undo = []
        for value in (5, -1, 1 << 70, 0.5):
            with pytest.raises(MemoryError_, match="'IN'"):
                mem.write_word(seg.base + 8, value, undo=undo)
        assert undo == []
        assert mem.digest() == digest

    def test_a_store_to_a_borrowed_segment_fails_fill(self):
        # The first store succeeds and is logged; the second hits the
        # borrowed segment. The fill must roll the first back and raise
        # the store's own error, not one from its rollback.
        mem = MemoryImage()
        own = mem.allocate("OWN", 2)
        shared = mem.allocate("IN", _read_only(np.arange(4, dtype=np.uint16)))
        b = ProgramBuilder("store_to_input")
        b.li("r1", own.base)
        b.li("r2", shared.base)
        b.li("r3", 5)
        b.store("r3", "r1")
        b.store("r3", "r2", 8)
        b.halt()
        digest = mem.digest()
        core = FunctionalCore(b.build(), mem)
        with pytest.raises(MemoryError_, match="read-only segment 'IN'"):
            core.fill(ArchTrace(), 100)
        assert mem.read_word(own.base) == 0
        assert mem.digest() == digest


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
