"""Functional memory: named segments of 8-byte words in a flat space.

The image is shared by the functional core and every speculative
interpreter. Speculative reads never fault: out-of-segment addresses
return ``(0, False)`` so runahead engines behave like real transient
execution (garbage data, no exception).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import MemoryError_, SegmentOverlapError

WORD_BYTES = 8
_SEGMENT_ALIGN = 64  # keep segments line-aligned and non-adjacent


class Segment:
    """One named allocation backed by a numpy array."""

    __slots__ = ("name", "base", "data", "view", "size_bytes")

    def __init__(self, name: str, base: int, data: np.ndarray) -> None:
        self.name = name
        self.base = base
        self.data = data
        # Zero-copy view of ``data``: an item is the same native int or
        # float ``tolist()`` would give, without numpy scalar extraction
        # and coercion, and the view sees every write to ``data``.
        self.view = memoryview(data)
        self.size_bytes = len(data) * WORD_BYTES

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Segment({self.name!r}, base=0x{self.base:x}, words={len(self.data)})"


class MemoryImage:
    """A flat byte-addressed space of word-granular segments."""

    def __init__(self, base_address: int = 0x1_0000) -> None:
        self._next_base = base_address
        self._segments: List[Segment] = []
        self._bases: List[int] = []
        self._by_name: Dict[str, Segment] = {}
        # Last segment a lookup landed in: accesses cluster heavily per
        # segment, so this skips the bisect on the common repeat hit.
        self._last_seg: Optional[Segment] = None

    # -- allocation ---------------------------------------------------------

    def allocate(
        self,
        name: str,
        data_or_words: Union[int, Sequence, np.ndarray],
        dtype=np.int64,
        base: Optional[int] = None,
    ) -> Segment:
        """Allocate a segment; returns it (``segment.base`` is its address)."""
        if name in self._by_name:
            raise SegmentOverlapError(f"segment {name!r} already allocated")
        if isinstance(data_or_words, (int, np.integer)):
            data = np.zeros(int(data_or_words), dtype=dtype)
        else:
            data = np.asarray(data_or_words, dtype=dtype).copy()
        if len(data) == 0:
            raise MemoryError_(f"segment {name!r} must not be empty")
        if base is None:
            base = self._next_base
        if base % WORD_BYTES != 0:
            raise MemoryError_(f"segment base 0x{base:x} not word aligned")
        for seg in self._segments:
            if base < seg.end and seg.base < base + len(data) * WORD_BYTES:
                raise SegmentOverlapError(
                    f"segment {name!r} at 0x{base:x} overlaps {seg.name!r}"
                )
        segment = Segment(name, base, data)
        index = bisect.bisect_left(self._bases, base)
        self._segments.insert(index, segment)
        self._bases.insert(index, base)
        self._by_name[name] = segment
        aligned_end = (segment.end + _SEGMENT_ALIGN) & ~(_SEGMENT_ALIGN - 1)
        self._next_base = max(self._next_base, aligned_end + _SEGMENT_ALIGN)
        return segment

    def segment(self, name: str) -> Segment:
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryError_(f"no segment named {name!r}") from None

    def segments(self) -> Tuple[Segment, ...]:
        return tuple(self._segments)

    @property
    def total_bytes(self) -> int:
        return sum(seg.size_bytes for seg in self._segments)

    # -- access --------------------------------------------------------------

    def _locate(self, addr: int) -> Optional[Tuple[Segment, int]]:
        seg = self._last_seg
        if seg is not None:
            offset = addr - seg.base
            if 0 <= offset < seg.size_bytes:
                if offset % WORD_BYTES != 0:
                    return None
                return seg, offset // WORD_BYTES
        index = bisect.bisect_right(self._bases, addr) - 1
        if index < 0:
            return None
        seg = self._segments[index]
        offset = addr - seg.base
        if offset < 0 or offset >= seg.size_bytes:
            return None
        if offset % WORD_BYTES != 0:
            return None
        self._last_seg = seg
        return seg, offset // WORD_BYTES

    def read_word(self, addr: int):
        """Architectural read; raises on an unmapped address."""
        located = self._locate(addr)
        if located is None:
            raise MemoryError_(f"read from unmapped address 0x{addr:x}")
        seg, index = located
        return seg.view[index]

    def write_word(self, addr: int, value, undo: Optional[list] = None) -> None:
        """Architectural write; raises on an unmapped address.

        Integer stores wrap modulo 2**64 into the word's two's-complement
        range, matching a real 64-bit datapath (numpy would raise
        OverflowError on out-of-range Python ints instead).

        With ``undo``, the write first appends ``(view, index, old
        word)`` to it; assigning the entries back in reverse order
        (``view[index] = old``) restores the image exactly, whatever the
        segment's dtype.
        """
        located = self._locate(addr)
        if located is None:
            raise MemoryError_(f"write to unmapped address 0x{addr:x}")
        seg, index = located
        if undo is not None:
            view = seg.view
            undo.append((view, index, view[index]))
        if seg.data.dtype.kind == "i" and isinstance(value, int):
            value = ((value + 2**63) % 2**64) - 2**63
        seg.data[index] = value

    def digest(self) -> str:
        """BLAKE2b digest over segment names, bases, and contents."""
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        for seg in self._segments:
            h.update(seg.name.encode())
            h.update(seg.base.to_bytes(8, "little"))
            h.update(seg.data.tobytes())
        return h.hexdigest()

    def read_word_speculative(self, addr: int) -> Tuple[Union[int, float], bool]:
        """Speculative read: unmapped/misaligned addresses return (0, False)."""
        if type(addr) is not int:
            if not isinstance(addr, (int, np.integer)):
                return 0, False
            addr = int(addr)
        if addr < 0:
            return 0, False
        addr &= ~(WORD_BYTES - 1)
        # Inlined _locate repeat-hit fast path (``addr`` and every
        # segment base are word aligned, so no alignment check).
        seg = self._last_seg
        if seg is not None:
            offset = addr - seg.base
            if 0 <= offset < seg.size_bytes:
                return seg.view[offset // WORD_BYTES], True
        located = self._locate(addr)
        if located is None:
            return 0, False
        seg, index = located
        return seg.view[index], True

    def is_mapped(self, addr: int) -> bool:
        if not isinstance(addr, (int, np.integer)) or addr < 0:
            return False
        return self._locate(int(addr) & ~(WORD_BYTES - 1)) is not None
