"""Functional memory: named segments of 8-byte words in a flat space.

The image is shared by the functional core and every speculative
interpreter. Speculative reads never fault: out-of-segment addresses
return ``(0, False)`` so runahead engines behave like real transient
execution (garbage data, no exception).

A segment either owns its words (int64 or float64, written by stores)
or borrows a read-only integer array as it is (see
:func:`_borrowable`): a word read from a borrowed uint8 or uint16 array
is the same ``int`` an int64 copy would give, a store to it raises
:class:`MemoryError_`, and :meth:`MemoryImage.digest` hashes it as the
int64 words it stands for.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import MemoryError_, SegmentOverlapError

WORD_BYTES = 8
_SEGMENT_ALIGN = 64  # keep segments line-aligned and non-adjacent
_DIGEST_CHUNK = 1 << 16  # words of a narrow segment widened per hash update


def _borrowable(source, dtype) -> bool:
    """Whether ``allocate`` may use ``source`` itself as a segment's words.

    Only a read-only array of native integers that widen to int64
    without loss, which owns its memory (so no writable array over the
    same bytes hides beneath it, and it is contiguous), when int64
    words are asked for. Anything else is copied.
    """
    return (
        isinstance(source, np.ndarray)
        and not source.flags.writeable
        and source.flags.owndata
        and source.dtype.kind in "iu"
        and source.dtype.isnative
        and np.can_cast(source.dtype, np.int64)
        and np.dtype(dtype) == np.int64
    )


class Segment:
    """One named allocation backed by a numpy array: the image's own
    words, or a borrowed read-only integer array."""

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
        """Allocate a segment; returns it (``segment.base`` is its address).

        A read-only integer array (:func:`_borrowable`) becomes the
        segment's storage as it is, so images built from one input share
        it and no store can reach it; any other source is copied into
        fresh ``dtype`` words.
        """
        if name in self._by_name:
            raise SegmentOverlapError(f"segment {name!r} already allocated")
        if isinstance(data_or_words, (int, np.integer)):
            data = np.zeros(int(data_or_words), dtype=dtype)
        elif _borrowable(data_or_words, dtype):
            data = data_or_words
        else:
            # One copy, which also widens a narrower source.
            data = np.array(data_or_words, dtype=dtype)
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

        With ``undo``, a write that succeeds appends ``(view, index, old
        word)`` to it; assigning the entries back in reverse order
        (``view[index] = old``) restores the image exactly, whatever the
        segment's dtype. A store to a borrowed (read-only) segment
        raises :class:`MemoryError_` and logs nothing, so a rollback of
        ``undo`` never touches a read-only view.
        """
        located = self._locate(addr)
        if located is None:
            raise MemoryError_(f"write to unmapped address 0x{addr:x}")
        seg, index = located
        data = seg.data
        if data.dtype.kind == "i" and isinstance(value, int):
            value = ((value + 2**63) % 2**64) - 2**63
        # No per-store check for a borrowed segment: numpy refuses the
        # assignment, and only the failure path asks why.
        try:
            if undo is None:
                data[index] = value
            else:
                view = seg.view
                old = view[index]
                data[index] = value
                undo.append((view, index, old))
        except ValueError:
            if data.flags.writeable:
                raise
            raise MemoryError_(
                f"store to read-only segment {seg.name!r} at 0x{addr:x}"
            ) from None

    def digest(self) -> str:
        """BLAKE2b digest over segment names, bases, and contents.

        Contents are hashed as 8-byte words: a borrowed narrow segment
        is widened to int64 a chunk at a time, so it digests like the
        int64 copy it replaces without one whole widened copy.
        """
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        for seg in self._segments:
            h.update(seg.name.encode())
            h.update(seg.base.to_bytes(8, "little"))
            data = seg.data
            if data.itemsize == WORD_BYTES:
                h.update(data)
            else:
                for start in range(0, len(data), _DIGEST_CHUNK):
                    h.update(data[start : start + _DIGEST_CHUNK].astype(np.int64))
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
