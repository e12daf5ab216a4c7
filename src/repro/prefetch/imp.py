"""Indirect Memory Prefetcher (IMP), Yu et al., MICRO 2015.

One of the paper's baselines: an L1-level prefetcher that learns
``A[B[i]]`` patterns by correlating the *values* returned by a striding
(index) load with the *addresses* of subsequent loads, solving
``addr = base + value * scale``. Once a pattern is confident, each new
index-load triggers prefetches for several future indices.

As the paper notes, IMP handles simple one-level indirection (cc, Camel,
NAS-IS) but cannot follow multi-level chains or complex address math —
our implementation inherits exactly that limitation because it only
correlates one load value with one address linearly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .base import Technique

_SCALES = (1, 2, 4, 8)


class _IndexStream:
    __slots__ = ("last_addr", "stride", "confidence", "last_value")

    def __init__(self, addr: int, value: int) -> None:
        self.last_addr = addr
        self.stride = 0
        self.confidence = 0
        self.last_value = value


class _Pattern:
    __slots__ = ("base", "scale", "confidence", "prev")

    def __init__(self) -> None:
        self.base: Optional[int] = None
        self.scale: Optional[int] = None
        self.confidence = 0
        self.prev: Optional[Tuple[int, int]] = None  # (index value, address)


class IndirectMemoryPrefetcher(Technique):
    """IMP as a pluggable technique (works purely at the L1-D level)."""

    name = "imp"

    def __init__(
        self,
        table_entries: int = 16,
        prefetch_distance: int = 8,
        confidence: int = 2,
    ) -> None:
        super().__init__()
        self.table_entries = table_entries
        self.prefetch_distance = prefetch_distance
        self.confidence_threshold = confidence
        self._streams: "OrderedDict[int, _IndexStream]" = OrderedDict()
        # (index_pc, indirect_pc) -> pattern
        self._patterns: Dict[Tuple[int, int], _Pattern] = {}
        # Latest confident observation per index stream (pc -> value).
        self._recent_index: "OrderedDict[int, int]" = OrderedDict()
        self.prefetches_issued = 0
        self.patterns_learned = 0

    # -- learning ---------------------------------------------------------------

    def _observe_index_load(self, pc: int, addr: int, value: int) -> Optional[_IndexStream]:
        stream = self._streams.get(pc)
        if stream is None:
            if len(self._streams) >= self.table_entries:
                self._streams.popitem(last=False)
            self._streams[pc] = _IndexStream(addr, value)
            return None
        self._streams.move_to_end(pc)
        stride = addr - stream.last_addr
        if stride != 0 and stride == stream.stride:
            stream.confidence = min(3, stream.confidence + 1)
        else:
            stream.stride = stride
            stream.confidence = 0
        stream.last_addr = addr
        stream.last_value = value
        if stream.confidence >= self.confidence_threshold and stream.stride != 0:
            return stream
        return None

    def _learn_pattern(self, index_pc: int, index_value: int, load_pc: int, addr: int) -> None:
        key = (index_pc, load_pc)
        pattern = self._patterns.get(key)
        if pattern is None:
            if len(self._patterns) >= 4 * self.table_entries:
                return
            pattern = _Pattern()
            self._patterns[key] = pattern
        if pattern.base is not None:
            predicted = pattern.base + index_value * pattern.scale
            if predicted == addr:
                if pattern.confidence < 4:
                    pattern.confidence += 1
                    if pattern.confidence == self.confidence_threshold:
                        self.patterns_learned += 1
            else:
                pattern.confidence = max(0, pattern.confidence - 1)
                if pattern.confidence == 0:
                    pattern.base = None
                    pattern.prev = (index_value, addr)
            return
        if pattern.prev is None:
            pattern.prev = (index_value, addr)
            return
        prev_value, prev_addr = pattern.prev
        delta_value = index_value - prev_value
        delta_addr = addr - prev_addr
        if delta_value != 0 and delta_addr % delta_value == 0:
            scale = delta_addr // delta_value
            if scale in _SCALES:
                pattern.scale = scale
                pattern.base = addr - index_value * scale
                pattern.confidence = 1
        pattern.prev = (index_value, addr)

    # -- hooks --------------------------------------------------------------------

    def on_demand_load(self, pc, addr, value, cycle) -> None:
        if not isinstance(value, int):
            value = 0
        stream = self._observe_index_load(pc, addr, value)

        # Correlate this load's address with the latest value of each
        # candidate index stream.
        for index_pc, index_value in self._recent_index.items():
            if index_pc != pc:
                self._learn_pattern(index_pc, index_value, pc, addr)

        if stream is None:
            return
        # Remember as a candidate index stream for later correlation.
        self._recent_index[pc] = value
        self._recent_index.move_to_end(pc)
        while len(self._recent_index) > 4:
            self._recent_index.popitem(last=False)
        self._issue_prefetches(pc, addr, stream, cycle)

    def _issue_prefetches(self, pc: int, addr: int, stream: _IndexStream, cycle: int) -> None:
        patterns = [
            pattern
            for (index_pc, _load_pc), pattern in self._patterns.items()
            if index_pc == pc
            and pattern.base is not None
            and pattern.confidence >= self.confidence_threshold
        ]
        if not patterns:
            return
        hierarchy = self.hierarchy
        memory = self.memory_image
        for k in range(1, self.prefetch_distance + 1):
            index_addr = addr + stream.stride * k
            index_value, ok = memory.read_word_speculative(index_addr)
            if not ok or not isinstance(index_value, (int, float)):
                continue
            for pattern in patterns:
                target = pattern.base + int(index_value) * pattern.scale
                if target < 0 or not memory.is_mapped(target):
                    continue
                if not hierarchy.mshr_available(cycle):
                    return
                # Speculative source: under a TLB, access() translates
                # this (and may drop it per runahead.tlb_policy).
                hierarchy.access(target, cycle, source="prefetcher", prefetch=True)
                self.prefetches_issued += 1

    def stats(self) -> Dict[str, float]:
        return {
            "imp_prefetches": float(self.prefetches_issued),
            "imp_patterns": float(self.patterns_learned),
        }
