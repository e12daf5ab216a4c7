"""L1-D stride prefetcher (Reference Prediction Table style).

Always enabled in the paper's baseline ("A hardware stride prefetcher is
always enabled at the L1-D cache level", Table 1: 16 streams). Detects
per-PC constant-stride load streams and prefetches ``degree`` lines
ahead. It cannot follow indirection — the gap the runahead family fills.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.hierarchy import MemoryHierarchy


class _StreamEntry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, last_addr: int) -> None:
        self.last_addr = last_addr
        self.stride = 0
        self.confidence = 0


class StridePrefetcher:
    """Per-PC stride detection with a small, LRU-managed stream table."""

    def __init__(self, streams: int = 16, degree: int = 2, confidence: int = 2) -> None:
        self.streams = streams
        self.degree = degree
        self.confidence_threshold = confidence
        self._table: "OrderedDict[int, _StreamEntry]" = OrderedDict()
        self.issued = 0

    def observe(self, pc: int, addr: int) -> int:
        """Train the table on one load of ``pc`` at ``addr``.

        Returns the stream's stride once it is confident, else 0: the
        column the timing kernel reads (``repro.frontend.columns``).
        """
        table = self._table
        entry = table.get(pc)
        if entry is None:
            if len(table) >= self.streams:
                table.popitem(last=False)
            table[pc] = _StreamEntry(addr)
            return 0
        table.move_to_end(pc)
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(3, entry.confidence + 1)
        else:
            entry.stride = stride
            entry.confidence = 0
        entry.last_addr = addr
        if stride == 0 or entry.confidence < self.confidence_threshold:
            return 0
        return stride

    def stride_of(self, pc: int) -> int:
        entry = self._table.get(pc)
        return entry.stride if entry else 0

    def on_demand_load(
        self, pc: int, addr: int, cycle: int, hierarchy: "MemoryHierarchy"
    ) -> None:
        """Train on one demand load, then prefetch ``degree`` lines of a
        confident stream while an MSHR is free at ``cycle``.

        The timing kernel issues from the front-end column in the same
        order, through the same calls; this live form serves the test
        oracles and unit tests.
        """
        stride = self.observe(pc, addr)
        if not stride:
            return
        target = addr
        for _ in range(self.degree):
            target += stride
            if target < 0 or not hierarchy.mshr_available(cycle):
                break
            # With an MSHR free at ``cycle`` the fused path is exactly
            # access(target, cycle, source="prefetcher", prefetch=True).
            # Under a TLB it takes access(), which translates this
            # speculative request (and may drop it at an L2-TLB miss
            # per runahead.tlb_policy).
            hierarchy.prefetch_ready(target, cycle, "prefetcher")
            self.issued += 1
