"""L1-D stride prefetcher (Reference Prediction Table style).

Always enabled in the paper's baseline ("A hardware stride prefetcher is
always enabled at the L1-D cache level", Table 1: 16 streams). Detects
per-PC constant-stride load streams; the timing kernel prefetches
``config.stride_prefetcher_degree`` lines ahead of a confident one. It
cannot follow indirection — the gap the runahead family fills.
"""

from __future__ import annotations

from collections import OrderedDict


class _StreamEntry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, last_addr: int) -> None:
        self.last_addr = last_addr
        self.stride = 0
        self.confidence = 0


class StridePrefetcher:
    """Per-PC stride detection with a small, LRU-managed stream table."""

    def __init__(self, streams: int = 16, confidence: int = 2) -> None:
        self.streams = streams
        self.confidence_threshold = confidence
        self._table: "OrderedDict[int, _StreamEntry]" = OrderedDict()

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
