"""Miss Status Holding Registers.

The MSHR file bounds the memory-level parallelism of the whole core —
this is the resource Vector Runahead and DVR try to keep saturated
(paper Section 3, insight on MLP, and Figure 9).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional


class MSHRFile:
    """A fixed pool of outstanding-miss trackers with lazy reclamation.

    Entries are keyed by line address. Occupancy over time is integrated
    so the harness can report mean occupied MSHRs per cycle (Figure 9).

    Reclamation is event-driven: each allocation schedules its ready
    cycle on a min-heap, and a purge pops only the entries whose wakeup
    time has passed — O(freed log n) instead of a full scan of the file
    on every scheduling query.
    """

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.num_entries = num_entries
        self._inflight: Dict[int, int] = {}  # line -> ready cycle
        # Reclamation wakeups: (ready, line). Stale entries (the line
        # was purged, or re-allocated with a different ready cycle) are
        # dropped lazily against the dict when popped.
        self._ready_heap: List = []
        self.occupancy_integral = 0  # sum over entries of busy cycles
        self.total_allocations = 0
        self.merged_requests = 0
        self.rejected_requests = 0
        self.peak_occupancy = 0
        # Busy intervals for exact occupancy reporting (Figure 9).
        self._interval_starts: List[int] = []
        self._interval_ends: List[int] = []

    def _purge(self, cycle: int) -> None:
        heap = self._ready_heap
        if not heap or heap[0][0] > cycle:
            return
        inflight = self._inflight
        while heap and heap[0][0] <= cycle:
            ready, line = heappop(heap)
            if inflight.get(line) == ready:
                del inflight[line]

    def peek(self, line: int, cycle: int) -> Optional[int]:
        """Ready cycle if this line is in flight, else None. Stats-neutral.

        Use this for pure queries (e.g. scheduling decisions); only a
        real merged request should go through :meth:`lookup`, which
        counts it in ``merged_requests``.
        """
        ready = self._inflight.get(line)
        if ready is not None and ready > cycle:
            return ready
        return None

    def lookup(self, line: int, cycle: int) -> Optional[int]:
        """Ready cycle if this line is already in flight (a merge), else None."""
        ready = self.peek(line, cycle)
        if ready is not None:
            self.merged_requests += 1
        return ready

    def available(self, cycle: int) -> bool:
        heap = self._ready_heap
        if heap and heap[0][0] <= cycle:
            self._purge(cycle)
        return len(self._inflight) < self.num_entries

    def next_free(self, cycle: int) -> int:
        """Earliest cycle at which an allocation could succeed."""
        self._purge(cycle)
        if len(self._inflight) < self.num_entries:
            return cycle
        return min(self._inflight.values())

    def allocate(self, line: int, cycle: int, ready: int) -> bool:
        """Try to track a new miss; False when the file is full."""
        heap = self._ready_heap
        if heap and heap[0][0] <= cycle:
            self._purge(cycle)
        inflight = self._inflight
        if len(inflight) >= self.num_entries:
            self.rejected_requests += 1
            return False
        inflight[line] = ready
        heappush(heap, (ready, line))
        self.total_allocations += 1
        occupancy = len(inflight)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        if ready > cycle:
            self.occupancy_integral += ready - cycle
            self._interval_starts.append(cycle)
            self._interval_ends.append(ready)
        return True

    def occupancy(self, cycle: int) -> int:
        self._purge(cycle)
        return len(self._inflight)

    def inflight(self) -> Dict[int, int]:
        """Snapshot of in-flight entries (line -> ready cycle), un-purged."""
        return dict(self._inflight)

    def interval_integral(self, start: int = 0, end: float = float("inf")) -> int:
        """Sum of recorded busy-interval lengths inside ``[start, end]``
        (cross-check for the sweep)."""
        return sum(
            max(0, min(hi, end) - max(lo, start))
            for lo, hi in zip(self._interval_starts, self._interval_ends)
        )

    def mean_occupancy(self, end: int, start: int = 0) -> float:
        """Mean occupied MSHRs per cycle over ``[start, end]`` (Figure 9).

        Computed from the recorded busy intervals with an event sweep,
        clamping instantaneous occupancy at the file capacity (requests
        admitted slightly out of order by the lazy-purge approximation
        cannot make the hardware hold more entries than it has).
        """
        if end <= start or not self._interval_starts:
            return 0.0
        import numpy as np

        # Clip to the measured window: late prefetches may still be in
        # flight when the run ends, and a warmed run's window opens at
        # the warm-up instant.
        starts = np.clip(np.asarray(self._interval_starts, dtype=np.int64), start, end)
        ends = np.clip(np.asarray(self._interval_ends, dtype=np.int64), start, end)
        times = np.concatenate([starts, ends])
        deltas = np.concatenate(
            [np.ones(len(starts), dtype=np.int64), -np.ones(len(ends), dtype=np.int64)]
        )
        order = np.argsort(times, kind="stable")
        times = times[order]
        counts = np.cumsum(deltas[order])
        counts = np.minimum(counts, self.num_entries)
        spans = np.diff(times)
        integral = float(np.sum(counts[:-1] * spans))
        return integral / (end - start)
