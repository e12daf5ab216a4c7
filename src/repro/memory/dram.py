"""DRAM: fixed minimum latency plus request-based channel contention.

Matches the paper's Table 1 memory model: "50 ns min. latency,
51.2 GB/s bandwidth, request-based contention model". Each line transfer
occupies the channel for ``line_bytes / bytes_per_cycle`` cycles; the
access completes ``latency`` cycles after it wins a channel slot.

Contention is tracked as a map of occupied service slots rather than a
monotone busy-until pointer: the simulator presents accesses in program
order, not time order, and an access must only contend with transfers
near its own issue time.
"""

from __future__ import annotations

from typing import Set


class Dram:
    """Single-channel DRAM with slot-granular request contention."""

    def __init__(
        self,
        latency: int = 200,
        bytes_per_cycle: float = 12.8,
        line_bytes: int = 64,
    ) -> None:
        if latency < 0 or bytes_per_cycle <= 0:
            raise ValueError("bad DRAM parameters")
        self.latency = latency
        self.service_cycles = max(1, round(line_bytes / bytes_per_cycle))
        self._busy_slots: Set[int] = set()
        self.total_accesses = 0
        self.busy_integral = 0
        self.contended_accesses = 0

    def access(self, cycle: int) -> int:
        """Issue one line fetch; returns its completion cycle."""
        service = self.service_cycles
        busy = self._busy_slots
        slot = cycle // service if cycle > 0 else 0
        if slot in busy:
            self.contended_accesses += 1
            while slot in busy:
                slot += 1
        busy.add(slot)
        start = slot * service
        if cycle > start:
            start = cycle
        self.total_accesses += 1
        self.busy_integral += service
        return start + self.latency

    def utilization(self, total_cycles: int) -> float:
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_integral / total_cycles)

    @property
    def channel_free_at(self) -> int:
        """Earliest slot boundary after every currently tracked transfer."""
        if not self._busy_slots:
            return 0
        return (max(self._busy_slots) + 1) * self.service_cycles
