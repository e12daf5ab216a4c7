"""The record one run produces: :class:`SimulationResult`.

It lives apart from the timing core so that everything that only keys,
stores, ships or prints results (spec keys, the result cache, the
fabric wire, the campaign ledger, the stats export) imports no model
code; :mod:`repro.core.ooo`, which builds it, re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .observability.counters import subtree


#: Demand-load service levels (``repro.memory.hierarchy``'s ``LEVEL_*``
#: names) and the counter each is published under.
_LEVEL_COUNTERS = (
    ("DRAM", "mem.l3.misses"),
    ("L1", "mem.l1.hits"),
    ("L2", "mem.l2.hits"),
    ("L3", "mem.l3.hits"),
    ("MSHR", "mem.mshr.merges"),
)


def _counter(name: str) -> property:
    """A read-only result attribute: counter ``name``."""
    return property(lambda self: self.counters.get(name, 0), doc=f"``{name}``")


def _family(prefix: str) -> property:
    """A read-only result attribute: the counters under ``prefix.``,
    prefix stripped."""
    return property(lambda self: subtree(self.counters, prefix), doc=f"``{prefix}.*``")


@dataclass
class SimulationResult:
    """Everything the experiment harness needs from one run.

    The counter snapshot is the run's one book: every metric below is a
    read-only view over :attr:`counters`, so a cached or sent result
    carries each number once.
    """

    workload: str
    technique: str
    #: Full counter-registry snapshot (see docs/observability.md).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Whole-stream event digest when tracing was enabled, else None.
    trace_digest: Optional[str] = None
    #: Events emitted over the run (including ring-evicted ones).
    trace_events: int = 0
    #: Per-check audit record (``repro.audit``) when the run was audited.
    audit: Optional[Dict] = None

    instructions = _counter("core.commit.instructions")
    cycles = _counter("core.cycles")
    full_rob_stall_cycles = _counter("core.stall.full_rob_cycles")
    stall_episodes = _counter("core.stall.episodes")
    commit_block_cycles = _counter("core.stall.commit_block_cycles")
    branch_predictions = _counter("core.branch.predictions")
    branch_mispredictions = _counter("core.branch.mispredictions")
    demand_loads = _counter("mem.demand.loads")
    mean_mshr_occupancy = _counter("mem.mshr.mean_occupancy")
    dram_by_source = _family("mem.dram.accesses")
    prefetches_by_source = _family("mem.prefetch.issued")
    timeliness = _family("mem.prefetch.timeliness")
    cycle_buckets = _family("core.cpi_stack")

    @property
    def technique_stats(self) -> Dict[str, float]:
        """The technique's own ``runahead.<technique>.*`` family."""
        return subtree(self.counters, f"runahead.{self.technique}")

    @property
    def demand_level_counts(self) -> Dict[str, int]:
        """Demand loads by service level, rebuilt from the five level
        counters; a level that never occurred is omitted."""
        get = self.counters.get
        return {level: count for level, name in _LEVEL_COUNTERS if (count := get(name, 0))}

    def cpi_stack(self) -> Dict[str, float]:
        """Cycles-per-instruction attribution (Sniper-style CPI stack).

        Buckets: ``base`` (full-width flow), ``mem_l1/l2/l3/dram``
        (load service level on the commit critical path), ``branch``
        (mispredict redirects), ``dependency`` (register dataflow),
        ``issue_contention`` (FU ports), ``backend_full`` (dispatch
        blocked on ROB/IQ/LQ/SQ), ``frontend``, ``commit_width``, and
        ``runahead_block`` (VR's delayed termination). Values sum to
        the run's CPI.
        """
        if not self.instructions:
            return {}
        return {
            bucket: cycles / self.instructions
            for bucket, cycles in sorted(self.cycle_buckets.items())
        }

    def to_dict(self) -> Dict:
        """JSON-friendly dump of every metric (for external tooling)."""
        return {
            "workload": self.workload,
            "technique": self.technique,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "full_rob_stall_cycles": self.full_rob_stall_cycles,
            "stall_episodes": self.stall_episodes,
            "commit_block_cycles": self.commit_block_cycles,
            "branch_predictions": self.branch_predictions,
            "branch_mispredictions": self.branch_mispredictions,
            "demand_loads": self.demand_loads,
            "demand_level_counts": self.demand_level_counts,
            "dram_by_source": self.dram_by_source,
            "prefetches_by_source": self.prefetches_by_source,
            "timeliness": self.timeliness,
            "mean_mshr_occupancy": self.mean_mshr_occupancy,
            "llc_mpki": self.llc_mpki(),
            "cpi_stack": self.cpi_stack(),
            "technique_stats": self.technique_stats,
            "counters": dict(self.counters),
            "trace_digest": self.trace_digest,
            "trace_events": self.trace_events,
            "audit": self.audit,
        }

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def full_rob_stall_fraction(self) -> float:
        return self.full_rob_stall_cycles / self.cycles if self.cycles else 0.0

    @property
    def dram_accesses(self) -> int:
        return sum(self.dram_by_source.values())

    def llc_mpki(self) -> float:
        """Misses (DRAM accesses) per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.dram_accesses / self.instructions
