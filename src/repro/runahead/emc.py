"""EMC-style enhanced memory controller (Hashemi et al., ISCA 2016).

The dependent-miss companion to Continuous Runahead that the paper's
related-work section pairs it with: a small compute engine *at the
memory controller* that executes the dependence chain of delinquent
loads, so dependent cache misses are generated from next to DRAM rather
than from the core.

Modelled as Continuous Runahead with one difference: a dependent-miss
round trip costs the engine only the DRAM access itself, not the
core-to-memory path (the controller sits beside the DRAM channel) — so
it *can* follow dependent chains, just serially, one level at a time.
Like CR, it fills the LLC, so the main thread still pays an L3 hit.
The paper's verdict is inherited: without vectorisation and
reordering, a serial engine cannot reach DVR's coverage.
"""

from __future__ import annotations

from typing import Dict

from .continuous import ContinuousRunahead

# The controller-side engine sees roughly the raw DRAM array latency;
# the core-side interconnect/queueing share of the round trip is
# skipped. Table 1's 200-cycle minimum is interconnect-inclusive.
_CONTROLLER_LATENCY_SHARE = 0.5


class EnhancedMemoryController(ContinuousRunahead):
    name = "emc"

    def attach(self, core) -> None:
        super().attach(core)
        self._controller_dram_wait = int(
            self.config.memory.dram_latency * _CONTROLLER_LATENCY_SHARE
        )

    def _dependent_wait(self, level: str, full_wait: int) -> int:
        if level == "DRAM" and full_wait > self._controller_dram_wait:
            return self._controller_dram_wait
        if level == "L3":
            return 5
        return full_wait

    def stats(self) -> Dict[str, float]:
        stats = super().stats()
        return {key.replace("cr_", "emc_"): value for key, value in stats.items()}
