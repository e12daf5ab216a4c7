"""Cross-validation of the mechanistic OoO model against the literal
per-cycle model (the `CycleCore` oracle in `tests/oracles/cycle.py`).

The two models share the functional front-end, branch predictor, and
timed memory hierarchy but compute timing completely differently
(analytical dataflow vs an explicit cycle loop). Agreement here is the
evidence that the fast model's approximations (order-statistic queues,
slot-based ports) are sound.
"""

import numpy as np
import pytest

from repro.config import CoreConfig, SimConfig
from repro.core import OoOCore
from repro.experiments.spec import apply_override
from repro.workloads import build_workload

from conftest import build_counted_loop, build_indirect_kernel, quick_config
from oracles.cycle import CycleCore

# The acceptable IPC band between the two models.
TOLERANCE = 0.30


def both(builder, config=None, instructions=2000, **kw):
    p1, m1 = builder(**kw)
    fast = OoOCore(p1, m1, config or quick_config(instructions)).run()
    p2, m2 = builder(**kw)
    slow = CycleCore(p2, m2, config or quick_config(instructions)).run()
    return fast, slow, (m1, m2)


class TestTimingAgreement:
    def test_alu_loop(self):
        fast, slow, _ = both(build_counted_loop, iterations=300)
        assert fast.ipc == pytest.approx(slow.ipc, rel=TOLERANCE)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_indirect_chains(self, levels):
        fast, slow, _ = both(build_indirect_kernel, levels=levels)
        assert fast.ipc == pytest.approx(slow.ipc, rel=TOLERANCE)

    @pytest.mark.parametrize("name", ["camel", "nas_is", "bfs", "cc"])
    def test_paper_workloads(self, name):
        wl_fast = build_workload(name, size="tiny")
        fast = OoOCore(wl_fast.program, wl_fast.memory, quick_config(2000)).run()
        wl_slow = build_workload(name, size="tiny")
        slow = CycleCore(wl_slow.program, wl_slow.memory, quick_config(2000)).run()
        assert fast.ipc == pytest.approx(slow.ipc, rel=TOLERANCE)

    # bfs at its tiny size: the default graph takes ~0.4 s to build.
    @pytest.mark.parametrize("name,size", [("camel", "default"), ("bfs", "tiny")])
    def test_translated_workloads(self, name, size):
        """With the TLB on, both models walk the same pages."""
        cfg = apply_override(quick_config(3000), "memory.tlb.enable", True)
        wl_fast = build_workload(name, size=size)
        fast = OoOCore(wl_fast.program, wl_fast.memory, cfg).run()
        wl_slow = build_workload(name, size=size)
        slow = CycleCore(wl_slow.program, wl_slow.memory, cfg).run()
        assert fast.instructions == slow.instructions
        assert fast.demand_loads == slow.demand_loads
        walks = fast.counters["mem.tlb.walks"]
        assert walks > 0
        assert slow.counters["mem.tlb.walks"] == walks
        assert fast.ipc == pytest.approx(slow.ipc, rel=TOLERANCE)

    def test_rob_scaling_trend_agrees(self):
        """Both models must agree on the *direction* of a config change."""
        ratios = {}
        for rob in (64, 350):
            cfg = quick_config(1500).with_core(CoreConfig().with_scaled_backend(rob))
            fast, slow, _ = both(build_indirect_kernel, config=cfg, levels=1)
            ratios[rob] = (fast.ipc, slow.ipc)
        assert (ratios[350][0] >= ratios[64][0]) == (ratios[350][1] >= ratios[64][1])

    def test_dram_latency_sensitivity_agrees(self):
        from dataclasses import replace

        from repro.config import MemoryConfig

        slow_mem = replace(MemoryConfig.scaled(), dram_latency=400)
        cfg = replace(quick_config(1500), memory=slow_mem)
        fast_slowmem, cyc_slowmem, _ = both(build_indirect_kernel, config=cfg, levels=1)
        fast_base, cyc_base, _ = both(build_indirect_kernel, levels=1, instructions=1500)
        assert fast_slowmem.ipc < fast_base.ipc
        assert cyc_slowmem.ipc < cyc_base.ipc


class TestArchitecturalAgreement:
    def test_identical_memory_results(self):
        fast, slow, (m1, m2) = both(build_indirect_kernel, levels=2)
        assert fast.instructions == slow.instructions
        for seg in m1.segments():
            assert np.array_equal(m2.segment(seg.name).data, seg.data)

    def test_identical_demand_loads(self):
        fast, slow, _ = both(build_indirect_kernel, levels=1)
        assert fast.demand_loads == slow.demand_loads

    def test_branch_mispredict_counts_match(self):
        """Same predictor, same stream: identical mispredict counts."""
        fast, slow, _ = both(build_indirect_kernel, levels=1)
        assert fast.branch_mispredictions == slow.branch_mispredictions


class TestCycleCoreBasics:
    def test_single_run_enforced(self):
        from repro.errors import SimulationError

        program, mem = build_counted_loop(10)
        core = CycleCore(program, mem, quick_config(100))
        core.run()
        with pytest.raises(SimulationError):
            core.run()

    def test_ipc_bounded_by_width(self):
        program, mem = build_counted_loop(400)
        result = CycleCore(program, mem, quick_config(1500)).run()
        assert 0 < result.ipc <= SimConfig().core.width

    def test_halts_at_program_end(self):
        program, mem = build_counted_loop(5)
        result = CycleCore(program, mem, quick_config(10_000)).run()
        assert result.instructions == 5 * 4 + 2 + 1

    def test_technique_label(self):
        program, mem = build_counted_loop(5)
        result = CycleCore(program, mem, quick_config(100)).run()
        assert result.technique == "ooo-cycle"
