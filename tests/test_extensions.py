"""Tests for the extension features: CPI stacks, warmup/ROI support,
Continuous Runahead, and result export formats."""

import csv
import io
import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.config import SimConfig
from repro.core import FunctionalCore, OoOCore
from repro.experiments import ExperimentResult, run_simulation
from repro.techniques import make_technique, technique_names

from conftest import build_counted_loop, build_indirect_kernel, quick_config


class TestCpiStack:
    def test_stack_sums_to_cpi(self):
        for workload, technique in (("camel", "ooo"), ("bfs", "dvr"), ("nas_is", "vr")):
            result = run_simulation(workload, technique, max_instructions=4000)
            stack = result.cpi_stack()
            assert sum(stack.values()) == pytest.approx(
                result.cycles / result.instructions, rel=1e-9
            )

    def test_alu_loop_is_dependency_or_base_bound(self):
        program, mem = build_counted_loop(1000)
        result = OoOCore(program, mem, quick_config()).run()
        stack = result.cpi_stack()
        mem_cycles = sum(v for k, v in stack.items() if k.startswith("mem_"))
        assert mem_cycles < 0.05

    def test_memory_kernel_is_dram_bound(self):
        program, mem = build_indirect_kernel(levels=2)
        result = OoOCore(program, mem, quick_config()).run()
        stack = result.cpi_stack()
        assert stack.get("mem_dram", 0) > 0.5 * sum(stack.values())

    def test_vr_shows_runahead_block(self):
        result = run_simulation("nas_is", "vr", max_instructions=4000)
        assert result.cpi_stack().get("runahead_block", 0) > 0

    def test_dvr_never_shows_runahead_block(self):
        result = run_simulation("nas_is", "dvr", max_instructions=4000)
        assert result.cpi_stack().get("runahead_block", 0) == 0

    def test_branch_bucket_on_mispredicting_kernel(self):
        import numpy as np

        from repro.isa import ProgramBuilder
        from repro.memory import MemoryImage

        rng = np.random.default_rng(3)
        mem = MemoryImage()
        seg = mem.allocate("a", rng.integers(0, 2, 4096))
        b = ProgramBuilder()
        b.li("r1", seg.base)
        b.li("r2", 0)
        b.li("r3", 4096)
        b.label("loop")
        b.shli("r4", "r2", 3)
        b.add("r4", "r1", "r4")
        b.load("r5", "r4")
        b.bnz("r5", "skip")
        b.addi("r6", "r6", 1)
        b.label("skip")
        b.addi("r2", "r2", 1)
        b.cmp_lt("r7", "r2", "r3")
        b.bnz("r7", "loop")
        result = OoOCore(b.build(), mem, quick_config()).run()
        assert result.cpi_stack().get("branch", 0) > 0

    def test_empty_result_has_empty_stack(self):
        from repro.core.ooo import SimulationResult

        empty = SimulationResult(
            workload="x", technique="x",
            counters={"core.commit.instructions": 0, "core.cycles": 1},
        )
        assert empty.cpi_stack() == {}


class TestWarmup:
    def test_roi_excludes_warmup_instructions(self):
        cfg = replace(SimConfig(max_instructions=6000), warmup_instructions=2000)
        result = run_simulation("camel", "ooo", cfg)
        assert result.instructions == 4000

    def test_roi_stack_still_sums(self):
        cfg = replace(SimConfig(max_instructions=6000), warmup_instructions=2000)
        result = run_simulation("camel", "ooo", cfg)
        assert sum(result.cpi_stack().values()) == pytest.approx(
            result.cycles / result.instructions
        )

    def test_roi_counters_are_deltas(self):
        cold = run_simulation("nas_is", "ooo", SimConfig(max_instructions=6000))
        warm = run_simulation(
            "nas_is",
            "ooo",
            replace(SimConfig(max_instructions=6000), warmup_instructions=3000),
        )
        assert warm.demand_loads < cold.demand_loads
        assert warm.dram_accesses < cold.dram_accesses

    def test_warmup_longer_than_run_is_ignored(self):
        cfg = replace(SimConfig(max_instructions=1000), warmup_instructions=5000)
        result = run_simulation("camel", "ooo", cfg)
        assert result.instructions == 1000

    def test_warmup_ipc_is_steadier(self):
        """The warm region excludes cold-start predictor/cache training."""
        cfg = replace(SimConfig(max_instructions=8000), warmup_instructions=2000)
        warm = run_simulation("cc", "ooo", cfg)
        assert warm.ipc > 0


class TestContinuousRunahead:
    def test_registered(self):
        assert "continuous" in technique_names()

    def test_prefetches_into_llc(self):
        result = run_simulation("bfs", "continuous", max_instructions=6000)
        assert result.technique_stats["cr_prefetches"] > 0
        assert result.dram_by_source.get("runahead", 0) > 0

    def test_decoupled_no_commit_block(self):
        result = run_simulation("camel", "continuous", max_instructions=4000)
        assert result.commit_block_cycles == 0

    def test_chain_selection_tracks_delinquent_load(self):
        program, mem = build_indirect_kernel(levels=1)
        technique = make_technique("continuous")
        OoOCore(program, mem, quick_config(), technique=technique).run()
        assert technique._target_pc is not None
        assert technique.chain_switches >= 1
        assert len(technique._chain_pcs) > 0

    def test_never_corrupts_architectural_state(self):
        import numpy as np

        program, mem = build_indirect_kernel(n=1024, levels=2, seed=5)
        program_ref, mem_ref = build_indirect_kernel(n=1024, levels=2, seed=5)
        ref = FunctionalCore(program_ref, mem_ref)
        for _ in range(3000):
            if ref.step_reference() is None:
                break
        OoOCore(
            program,
            mem,
            quick_config(3000),
            technique=make_technique("continuous"),
        ).run()
        for seg_ref in mem_ref.segments():
            assert np.array_equal(mem.segment(seg_ref.name).data, seg_ref.data)

    def test_weaker_than_dvr_on_dependent_chains(self):
        """The paper's point: scalar LLC-side engines cannot match DVR."""
        cr = run_simulation("hj8", "continuous", max_instructions=6000)
        dvr = run_simulation("hj8", "dvr", max_instructions=6000)
        assert dvr.ipc > cr.ipc


class TestLLCOnlyAccessPath:
    def test_fill_to_l3_skips_l1(self):
        from repro.config import MemoryConfig
        from repro.memory import MemoryHierarchy

        h = MemoryHierarchy(MemoryConfig.scaled())
        result = h.access(0x10000, 0, source="runahead", prefetch=True, fill_to="l3")
        assert result.level == "DRAM"
        line = h.line_of(0x10000)
        assert h.l3.contains(line, result.ready)
        assert not h.l1.contains(line, result.ready)
        assert h.mshrs.occupancy(1) == 0

    def test_l3_hit_path(self):
        from repro.config import MemoryConfig
        from repro.memory import MemoryHierarchy

        h = MemoryHierarchy(MemoryConfig.scaled())
        first = h.access(0x10000, 0, source="runahead", prefetch=True, fill_to="l3")
        second = h.access(0x10000, first.ready + 1, source="runahead", prefetch=True, fill_to="l3")
        assert second.level == "L3"


class TestExportFormats:
    def _result(self):
        return ExperimentResult(
            "x", "title", ["a", "b"], [["r1", 1.5], ["r2", 2]], notes=["n1"]
        )

    def test_csv_roundtrip(self):
        text = self._result().to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["r1", "1.5"]

    def test_json_roundtrip(self):
        doc = json.loads(self._result().to_json())
        assert doc["experiment_id"] == "x"
        assert doc["rows"][1] == ["r2", 2]
        assert doc["notes"] == ["n1"]

    def test_cli_table_csv(self, capsys):
        assert main(["table", "table1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("parameter,value")

    def test_cli_figure_json(self, capsys):
        code = main(
            ["figure", "figure9", "--instructions", "1000", "--workloads", "nas_is",
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment_id"] == "figure9"

    def test_cli_run_cpi(self, capsys):
        assert main(
            ["run", "--workload", "camel", "--technique", "ooo", "-n", "1500", "--cpi"]
        ) == 0
        assert "CPI stack" in capsys.readouterr().out
