"""Remaining odds and ends: result serialisation, figure series
payloads, determinism guarantees, and package surface checks."""

import json

import pytest

import repro
from repro.experiments import figure2, run_simulation
from repro.workloads import build_workload


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_run_simulation_in_top_level(self):
        assert repro.run_simulation is run_simulation


class TestResultSerialisation:
    def test_to_dict_is_json_safe(self):
        result = run_simulation("nas_is", "dvr", max_instructions=1500)
        payload = json.dumps(result.to_dict())
        parsed = json.loads(payload)
        assert parsed["technique"] == "dvr"
        assert parsed["ipc"] == pytest.approx(result.ipc)
        assert parsed["cpi_stack"]

    def test_dict_contains_all_headline_metrics(self):
        result = run_simulation("camel", "ooo", max_instructions=1200)
        d = result.to_dict()
        for key in (
            "ipc", "llc_mpki", "mean_mshr_occupancy", "dram_by_source",
            "timeliness", "cycles", "instructions",
        ):
            assert key in d


class TestDeterminism:
    def test_same_run_is_bit_identical(self):
        a = run_simulation("bfs", "dvr", max_instructions=2500)
        b = run_simulation("bfs", "dvr", max_instructions=2500)
        assert a.to_dict() == b.to_dict()

    def test_workload_builds_identically(self):
        import numpy as np

        x = build_workload("kangaroo")
        y = build_workload("kangaroo")
        for seg in x.memory.segments():
            assert np.array_equal(y.memory.segment(seg.name).data, seg.data)
        assert len(x.program) == len(y.program)


class TestFigureSeries:
    def test_figure2_series_payload(self):
        result = figure2(workloads=["nas_is"], instructions=1200, rob_sizes=[128, 350])
        series = result.series["nas_is"]
        assert set(series) == {"ooo", "vr", "stall"}
        assert set(series["ooo"]) == {128, 350}
        for value in series["stall"].values():
            assert 0.0 <= value <= 1.0

    def test_figure2_unscaled_backend_variant(self):
        result = figure2(
            workloads=["nas_is"],
            instructions=1200,
            rob_sizes=[128, 350],
            scale_backend=False,
        )
        assert result.series["nas_is"]["ooo"][350] == pytest.approx(1.0)


class TestWorkloadMetaContracts:
    @pytest.mark.parametrize(
        "name", ["bc", "bfs", "cc", "graph500", "pr", "sssp", "camel", "nas_cg"]
    )
    def test_build_args_allow_fresh(self, name):
        wl = build_workload(name, size="tiny", seed=5)
        again = wl.fresh()
        assert len(again.program) == len(wl.program)
        assert again.memory.digest() == wl.memory.digest()

    def test_indirection_levels_documented(self):
        assert build_workload("hj8", size="tiny").meta["indirection_levels"] == 8
        assert build_workload("camel", size="tiny").meta["indirection_levels"] == 2


class TestOracleDetails:
    def test_oracle_flag(self):
        from repro.techniques import make_technique

        assert make_technique("oracle").wants_ideal_memory
        assert not make_technique("dvr").wants_ideal_memory

    def test_oracle_counts_dram_bandwidth(self):
        result = run_simulation("camel", "oracle", max_instructions=2500)
        assert result.dram_by_source.get("main", 0) > 0  # not magic
