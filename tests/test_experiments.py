"""Experiment harness tests: runner, report formatting, figure/table
generators (at tiny instruction budgets), and the CLI."""

import pytest

from repro.cli import main
from repro.experiments import (
    ExperimentResult,
    figure2,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    format_table,
    harmonic_mean,
    run_simulation,
    table1_rows,
    table2_rows,
)
from repro.experiments.report import geometric_mean
from repro.workloads import GRAPH_PROFILES, graphs
from repro.workloads.gap import _graph_input

TINY = 1_500


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text and "0.12" in text

    def test_harmonic_mean(self):
        assert harmonic_mean([1, 1, 1]) == pytest.approx(1.0)
        assert harmonic_mean([2, 2]) == pytest.approx(2.0)
        assert harmonic_mean([1, 3]) == pytest.approx(1.5)
        assert harmonic_mean([]) == 0.0
        assert harmonic_mean([0.0, 2.0]) == pytest.approx(2.0)

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_experiment_result_accessors(self):
        result = ExperimentResult(
            "x", "t", ["k", "v"], [["a", 1], ["b", 2]], notes=["n"]
        )
        assert result.column("v") == [1, 2]
        assert result.row_for("b") == ["b", 2]
        with pytest.raises(KeyError):
            result.row_for("c")
        assert "note: n" in result.to_text()


class TestRunner:
    def test_run_simulation_basic(self):
        result = run_simulation("camel", "ooo", max_instructions=TINY, size="tiny")
        assert result.instructions == TINY
        assert result.technique == "ooo"

    def test_run_simulation_with_input(self):
        result = run_simulation(
            "bfs", "ooo", max_instructions=TINY, input_name="UR", size="tiny"
        )
        assert result.workload == "bfs_UR"

    def test_hpc_db_ignores_input(self):
        result = run_simulation(
            "camel", "ooo", max_instructions=TINY, input_name="KR", size="tiny"
        )
        assert result.instructions == TINY


class TestTables:
    def test_table1_reflects_config(self):
        result = table1_rows()
        assert result.row_for("ROB size")[1] == 350
        assert "TAGE" in result.row_for("Branch predictor")[1]

    def test_table2_structure(self):
        result = table2_rows(instructions=800, inputs=["UR"], kernels=["bfs", "cc"])
        assert result.headers == ["input", "nodes", "edges", "llc_mpki"]
        row = result.row_for("UR")
        assert row[1] > 0 and row[2] > 0 and row[3] > 0

    def test_table2_builds_each_input_once(self, monkeypatch):
        # The reducer reads node and edge counts from the inputs the
        # runs built, through the per-process memo.
        built = []
        csr_from_edges = graphs._csr_from_edges
        monkeypatch.setattr(
            graphs, "_csr_from_edges", lambda *args: built.append(args[1]) or csr_from_edges(*args)
        )
        _graph_input.cache_clear()
        result = table2_rows(instructions=300, kernels=["bfs"])
        assert _graph_input.cache_info().misses == len(GRAPH_PROFILES)
        assert len(built) == len(GRAPH_PROFILES)
        for profile, spec in GRAPH_PROFILES.items():
            assert result.row_for(profile)[1:3] == [spec["n"], spec["n"] * spec["avg_degree"]]


class TestFigures:
    def test_figure2_rows_and_series(self):
        result = figure2(workloads=["camel"], instructions=TINY, rob_sizes=[128, 350])
        assert len(result.rows) == 2
        assert result.series["camel"]["ooo"][350] == pytest.approx(1.0)
        for row in result.rows:
            assert 0 <= row[4] <= 100  # stall percentage

    def test_figure7_includes_hmean(self):
        result = figure7(
            workloads=["camel"], instructions=TINY, techniques=("pre", "dvr")
        )
        assert result.headers == ["workload", "ooo", "pre", "dvr"]
        assert result.rows[-1][0] == "h-mean"
        assert result.row_for("camel")[1] == pytest.approx(1.0)

    def test_figure7_with_inputs(self):
        result = figure7(
            workloads=["bfs"],
            instructions=TINY,
            inputs=["KR", "UR"],
            techniques=("dvr",),
        )
        labels = [row[0] for row in result.rows]
        assert "bfs_KR" in labels and "bfs_UR" in labels

    def test_figure8_configs(self):
        result = figure8(workloads=["camel"], instructions=TINY)
        assert result.headers == ["workload", "vr", "offload", "+discovery", "full_dvr"]
        assert len(result.rows) == 2  # camel + h-mean

    def test_figure9_occupancy(self):
        result = figure9(workloads=["camel"], instructions=TINY)
        row = result.row_for("camel")
        for value in row[1:]:
            assert 0 <= value <= 24

    def test_figure10_traffic_split(self):
        result = figure10(workloads=["camel"], instructions=TINY)
        assert len(result.rows) == 2  # vr + dvr
        for row in result.rows:
            assert row[3] == pytest.approx(row[1] + row[2])

    def test_figure11_fractions(self):
        result = figure11(workloads=["camel"], instructions=TINY)
        row = result.row_for("camel")
        assert sum(row[1:5]) == pytest.approx(1.0, abs=1e-6) or sum(row[1:5]) == 0.0

    def test_figure12_series(self):
        result = figure12(workloads=["camel"], instructions=TINY, rob_sizes=[128, 350])
        assert set(result.series["camel"]) == {"ooo", "dvr"}


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "camel" in out and "dvr" in out and "figure7" in out

    def test_run(self, capsys):
        assert main(["run", "--workload", "nas_is", "--technique", "dvr", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "dvr" in out

    def test_table(self, capsys):
        assert main(["table", "table1"]) == 0
        assert "ROB size" in capsys.readouterr().out

    def test_figure_with_workload_filter(self, capsys):
        code = main(
            ["figure", "figure9", "--instructions", "1200", "--workloads", "nas_is"]
        )
        assert code == 0
        assert "nas_is" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
