"""Tests for the generic sweep/compare utilities and config overrides."""

import warnings

import pytest

from repro.cli import main
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.experiments import (
    BATCH_COUNTERS,
    apply_override,
    coerce_bool,
    compare_techniques,
    reset_batch_counters,
    run_sweep,
)
from repro.experiments import batch as batch_module


class TestApplyOverride:
    def test_top_level_field(self):
        cfg = apply_override(SimConfig(), "max_instructions", 123)
        assert cfg.max_instructions == 123

    def test_nested_field(self):
        cfg = apply_override(SimConfig(), "runahead.dvr_lanes", 32)
        assert cfg.runahead.dvr_lanes == 32
        assert SimConfig().runahead.dvr_lanes == 128  # original untouched

    def test_core_field(self):
        cfg = apply_override(SimConfig(), "core.rob_size", 512)
        assert cfg.core.rob_size == 512

    def test_deeply_nested_field(self):
        cfg = apply_override(SimConfig(), "memory.l1d_mshrs", 48)
        assert cfg.memory.l1d_mshrs == 48

    def test_value_coerced_to_field_type(self):
        cfg = apply_override(SimConfig(), "memory.dram_bytes_per_cycle", 25)
        assert cfg.memory.dram_bytes_per_cycle == pytest.approx(25.0)
        assert isinstance(cfg.memory.dram_bytes_per_cycle, float)

    def test_bool_field(self):
        cfg = apply_override(SimConfig(), "runahead.nested_enabled", False)
        assert cfg.runahead.nested_enabled is False

    def test_unknown_path_raises(self):
        with pytest.raises(ConfigError):
            apply_override(SimConfig(), "runahead.warp_factor", 9)
        with pytest.raises(ConfigError):
            apply_override(SimConfig(), "nope.deeper", 1)

    def test_bool_field_parses_false_string(self):
        # bool("false") is True; the override layer must not fall into
        # that trap for e.g. --param stride_prefetcher_enabled.
        cfg = apply_override(SimConfig(), "stride_prefetcher_enabled", "false")
        assert cfg.stride_prefetcher_enabled is False

    @pytest.mark.parametrize(
        "token,expected",
        [("true", True), ("True", True), ("on", True), ("1", True),
         ("false", False), ("FALSE", False), ("off", False), ("0", False),
         (0, False), (1, True), (False, False)],
    )
    def test_bool_tokens(self, token, expected):
        cfg = apply_override(SimConfig(), "runahead.nested_enabled", token)
        assert cfg.runahead.nested_enabled is expected
        assert coerce_bool(token) is expected

    @pytest.mark.parametrize("token", ["maybe", "2", 7, 1.5, None, "yes!"])
    def test_unparseable_bool_raises_config_error(self, token):
        with pytest.raises(ConfigError):
            apply_override(SimConfig(), "stride_prefetcher_enabled", token)

    def test_failed_numeric_coercion_raises_config_error(self):
        with pytest.raises(ConfigError):
            apply_override(SimConfig(), "core.rob_size", "not-a-number")


class TestRunSweep:
    def test_sweep_rows_match_values(self):
        result = run_sweep(
            "nas_is", "dvr", "runahead.dvr_lanes", [32, 128], instructions=1500
        )
        assert [row[0] for row in result.rows] == [32, 128]
        for row in result.rows:
            assert row[1] > 0  # ipc
            assert row[2] > 0  # speedup

    def test_sweep_rob_size(self):
        result = run_sweep(
            "camel", "ooo", "core.rob_size", [64, 512], instructions=1500
        )
        ipc_small, ipc_big = result.rows[0][1], result.rows[1][1]
        assert ipc_big >= ipc_small

    def test_multi_seed_adds_stdev_column(self):
        result = run_sweep(
            "nas_is",
            "dvr",
            "runahead.dvr_lanes",
            [64],
            instructions=1200,
            seeds=[1, 2],
        )
        assert result.headers[-1] == "speedup_stdev"
        assert result.rows[0][-1] >= 0


def _fake_result(technique: str, cycles: int, instructions: int):
    from repro.core.ooo import SimulationResult

    return SimulationResult(
        workload="fake",
        technique=technique,
        counters={"core.commit.instructions": instructions, "core.cycles": cycles},
    )


class TestZeroIpcBaseline:
    def test_sweep_survives_all_zero_baseline(self, monkeypatch):
        """A baseline committing zero instructions must warn, not crash
        with statistics.StatisticsError on fmean([])."""

        def fake_run_batch(specs, **kwargs):
            return [
                _fake_result(s.technique, cycles=0, instructions=0)
                if s.technique == "ooo"
                else _fake_result(s.technique, cycles=500, instructions=400)
                for s in specs
            ]

        monkeypatch.setattr(batch_module, "run_batch", fake_run_batch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_sweep(
                "camel", "dvr", "runahead.dvr_lanes", [16, 32], seeds=[1, 2]
            )
        assert [row[0] for row in result.rows] == [16, 32]
        for row in result.rows:
            assert row[1] == pytest.approx(0.8)  # technique IPC still reported
            assert row[2] == 0.0  # speedup falls back to 0.0
            assert row[3] == 0.0  # stdev column guarded too
        messages = [str(w.message) for w in caught]
        assert any("IPC is 0" in m for m in messages)

    def test_partial_zero_baseline_uses_surviving_seeds(self, monkeypatch):
        seen = {"n": 0}

        def fake_run_batch(specs, **kwargs):
            out = []
            for s in specs:
                if s.technique == "ooo":
                    # First seed's baseline is dead, second is alive.
                    dead = seen["n"] % 2 == 0
                    seen["n"] += 1
                    out.append(
                        _fake_result("ooo", 0 if dead else 400, 0 if dead else 400)
                    )
                else:
                    out.append(_fake_result(s.technique, 500, 400))
            return out

        monkeypatch.setattr(batch_module, "run_batch", fake_run_batch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning expected here
            result = run_sweep(
                "camel", "dvr", "runahead.dvr_lanes", [16], seeds=[1, 2]
            )
        assert result.rows[0][2] == pytest.approx(0.8)


class TestBaselineReuse:
    def test_runahead_param_sweep_runs_baseline_once_per_seed(self):
        reset_batch_counters()
        run_sweep("nas_is", "dvr", "runahead.dvr_lanes", [16, 32], instructions=800)
        # 2 dvr points + 1 shared ooo baseline (runahead.* cannot affect it).
        assert BATCH_COUNTERS.get("batch.sim.runs") == 3
        assert BATCH_COUNTERS.get("batch.dedup.reused") == 1

    def test_core_param_sweep_still_rebaselines_each_point(self):
        reset_batch_counters()
        run_sweep("nas_is", "dvr", "core.rob_size", [64, 128], instructions=800)
        # core.* changes the baseline too: 2 points x (ooo + dvr).
        assert BATCH_COUNTERS.get("batch.sim.runs") == 4

    def test_compare_reuses_baseline_for_ooo_column(self):
        reset_batch_counters()
        result = compare_techniques(["nas_is"], ["ooo", "dvr"], instructions=800)
        assert BATCH_COUNTERS.get("batch.sim.runs") == 2
        assert result.rows[0][1] == pytest.approx(1.0)


class TestCompareTechniques:
    def test_matrix_shape(self):
        result = compare_techniques(["nas_is"], ["imp", "dvr"], instructions=1500)
        assert result.headers == ["workload", "imp", "dvr"]
        assert result.rows[0][0] == "nas_is"

    def test_multi_seed_interleaves_stdev(self):
        result = compare_techniques(
            ["camel"], ["dvr"], instructions=1200, seeds=[1, 2]
        )
        assert result.headers == ["workload", "dvr", "dvr_stdev"]
        assert result.rows[0][2] >= 0

    def test_seed_changes_workload_data(self):
        import numpy as np

        from repro.workloads import build_workload

        a = build_workload("camel", seed=11)
        b = build_workload("camel", seed=12)
        assert not np.array_equal(
            a.memory.segment("A").data, b.memory.segment("A").data
        )


class TestCLI:
    def test_sweep_command(self, capsys):
        code = main(
            [
                "sweep", "--workload", "nas_is", "--technique", "dvr",
                "--param", "runahead.dvr_lanes", "--values", "32", "64",
                "--instructions", "1200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runahead.dvr_lanes" in out

    def test_compare_command_csv(self, capsys):
        code = main(
            [
                "compare", "--workloads", "nas_is", "--techniques", "dvr",
                "--instructions", "1200", "--format", "csv",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("workload,dvr")

    def test_value_parsing(self):
        from repro.cli import _parse_value

        assert _parse_value("64") == 64
        assert _parse_value("1.5") == pytest.approx(1.5)
        assert _parse_value("true-ish") == "true-ish"

    def test_value_parsing_bools(self):
        from repro.cli import _parse_value

        assert _parse_value("true") is True
        assert _parse_value("True") is True
        assert _parse_value("false") is False
        assert _parse_value("FALSE") is False

    def test_sweep_bool_param_end_to_end(self, capsys):
        code = main(
            [
                "sweep", "--workload", "nas_is", "--technique", "dvr",
                "--param", "stride_prefetcher_enabled", "--values", "false", "true",
                "--instructions", "800",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stride_prefetcher_enabled" in out
