"""CLI argument handling and error paths."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.cache import BATCH_COUNTERS, ResultCache, reset_batch_counters
from repro.observability import validate_stats

ROOT = Path(__file__).resolve().parents[1]
BASELINE = str(ROOT / "BENCH_core.json")
SRC = ROOT / "src"


class TestArgumentValidation:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["explode"])

    def test_run_requires_workload_or_spec(self, capsys):
        # --workload is no longer argparse-required (a spec file can
        # name the workload), but a bare `repro run` is still an error.
        assert main(["run"]) == 2
        assert "--workload or --spec" in capsys.readouterr().err

    def test_run_rejects_spec_plus_workload(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"schema": "repro.spec/1", "workload": "camel"}')
        assert main(["run", "--spec", str(path), "--workload", "camel"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "doom"])

    def test_unknown_technique_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "camel", "--technique", "magic"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "figure99"])

    def test_unknown_input_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "bfs", "--input", "REDDIT"])

    @pytest.mark.parametrize("entry", [
        {"workload": "camel", "size": "Tiny"},
        {"workload": "bfs", "size": "tiny", "input_name": "bogus"},
    ])
    def test_bad_workload_identity_in_spec_is_one_error_line(self, entry, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"schema": "repro.spec/1", **entry}))
        assert main(["run", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_sweep_requires_param_and_values(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--workload", "camel"])

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "table1", "--format", "yaml"])


class TestSmallCommands:
    def test_hwcost(self, capsys):
        assert main(["hwcost"]) == 0
        out = capsys.readouterr().out
        assert "1139" in out

    def test_hwcost_with_overrides(self, capsys):
        assert main(["hwcost", "--lanes", "256", "--stack-depth", "16",
                     "--detector-entries", "64"]) == 0
        out = capsys.readouterr().out
        assert "stride_detector" in out

    def test_pipeview_with_technique(self, capsys):
        code = main(
            ["pipeview", "--workload", "nas_is", "--technique", "dvr",
             "--rows", "8", "--width", "60"]
        )
        assert code == 0
        assert "cycles" in capsys.readouterr().out

    def test_run_swpf_label(self, capsys):
        assert main(
            ["run", "--workload", "kangaroo", "--technique", "swpf", "-n", "1200"]
        ) == 0
        assert "swpf" in capsys.readouterr().out

    def test_list_mentions_new_techniques(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in ("continuous", "emc", "dvr-offload"):
            assert name in out


class TestBenchErrors:
    """`repro bench` fails with one error line and an exit code."""

    @pytest.mark.parametrize(
        "kernel", ["nope", "ooo_loop", "cycle_loop", "cycle_event_loop",
                   "vector_engine_reference"],
    )
    def test_unknown_kernel(self, kernel, capsys):
        assert main(["bench", "--kernels", kernel, "--repeats", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert kernel in lines[0]

    def test_unwritable_json_fails_before_any_kernel(self, tmp_path, capsys):
        path = tmp_path / "missing" / "b.json"
        code = main(["bench", "--kernels", "hierarchy", "--scale", "0.01",
                     "--repeats", "1", "--json", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no kernel ran, so no table
        assert captured.err.startswith("error: cannot write bench file")
        assert not path.exists()

    def test_check_that_compares_nothing_fails(self, capsys):
        # Without functional_reference no kernel carries `rel`, so the
        # relative gate has nothing to compare.
        code = main(["bench", "--kernels", "hierarchy", "--scale", "0.01",
                     "--repeats", "1", "--check", BASELINE])
        assert code == 1
        err = capsys.readouterr().err
        assert "compared no kernels" in err
        assert "bench check  : ok" not in err

    def test_check_reports_how_many_kernels_it_compared(self, capsys):
        code = main(["bench", "--kernels", "functional_reference,hierarchy",
                     "--scale", "0.01", "--repeats", "1",
                     "--check", BASELINE, "--tolerance", "1.0"])
        assert code == 0
        assert "bench check  : ok (1 compared" in capsys.readouterr().err


class TestRunFailureSurfaces:
    """`repro run` fails with one error line and an exit code, and a
    reader that closes stdout early costs no output file."""

    RUN = ["run", "--workload", "camel", "-n", "1000"]

    @pytest.mark.parametrize("flag", ["--stats-out", "--trace-out"])
    def test_output_into_missing_directory_fails_before_simulating(
        self, flag, tmp_path, capsys
    ):
        path = tmp_path / "missing" / "out.json"
        assert main(self.RUN + [flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran, so no report
        assert captured.err.startswith("error: cannot write")
        assert captured.err.count("\n") == 1
        assert not path.parent.exists()

    def test_output_path_that_is_a_directory(self, tmp_path, capsys):
        assert main(self.RUN + ["--stats-out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_zero_trace_capacity(self, capsys):
        assert main(self.RUN + ["--trace", "--trace-capacity", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trace capacity must be positive\n"

    # Buffered, the report is still queued at exit; unbuffered, the first
    # print fails. Either way the run ends quietly with its files written.
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_keeps_the_output_files(self, tmp_path, unbuffered):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the run starts
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "run", "--workload", "camel",
                 "--technique", "dvr", "-n", "2000", "--counters",
                 "--stats-out", "s.json", "--trace-out", "t.jsonl"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                cwd=tmp_path, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""
        validate_stats((tmp_path / "s.json").read_text())
        assert (tmp_path / "t.jsonl").read_text().count("\n") > 0


class TestExperimentFailureSurfaces:
    """`repro sweep/compare/figure` end a ReproError with one error line
    and exit 2, as `repro run` does."""

    SWEEP = ["sweep", "--workload", "camel", "--technique", "dvr",
             "--instructions", "500"]

    @pytest.mark.parametrize("argv,reason", [
        (SWEEP + ["--param", "core.bogus", "--values", "1", "2"],
         "no config field 'core.bogus'"),
        (SWEEP + ["--param", "core.rob_size", "--values", "abc"],
         "cannot coerce 'abc' to int"),
        # Strict resolution rejects the name before anything runs.
        (["compare", "--workloads", "camel", "--techniques", "bogus",
          "--instructions", "500"],
         "unknown technique 'bogus'"),
        (["figure", "figure9", "--workloads", "bogus", "--instructions", "500"],
         "unknown workload 'bogus'"),
    ], ids=["sweep-param", "sweep-value", "compare-technique", "figure-workload"])
    def test_one_error_line(self, argv, reason, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert reason in captured.err
        assert "Traceback" not in captured.err

    def test_cache_line_size_mismatch_fails_before_any_simulation(self, capsys):
        reset_batch_counters()
        argv = ["sweep", "--workload", "camel", "--technique", "ooo",
                "--param", "memory.line_bytes", "--values", "128",
                "--instructions", "800"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "error: memory.l1d.line_bytes (64) must equal memory.line_bytes (128)"
        )
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0

    def test_retired_branch_override_in_a_spec_file(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.core.ooo import OoOCore

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema": "repro.spec/1", "workload": "bfs", "max_instructions": 3000,
            "overrides": {"branch.mispredict_penalty_extra": 50},
        }))
        runs = []
        monkeypatch.setattr(OoOCore, "run", lambda self, *a, **k: runs.append(self))
        assert main(["run", "--spec", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert "branch.mispredict_penalty_extra" in captured.err
        assert "Traceback" not in captured.err
        assert runs == []

    @pytest.mark.parametrize("tail", [["--dump-spec"], ["--instructions", "500"]],
                             ids=["dump-spec", "run"])
    def test_unknown_technique_fails_before_any_simulation(self, tail, capsys):
        reset_batch_counters()
        argv = ["compare", "--workloads", "camel", "--techniques", "bogus", *tail]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: unknown technique 'bogus'")
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0


class TestCachePathFailureSurfaces:
    """A cache path that cannot be a directory is one error line and exit
    2 on every command that opens a cache, before anything simulates."""

    COMMANDS = {
        "figure": ["figure", "figure9", "--workloads", "camel", "--instructions", "500",
                   "--cache"],
        "sweep": ["sweep", "--workload", "camel", "--param", "core.rob_size",
                  "--values", "128", "--instructions", "500", "--cache"],
        "compare": ["compare", "--workloads", "camel", "--instructions", "500", "--cache"],
        "batch": ["batch", "SPECS", "--cache"],
        "cache-stats": ["cache", "stats", "--dir"],
        "cache-gc": ["cache", "gc", "--max-bytes", "0", "--dir"],
    }

    @pytest.mark.parametrize("where", ["file", "under-file"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_error_line_naming_the_path(self, command, where, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        path = blocker if where == "file" else blocker / "cache"
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([{"workload": "camel", "max_instructions": 500}]))
        argv = [str(specs) if arg == "SPECS" else arg for arg in self.COMMANDS[command]]
        reset_batch_counters()
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err
        assert "Traceback" not in captured.err
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0
        assert blocker.read_text() == "not a directory"


class TestOutputAndPortFailureSurfaces:
    """A campaign directory or an audit report under a regular file, and
    a port out of range, are one error line and exit 2 before anything
    simulates or binds."""

    def _assert_one_error_line(self, capsys, *needles):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        for needle in needles:
            assert needle in captured.err
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0

    def test_campaign_manifest_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([{"workload": "camel", "max_instructions": 500}]))
        reset_batch_counters()
        manifest = str(blocker / "campaign")
        assert main(["campaign", "run", str(specs), "--manifest", manifest]) == 2
        self._assert_one_error_line(capsys, manifest)

    @pytest.mark.parametrize("where", ["under-file", "directory"])
    def test_audit_report_that_cannot_be_written(self, where, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        reset_batch_counters()
        out = str(blocker / "audit.json" if where == "under-file" else tmp_path)
        argv = ["audit", "--workloads", "camel", "--techniques", "ooo", "-n", "500",
                "--out", out]
        assert main(argv) == 2
        self._assert_one_error_line(capsys, "error: cannot write audit report", out)

    def test_serve_port_out_of_range_opens_no_socket(self, monkeypatch, capsys):
        import socket

        opened = []
        real_init = socket.socket.__init__

        def init(self, *args, **kwargs):
            opened.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(socket.socket, "__init__", init)
        reset_batch_counters()
        assert main(["serve", "--port", "99999"]) == 2
        assert opened == []
        self._assert_one_error_line(capsys, "99999")


class TestFigureJobs:
    ARGV = ["figure", "figure9", "--workloads", "camel", "--instructions", "1000"]

    def test_parallel_run_hands_results_over_in_memory(
        self, tmp_path, monkeypatch, capsys
    ):
        assert main(self.ARGV) == 0
        serial = capsys.readouterr().out
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)
        roots = []
        opened = ResultCache.__init__

        def spy(cache, root=None, *args, **kwargs):
            roots.append(root)
            opened(cache, root, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "__init__", spy)
        reset_batch_counters()
        assert main(self.ARGV + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert roots == [] and list(scratch.rglob("*")) == []
        # The pool ran every point; this process simulated none of them.
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0
