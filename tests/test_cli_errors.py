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

    @pytest.mark.parametrize("flag,value,reason", [
        ("--width", "0", "--width must be >= 1, got 0"),
        ("--rows", "0", "--rows must be >= 1, got 0"),
        ("--rows", "-5", "--rows must be >= 1, got -5"),
        ("--skip", "-2", "--skip must be >= 0, got -2"),
    ])
    def test_pipeview_out_of_range_is_one_error_line(self, flag, value, reason, capsys):
        assert main(["pipeview", "--workload", "camel", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reason}\n"

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
        # A seed count below one used to average one seed and exit 0.
        (["compare", "--workloads", "camel", "--techniques", "ooo",
          "--instructions", "500", "--seeds", "0"],
         "--seeds must be >= 1, got 0"),
        (SWEEP + ["--param", "core.rob_size", "--values", "128", "--seeds", "-1"],
         "--seeds must be >= 1, got -1"),
    ], ids=["sweep-param", "sweep-value", "compare-technique", "figure-workload",
            "compare-seeds", "sweep-seeds"])
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


    def test_serve_port_in_use_is_one_error_line(self, capsys):
        import socket

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = str(taken.getsockname()[1])
            reset_batch_counters()
            assert main(["serve", "--port", port]) == 2
        self._assert_one_error_line(capsys, "cannot listen on", port)


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


class TestOutOfRangeRunSizes:
    """An out-of-range run size or lane count is reported the way each
    front end reports any bad spec; the CLI adds no range check of its own."""

    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "camel", "-n", "0"],
        ["run", "--workload", "camel", "-n", "-3"],
        ["compare", "--workloads", "camel", "--techniques", "ooo", "--instructions", "0"],
        ["figure", "figure7", "--workloads", "camel", "--instructions", "-5"],
        ["table", "table2", "-n", "0"],
        ["sweep", "--workload", "camel", "--param", "runahead.dvr_lanes",
         "--values", "0", "-4", "-n", "500"],
        ["sweep", "--workload", "camel", "--param", "warmup_instructions",
         "--values", "-5", "-n", "500"],
    ], ids=["run-zero", "run-negative", "compare", "figure", "table", "sweep-lanes",
            "sweep-warmup"])
    def test_spec_shaped_command_is_one_error_line(self, argv, capsys):
        reset_batch_counters()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "must be >= " in captured.err
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0

    def test_batch_fails_only_that_slot(self, tmp_path, capsys):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([
            {"workload": "camel", "max_instructions": 500},
            {"workload": "camel", "max_instructions": 0},
        ]))
        assert main(["batch", str(path)]) == 1
        out = capsys.readouterr().out
        assert "ok   camel/ooo" in out
        assert "FAIL camel/ooo: ConfigError: max_instructions must be >= 1, got 0" in out
        assert "1/2 specs succeeded" in out

    def test_audit_records_a_config_error(self, capsys):
        argv = ["audit", "-n", "0", "--workloads", "camel", "--techniques", "ooo"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "run-error: ConfigError: max_instructions must be >= 1, got 0" in out
        assert "TypeError" not in out

    def test_serve_answers_400(self):
        from repro.experiments import ServerThread
        from repro.experiments.serve import _dump, _post_run

        body = _dump({"schema": "repro.spec/1", "workload": "camel", "max_instructions": 0})
        with ServerThread() as server:
            status, served, reply = _post_run(server.address, body, 60)
        assert (status, served) == (400, "miss")
        assert json.loads(reply)["failure"]["error_type"] == "ConfigError"


class TestDispatchFlagBounds:
    """``campaign run`` and ``batch`` reject a duration, retry count or
    chaos-worker count out of range before they write a manifest, start
    a worker or simulate anything."""

    @pytest.mark.parametrize("argv,reason", [
        (["campaign", "run", "--lease-timeout", "0"], "--lease-timeout must be > 0, got 0.0"),
        (["campaign", "run", "--lease-timeout", "-1"], "--lease-timeout must be > 0, got -1.0"),
        (["campaign", "run", "--timeout", "-1"], "--timeout must be > 0, got -1.0"),
        (["campaign", "run", "--timeout", "nan"], "--timeout must be > 0, got nan"),
        (["campaign", "run", "--retries", "-1"], "--retries must be >= 0, got -1"),
        (["campaign", "run", "--chaos-workers", "-2"], "--chaos-workers must be >= 0, got -2"),
        (["batch", "--retries", "-1"], "--retries must be >= 0, got -1"),
    ], ids=["lease-zero", "lease-negative", "timeout-negative", "timeout-nan",
            "campaign-retries", "chaos-workers", "batch-retries"])
    def test_out_of_range_is_one_error_line(self, argv, reason, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([{"workload": "camel", "max_instructions": 500}]))
        manifest = tmp_path / "campaign"
        if argv[0] == "campaign":
            argv = argv + ["--worker-mode", "thread", "--manifest", str(manifest)]
        reset_batch_counters()
        assert main(argv + [str(specs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reason}\n"
        assert not manifest.exists()
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0

    def test_in_range_bounds_run(self, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([{"workload": "camel", "max_instructions": 500}]))
        argv = ["campaign", "run", "--worker-mode", "thread", "--retries", "0",
                "--chaos-workers", "0", "--lease-timeout", "5", "--timeout", "60", str(specs)]
        assert main(argv) == 0
        assert main(["batch", "--retries", "0", str(specs)]) == 0
        assert capsys.readouterr().out.count("1/1 specs succeeded") == 2


class TestSpecFiles:
    """One reader serves every command that reads a spec file: the same
    shape rule and the same error line."""

    COMMANDS = {
        "run": ["run", "--spec"],
        "audit": ["audit", "--specs"],
        "batch": ["batch"],
        "batch-dump": ["batch", "--dump-spec", "--specs"],
        "campaign": ["campaign", "run", "--worker-mode", "thread"],
    }

    @pytest.mark.parametrize("content", [
        None, "{not json", '"camel"', '[{"workload": "camel"}, 7]', '{"not": "a spec"}',
    ], ids=["missing", "bad-json", "string", "non-object-entry", "lone-non-spec"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unreadable_file_is_one_error_line(self, command, content, tmp_path, capsys):
        path = tmp_path / "specs.json"
        if content is not None:
            path.write_text(content)
        reset_batch_counters()
        assert main(self.COMMANDS[command] + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read spec file {str(path)!r}: ")
        assert captured.err.count("\n") == 1
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0

    @pytest.mark.parametrize("command", ["batch", "campaign"])
    def test_lone_spec_object_runs_as_a_list_of_one(self, command, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"workload": "camel", "max_instructions": 500}))
        assert main(self.COMMANDS[command] + [str(path)]) == 0
        assert "1/1 specs succeeded" in capsys.readouterr().out
