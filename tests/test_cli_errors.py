"""CLI argument handling and error paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
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
