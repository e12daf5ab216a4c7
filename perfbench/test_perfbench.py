"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Each smoke run is one pass over a few specs of one workload; the full
set takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import common  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(workload, trace=0, *extra):
    proc = bench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke", *extra,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_expected_digest_is_a_failed_operation(tmp_path):
    import wl_matrix

    common.require_repro()
    victim = common.doc_key(wl_matrix.pass_specs(1, 0, smoke=True)[0])
    table = json.loads(common.EXPECTED_PATH.read_text())
    table["entries"][victim]["digest"] = "0" * 32
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(table))

    result = smoke("table-matrix", 0, "--expected", str(corrupted))
    # The spec runs twice in a pass: cold, then resumed from the cache.
    assert result["failed"] == 2
    assert result["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "table-matrix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
