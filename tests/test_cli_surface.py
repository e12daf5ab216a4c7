"""The command surface: what argparse parses, and how a bad input leaves.

``tests/golden/cli_surface.json`` pins, for every subcommand, each
action's option strings, dest, default, type, choices, nargs, required
and const, in the order the parser adds them (the ``--help`` order). A
change to any flag shows up as a diff of that file. Regenerate it after
an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_cli_surface.py --update-goldens
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.experiments.cache import BATCH_COUNTERS, reset_batch_counters

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli_surface.json"


def _action(action: argparse.Action) -> dict:
    choices = action.choices
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": None if choices is None else list(choices),
        "nargs": action.nargs,
        "required": action.required,
        "const": action.const,
    }


def surface(parser: argparse.ArgumentParser, prog: str = "repro") -> dict:
    """``{"repro run": [action, ...], ...}`` for a parser and its subparsers."""
    table = {prog: [_action(action) for action in parser._actions]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(surface(sub, f"{prog} {name}"))
    return table


def test_parser_surface_matches_golden(update_goldens):
    current = json.loads(json.dumps(surface(_build_parser())))
    if update_goldens:
        GOLDEN_PATH.write_text(json.dumps(current, indent=1) + "\n")
    assert GOLDEN_PATH.exists(), "no golden surface; run with --update-goldens"
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(current) == sorted(golden)
    for prog in golden:
        assert current[prog] == golden[prog], prog


def _specs(tmp_path) -> str:
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([{"workload": "camel", "max_instructions": 500}]))
    return str(path)


#: One input error per subcommand that can have one: each passes argparse
#: and must be refused before anything simulates. ``SPECS`` is a readable
#: spec file, ``MISSING`` a path that does not exist, ``DIR`` a cache
#: directory.
INPUT_ERRORS = {
    "run": ["run", "--workload", "camel", "-n", "0"],
    "run-no-workload": ["run"],
    "figure": ["figure", "figure9", "--workloads", "camel", "-n", "0"],
    "table": ["table", "table2", "-n", "0"],
    "sweep": ["sweep", "--workload", "camel", "--param", "core.rob_size",
              "--values", "128", "-n", "-3"],
    "sweep-lanes": ["sweep", "--workload", "camel", "--param", "runahead.dvr_lanes",
                    "--values", "0", "-n", "500"],
    "compare": ["compare", "--workloads", "camel", "--techniques", "ooo", "-n", "0"],
    "batch": ["batch", "MISSING"],
    "batch-twice": ["batch", "SPECS", "--specs", "SPECS"],
    "campaign-run": ["campaign", "run"],
    "campaign-status": ["campaign", "status", "MISSING"],
    "cache-stats": ["cache", "stats", "--dir", "SPECS"],
    "cache-gc": ["cache", "gc", "--dir", "DIR", "--max-age", "soon"],
    "cache-gc-nan": ["cache", "gc", "--dir", "DIR", "--max-bytes", "nan"],
    "cache-gc-inf": ["cache", "gc", "--dir", "DIR", "--max-bytes", "inf"],
    "serve": ["serve", "--load-test", "lots"],
    "audit": ["audit", "--specs", "MISSING"],
    "bench": ["bench", "--kernels", "nope"],
    "hwcost": ["hwcost", "--lanes", "0"],
}


@pytest.mark.parametrize("argv", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
def test_input_error_is_one_error_line_and_exit_2(argv, tmp_path, capsys):
    paths = {"SPECS": _specs(tmp_path), "MISSING": str(tmp_path / "missing"),
             "DIR": str(tmp_path / "cache")}
    reset_batch_counters()
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err
    assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0
    assert not (tmp_path / "cache").exists()  # nothing was created either
