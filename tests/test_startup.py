"""Start-up hygiene: an entry point loads only the modules it runs.

``repro`` and ``repro.experiments`` resolve their public names on first
access, and the CLI imports each subcommand's modules in its handler,
so a simulation never pays for the HTTP server, the campaign fabric or
the batch pool. The import probes run in fresh interpreters, because
this test process has already imported everything.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no simulation needs: the event loop, sockets and HTTP client of
#: ``repro serve``, the subprocesses and ids of the campaign fabric, the
#: process pool of ``run_batch``, and the experiment layers above a run.
HEAVY = [
    "asyncio", "socket", "ssl", "http.client", "concurrent.futures",
    "multiprocessing", "subprocess", "uuid",
] + [
    f"repro.experiments.{name}"
    for name in ("batch", "serve", "fabric", "figures", "sweep", "tables")
]

PASS_BLOCK = (
    "from repro import RunSpec, run_simulation, stats_payload\n"
    "import repro.experiments.cache\n"
)
HELP = (
    "import runpy\n"
    "sys.argv = ['repro', '--help']\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__')\n"
    "except SystemExit:\n"
    "    pass\n"
)


def _fresh(code: str):
    """The JSON document that ``code`` prints last, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}"], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_by(code: str) -> set:
    """Modules a fresh interpreter loads while it runs ``code``."""
    return set(_fresh(
        "before = set(sys.modules)\n"
        f"{code}"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    ))


@pytest.mark.parametrize("code", [
    pytest.param("import repro\n", id="import-repro"),
    pytest.param(PASS_BLOCK, id="run-simulation-caller"),
    pytest.param(HELP, id="repro-help"),
])
def test_entry_point_leaves_heavy_modules_unloaded(code):
    loaded = _loaded_by(code)
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))


def test_bare_import_loads_no_subpackage():
    assert not {m for m in _loaded_by("import repro\n") if m.startswith("repro.")}


def test_submodules_resolve_as_attributes():
    loaded = _loaded_by(
        "import repro\n"
        "assert callable(repro.experiments.run_batch)\n"
        "assert callable(repro.audit.audit_timing_run)\n"
    )
    assert {"repro.experiments.batch", "repro.audit"} <= loaded


@pytest.mark.parametrize("package", [repro, repro.experiments], ids=lambda p: p.__name__)
class TestExports:
    def test_table_covers_all(self, package):
        names = [name for names in package._EXPORTS.values() for name in names]
        assert len(names) == len(set(names))
        assert set(names) == set(package.__all__) - {"__version__"}

    def test_every_name_is_its_defining_modules_object(self, package):
        for module, names in package._EXPORTS.items():
            source = importlib.import_module(module, package.__name__)
            for name in names:
                value = getattr(package, name)
                assert value is getattr(source, name), name
                if inspect.isclass(value) or inspect.isfunction(value):
                    assert value.__module__ == source.__name__, name

    def test_unknown_name_names_the_module(self, package):
        message = f"module '{package.__name__}' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=message):
            package.no_such_name


# In a fresh interpreter no name has been resolved yet, so ``dir()`` and
# ``import *`` see only what ``__dir__`` and ``__getattr__`` provide.
@pytest.mark.parametrize("package", ["repro", "repro.experiments"])
def test_fresh_package_lists_and_star_imports_every_name(package):
    unlisted, unbound = _fresh(
        f"import {package} as package\n"
        "unlisted = set(package.__all__) - set(dir(package))\n"
        "namespace = {}\n"
        f"exec('from {package} import *', namespace)\n"
        "print(json.dumps([sorted(unlisted), sorted(set(package.__all__) - set(namespace))]))\n"
    )
    assert unlisted == [] and unbound == []
