"""Start-up hygiene: an entry point loads only the modules it runs.

``repro``, ``repro.experiments`` and ``repro.observability`` resolve
their public names on first access, and the CLI imports each
subcommand's modules in its handler, so a simulation never pays for
the HTTP server, the campaign fabric or the batch pool. Whatever only
keys specs, reads the result cache or inspects a finished campaign
loads no model code at all (docs/performance.md, "Start-up"). The
import probes run in fresh interpreters, because this test process has
already imported everything.
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
import repro.observability

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

#: The model layer: numpy and every package a simulation runs. Only a
#: process that simulates imports it.
MODEL = ["numpy"] + [
    f"repro.{name}"
    for name in ("isa", "core", "memory", "frontend", "prefetch", "runahead", "perf")
] + [f"repro.workloads.{name}" for name in ("gap", "hpc_db", "graphs")] + [
    f"repro.experiments.{name}" for name in ("runner", "batch")
]

#: What only a run that records or profiles events needs.
TRACING = ["repro.observability.probes", "repro.observability.trace"]

PASS_BLOCK = (
    "from repro import RunSpec, run_simulation, stats_payload\n"
    "import repro.experiments.cache\n"
)


def _cli(*argv: str) -> str:
    """Code that runs ``repro ARGV`` as ``python -m repro`` does, and
    fails unless the command exits 0."""
    return (
        "import runpy\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )


HELP = _cli("--help")


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


def _model_modules(loaded: set) -> list:
    """The model-layer modules among ``loaded``."""
    return sorted(
        m for m in loaded if any(m == p or m.startswith(f"{p}.") for p in MODEL)
    )


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A campaign directory and a cache that hold every spec's result."""
    from repro.cli import main

    root = tmp_path_factory.mktemp("finished")
    specs = root / "specs.json"
    specs.write_text(json.dumps([
        {"workload": "camel", "technique": technique, "max_instructions": 300}
        for technique in ("ooo", "dvr")
    ]))
    assert main([
        "campaign", "run", str(specs),
        "--manifest", str(root / "camp"), "--cache", str(root / "cache"),
    ]) == 0
    return root


class TestModelFreeEntryPoints:
    """Keying, reading the cache and resuming or inspecting finished work
    load none of :data:`MODEL`, and a finished campaign none of
    :data:`TRACING` either."""

    def test_help(self):
        assert _model_modules(_loaded_by(HELP)) == []

    def test_campaign_status(self, finished):
        loaded = _loaded_by(_cli("campaign", "status", str(finished / "camp")))
        assert _model_modules(loaded) == []
        assert not loaded & set(TRACING), sorted(loaded & set(TRACING))

    def test_campaign_run_resuming_a_finished_manifest(self, finished):
        loaded = _loaded_by(_cli(
            "campaign", "run", "--manifest", str(finished / "camp"),
            "--cache", str(finished / "cache"),
        ))
        assert _model_modules(loaded) == []
        assert not loaded & set(TRACING), sorted(loaded & set(TRACING))

    def test_key_then_cache_get_then_stats_of_the_hit(self, finished):
        loaded = _loaded_by(
            "from repro import RunSpec, stats_payload\n"
            "from repro.experiments.cache import ResultCache\n"
            "key = RunSpec('camel', technique='dvr', max_instructions=300).key()\n"
            f"hit = ResultCache({str(finished / 'cache')!r}).get(key)\n"
            "assert hit is not None\n"
            "assert stats_payload(hit)['technique'] == 'dvr'\n"
        )
        assert _model_modules(loaded) == []


def test_the_pass_block_loads_every_technique_and_builder_module():
    from repro.techniques import technique_entry, technique_names

    modules = {f"repro.{technique_entry(name).module}" for name in technique_names()}
    modules |= {"repro.workloads.gap", "repro.workloads.hpc_db"}
    assert modules <= _loaded_by(PASS_BLOCK)


def test_runs_after_the_pass_block_load_no_further_repro_module():
    # The runner imports every model module up front, so the first
    # run_simulation costs what every later one does.
    late = _fresh(
        PASS_BLOCK
        + "before = set(sys.modules)\n"
        "for technique in ('ooo', 'vr', 'dvr'):\n"
        "    run_simulation('camel', technique, max_instructions=300)\n"
        "print(json.dumps(sorted(\n"
        "    m for m in set(sys.modules) - before if m.startswith('repro.')\n"
        ")))\n"
    )
    assert late == []


def test_bare_import_loads_no_subpackage():
    assert not {m for m in _loaded_by("import repro\n") if m.startswith("repro.")}


def test_submodules_resolve_as_attributes():
    loaded = _loaded_by(
        "import repro\n"
        "assert callable(repro.experiments.run_batch)\n"
        "assert callable(repro.audit.audit_timing_run)\n"
    )
    assert {"repro.experiments.batch", "repro.audit"} <= loaded


@pytest.mark.parametrize(
    "package", [repro, repro.experiments, repro.observability], ids=lambda p: p.__name__
)
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
@pytest.mark.parametrize("package", ["repro", "repro.experiments", "repro.observability"])
def test_fresh_package_lists_and_star_imports_every_name(package):
    unlisted, unbound = _fresh(
        f"import {package} as package\n"
        "unlisted = set(package.__all__) - set(dir(package))\n"
        "namespace = {}\n"
        f"exec('from {package} import *', namespace)\n"
        "print(json.dumps([sorted(unlisted), sorted(set(package.__all__) - set(namespace))]))\n"
    )
    assert unlisted == [] and unbound == []
