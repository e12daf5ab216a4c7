"""The experiment layer's outputs, pinned.

Every figure, Table 2, a sweep and a comparison is a plan: a spec list
plus a reducer over its results, run by ``run_plan``. These digests of
``to_json()`` were recorded from the generators that ran their own
``run_simulation`` loops, so a plan that enumerates or reduces a point
differently fails here. Standard-deviation columns are compared with
``pytest.approx``: ``statistics.stdev`` may round its last bit
differently across Python versions.
"""

import hashlib
import json

import pytest

from repro import experiments
from repro.cli import main
from repro.errors import ReproError
from repro.experiments import (
    BATCH_COUNTERS,
    ResultCache,
    figure_plan,
    figure_specs,
    reset_batch_counters,
    run_plan,
    specs_digest,
    use_cache,
)
from repro.experiments import batch as batch_module


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _without_stdev(result):
    """``result.to_json()`` with its ``*_stdev`` columns taken out, and
    those columns' cells, row by row."""
    keep = [i for i, h in enumerate(result.headers) if not h.endswith("_stdev")]
    doc = json.loads(result.to_json())
    doc["headers"] = [doc["headers"][i] for i in keep]
    doc["rows"] = [[row[i] for i in keep] for row in doc["rows"]]
    stdevs = [cell for row in result.rows for i, cell in enumerate(row) if i not in keep]
    return json.dumps(doc, indent=2), stdevs


FIGURES = [
    ("figure2", {"workloads": ["camel"]}, "ec4bc0cd6bbf67b9"),
    ("figure7", {"workloads": ["bfs"], "inputs": ["KR", "UR"]}, "7478045bd59ad0e7"),
    ("figure8", {"workloads": ["camel"]}, "2e118675f7598f30"),
    ("figure9", {"workloads": ["camel", "nas_is"]}, "d5dd2b28d7e49351"),
    ("figure10", {"workloads": ["camel"]}, "6af6f8f233d07cc6"),
    ("figure11", {"workloads": ["nas_is"]}, "5ced5d22f882e873"),
    ("figure12", {"workloads": ["camel"]}, "892d0698cca4a1c0"),
    ("figure_lanes", {"workloads": ["camel"]}, "a08464089a99a3a7"),
    ("figure_tlb", {"workloads": ["bfs"]}, "4207ee9f1d3073a6"),
]


@pytest.mark.parametrize("generator,kwargs,digest", FIGURES, ids=[f[0] for f in FIGURES])
def test_figure_output_is_pinned(generator, kwargs, digest):
    result = getattr(experiments, generator)(instructions=800, **kwargs)
    assert _digest(result.to_json()) == digest


def test_table2_output_is_pinned():
    result = experiments.table2_rows(instructions=800, inputs=["UR"], kernels=["bfs", "cc"])
    assert _digest(result.to_json()) == "f1c5af1cbbb9b358"


def test_two_seed_sweep_output_is_pinned():
    result = experiments.run_sweep(
        "nas_is", "dvr", "core.rob_size", [128, 256], instructions=800, seeds=[1, 2]
    )
    text, stdevs = _without_stdev(result)
    assert result.headers[-1] == "speedup_stdev"
    assert _digest(text) == "26c36f5c0502e4b6"
    assert stdevs == pytest.approx([0.0006363799921818892, 0.0003854678621186937])


def test_two_seed_compare_with_ooo_column_is_pinned():
    result = experiments.compare_techniques(
        ["camel", "nas_is"], ["ooo", "vr", "dvr"], instructions=800, seeds=[1, 2]
    )
    text, stdevs = _without_stdev(result)
    assert _digest(text) == "728c3a3bf3f01f66"
    assert stdevs == pytest.approx(
        [0.0, 0.0, 0.015197861587816755, 0.0, 0.00030130138691510745, 0.0007777836871187599]
    )


def test_parallel_figure_matches_the_serial_pin():
    plan = figure_plan("figure9", ["camel", "nas_is"], 800)
    assert _digest(run_plan(plan, jobs=2).to_json()) == "d5dd2b28d7e49351"


def test_generators_honour_the_ambient_cache(tmp_path):
    # A serial plan reaches run_simulation, which reads use_cache's cache.
    cache = ResultCache(tmp_path)
    with use_cache(cache):
        first = experiments.figure9(workloads=["camel"], instructions=800)
        reset_batch_counters()
        second = experiments.figure9(workloads=["camel"], instructions=800)
    assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0
    assert (cache.hits, cache.misses) == (3, 3)
    assert second.to_json() == first.to_json()


def test_figure12_campaign_spec_list_is_pinned():
    # perfbench's fig12-campaign runs this list and keys expected.json on it.
    specs = figure_specs("figure12", instructions=10_000)
    assert specs_digest(specs) == "328462364eb7597c9e7794a255840e8d"


def test_every_cli_figure_has_a_plan_and_unknown_names_raise():
    from repro.cli import _FIGURES

    for name in _FIGURES:
        specs, reduce = figure_plan(name, ["camel"], 800)
        assert specs and callable(reduce)
    with pytest.raises(ReproError):
        figure_specs("figure99")


@pytest.mark.parametrize("argv,failing", [
    (["figure", "figure9", "--workloads", "camel", "--instructions", "800"], "dvr"),
    (["table", "table2", "--instructions", "800"], "ooo"),
], ids=["figure", "table2"])
def test_failing_point_is_one_error_line(argv, failing, monkeypatch, capsys):
    real = batch_module.run_simulation

    def run_simulation(spec, **runtime):
        if spec.technique == failing:
            raise ValueError("injected fault")
        return real(spec, **runtime)

    monkeypatch.setattr(batch_module, "run_simulation", run_simulation)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: batch failed: ")
    assert captured.err.count("\n") == 1
    assert "ValueError: injected fault" in captured.err
    assert "Traceback" not in captured.err
