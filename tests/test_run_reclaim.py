"""A finished run is freed by reference counting alone.

The core owns its technique and the memory hierarchy owns its TLB, and
neither child points back at its owner, so one run's object graph is a
tree: when ``run_simulation`` returns, reference counting frees all of
it. Long-lived processes (a table-matrix pass, campaign and serve pool
workers) run many simulations back to back and the cyclic collector
rarely makes a full pass between them, so one reference cycle per run
would keep every finished run resident.

Each check runs with the collector disabled: after a run, a full
collection must find nothing, and every memory image the run built must
already be gone. Objects that predate the check are frozen out of the
collector's view, so each collection costs only what the run allocated.
"""

import gc
import weakref

import pytest

from repro.core.ooo import OoOCore
from repro.experiments import runner
from repro.experiments.spec import RunSpec
from repro.techniques import make_technique, technique_names

TECHNIQUES = tuple(technique_names()) + (runner.SOFTWARE_PREFETCH,)
#: One table kernel and one graph kernel.
WORKLOADS = ("camel", "bfs")
#: mode -> (extra RunSpec fields, audit)
MODES = {
    "plain": ({}, False),
    "trace": ({"trace": True}, False),
    "audit": ({}, True),
    "tlb": ({"overrides": (("memory.tlb.enable", "true"),)}, False),
}


@pytest.fixture
def built_images(monkeypatch):
    """Weak references to every memory image ``runner`` builds."""
    images = []
    build = runner.build_workload

    def tracking_build(*args, **kwargs):
        workload = build(*args, **kwargs)
        images.append(weakref.ref(workload.memory))
        return workload

    monkeypatch.setattr(runner, "build_workload", tracking_build)
    return images


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_finished_run_leaves_no_garbage(workload, mode, built_images):
    fields, audit = MODES[mode]
    cycles = {}
    survivors = {}
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for technique in TECHNIQUES:
            built_images.clear()
            spec = RunSpec(workload, technique, max_instructions=1500, **fields)
            runner.run_simulation(spec, audit=audit)
            alive = sum(ref() is not None for ref in built_images)
            if alive or not built_images:
                survivors[technique] = (alive, len(built_images))
            found = gc.collect()
            if found:
                cycles[technique] = found
    finally:
        gc.enable()
        gc.unfreeze()
    assert not cycles, f"unreachable objects after each run: {cycles}"
    assert not survivors, f"(live, built) memory images after each run: {survivors}"


def test_run_parts_hold_no_back_references():
    spec = RunSpec(
        "camel", "dvr", max_instructions=500,
        overrides=(("memory.tlb.enable", "true"),),
    ).resolved()
    workload = runner.build_workload(spec.workload)
    core = OoOCore(
        workload.program,
        workload.memory,
        spec.config,
        technique=make_technique(spec.technique, spec.config),
    )
    technique = core.technique
    assert technique.hierarchy is core.hierarchy
    assert technique.memory_image is core.memory_image
    assert all(value is not core for value in vars(technique).values())
    tlb = core.hierarchy.tlb
    assert tlb is not None
    assert all(value is not core.hierarchy for value in vars(tlb).values())
