"""Differential equivalence: the OoO event kernel vs the reference oracle.

``OoOCore.run`` must be *bit-identical* to the loop it was restructured
from (``tests/oracles/ooo_reference.py``) — same cycle counts, same
retired-instruction counts, same ``core.*``/``mem.*`` counter books,
same golden trace digests — over the workload x technique matrix. The
only permitted delta is the ``core.sched.*`` family, which only the
event kernel publishes and whose internal laws are asserted here (and
by the ``sched.*`` audit checks).
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.core.ooo import OoOCore
from repro.observability.probes import Observability
from repro.techniques import make_technique
from repro.workloads.registry import build_workload

from oracles import SCHED_PREFIX, assert_same_run
from oracles.ooo_reference import run_reference

WORKLOADS = ("camel", "nas_is")
TECHNIQUES = ("ooo", "vr", "dvr", "dvr-offload", "runahead", "pre")
LIMIT = 2000


def _run_ooo(workload_name: str, technique_name: str, reference: bool):
    wl = build_workload(workload_name)
    cfg = SimConfig()
    core = OoOCore(
        wl.program,
        wl.memory,
        cfg,
        technique=make_technique(technique_name, cfg),
        workload_name=workload_name,
        observability=Observability(trace=True),
    )
    if reference:
        return run_reference(core, max_instructions=LIMIT)
    return core.run(max_instructions=LIMIT)


def _assert_sched_laws(result, sched):
    assert sched, "event kernel must publish core.sched.*"
    assert sched["core.sched.retire_violations"] == 0
    assert sched["core.sched.events.fired"] == result.instructions
    # Stall spans are the skipped cycles: together with the cycles that
    # retired something they partition the run.
    assert (
        sched["core.sched.commit_cycles"] + sched["core.sched.cycles.skipped"]
        == result.cycles
    )


@pytest.mark.parametrize("workload_name", WORKLOADS)
@pytest.mark.parametrize("technique_name", TECHNIQUES)
def test_ooo_event_kernel_matches_reference(workload_name, technique_name):
    ref = _run_ooo(workload_name, technique_name, reference=True)
    new = _run_ooo(workload_name, technique_name, reference=False)
    assert ref.trace_digest is not None
    assert not any(k.startswith(SCHED_PREFIX) for k in ref.counters), (
        "reference loop must not publish core.sched.*"
    )
    _assert_sched_laws(new, assert_same_run(ref, new))


def test_ooo_event_kernel_skips_dram_stalls():
    """On the miss-heavy hash chain most cycles are skipped stall spans."""
    new = _run_ooo("camel", "ooo", reference=False)
    assert new.counters["core.sched.cycles.skipped"] > new.cycles // 2


def test_event_kernels_run_once_guard():
    wl = build_workload("camel")
    core = OoOCore(wl.program, wl.memory, SimConfig(), workload_name="camel")
    core.run(max_instructions=200)
    with pytest.raises(Exception):
        core.run(max_instructions=200)
    with pytest.raises(Exception):
        run_reference(core, max_instructions=200)
