"""The technique hook protocol: plain values, called only when overridden.

The kernel decides once per run, from the technique's class, which of
the four per-instruction hooks to call (``repro.prefetch.base.
kernel_hooks``): a class that keeps the base no-op is never called. A
technique that overrides a hook sees, at every call site, exactly the
values the reference loop (``tests/oracles/ooo_reference.py``, driven by
its own ``FunctionalCore.step_reference`` stream) hands it.
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.core import FunctionalCore, OoOCore
from repro.isa.predecode import K_STORE
from repro.prefetch.base import NullTechnique, Technique, kernel_hooks
from repro.techniques import make_technique
from repro.workloads.registry import build_workload

from oracles.ooo_reference import run_reference

HOOKS = ("on_commit", "on_demand_load", "on_full_rob_stall", "advance_to")
LIMIT = 3_000


class _Recorder(Technique):
    """Overrides every hook and records each call's arguments."""

    name = "recorder"

    def __init__(self) -> None:
        super().__init__()
        self.calls = {name: [] for name in HOOKS}

    def on_commit(self, pc, value, addr, next_pc, cycle, complete):
        self.calls["on_commit"].append((pc, value, addr, next_pc, cycle, complete))

    def on_demand_load(self, pc, addr, value, cycle):
        self.calls["on_demand_load"].append((pc, addr, value, cycle))

    def on_full_rob_stall(self, start, end, head_pc):
        self.calls["on_full_rob_stall"].append((start, end, head_pc))

    def advance_to(self, cycle):
        self.calls["advance_to"].append(cycle)


def _core(technique, workload="camel"):
    wl = build_workload(workload)
    return OoOCore(
        wl.program,
        wl.memory,
        SimConfig(max_instructions=LIMIT),
        technique=technique,
        workload_name=workload,
    )


@pytest.mark.parametrize(
    "name,overridden",
    [
        ("ooo", set()),
        ("vr", {"on_commit", "on_full_rob_stall"}),
        ("dvr", {"on_commit", "advance_to"}),
        ("imp", {"on_demand_load"}),
    ],
)
def test_kernel_hooks_follow_class_overrides(name, overridden):
    hooks = kernel_hooks(make_technique(name))
    assert set(hooks) == set(HOOKS)
    assert {hook for hook, bound in hooks.items() if bound is not None} == overridden


def test_no_override_means_no_call(monkeypatch):
    """A counting shim on the base hooks: a class that overrides none of
    them is never called from the kernel's loop."""
    counts = dict.fromkeys(HOOKS, 0)
    for hook in HOOKS:
        def counting(self, *args, _hook=hook):
            counts[_hook] += 1

        monkeypatch.setattr(Technique, hook, counting)

    class Plain(NullTechnique):
        name = "plain"

    assert all(bound is None for bound in kernel_hooks(Plain()).values())
    result = _core(Plain()).run()
    # Every hook had call sites: loads, stalls and commits all happened.
    assert result.instructions == LIMIT
    assert result.demand_loads and result.stall_episodes
    # Only the epilogue's one advance_to (draining a decoupled engine)
    # reaches a technique that overrides nothing.
    assert counts == {
        "on_commit": 0,
        "on_demand_load": 0,
        "on_full_rob_stall": 0,
        "advance_to": 1,
    }


@pytest.mark.parametrize("workload", ("camel", "nas_is"))
def test_recorded_hook_values_match_the_oracle(workload):
    product = _Recorder()
    result = _core(product, workload).run()
    oracle = _Recorder()
    reference = run_reference(_core(oracle, workload))
    assert result.cycles == reference.cycles
    assert product.calls == oracle.calls

    calls = product.calls
    assert len(calls["on_commit"]) == result.instructions == LIMIT
    assert len(calls["on_demand_load"]) == result.demand_loads
    assert len(calls["on_full_rob_stall"]) == result.stall_episodes > 0
    # advance_to fires before each demand access, then once at the end.
    assert len(calls["advance_to"]) == result.demand_loads + 1

    # on_commit carries the architectural stream's DynInstr fields.
    wl = build_workload(workload)
    step = FunctionalCore(wl.program, wl.memory).step_reference
    kinds = wl.program.decoded().kinds
    stores = 0
    for pc, value, addr, next_pc, _cycle, _complete in calls["on_commit"]:
        dyn = step()
        assert (pc, value, addr, next_pc) == (dyn.pc, dyn.value, dyn.addr, dyn.next_pc)
        if kinds[pc] == K_STORE:
            stores += 1
            assert value is None
    if workload == "nas_is":
        assert stores, "the histogram kernel must exercise the store path"
