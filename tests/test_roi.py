"""The ROI rule: a warmed run's books are the cold run's, less the warm-up.

``SimConfig.warmup_instructions`` scopes a run to its region of
interest. The kernel publishes its whole counter registry at the
warm-up instant, and the epilogue reports every counter as end - base,
except the gauges in ``ROI_GAUGES``. So a warmed run must read, for
every counter, what a cold run of the same length reads at its end
minus what it read at the boundary, which an ``on_interval`` hook
samples through the same publisher.
"""

from __future__ import annotations

import pytest

from repro.core.ooo import ROI_GAUGES
from repro.experiments import RunSpec, run_simulation
from repro.observability import Observability, subtree
from repro.techniques import technique_names

WARMUP = 3000
REGION = 3000

#: Each scalar result attribute and the counter it is a view over.
SCALARS = {
    "instructions": "core.commit.instructions",
    "cycles": "core.cycles",
    "full_rob_stall_cycles": "core.stall.full_rob_cycles",
    "stall_episodes": "core.stall.episodes",
    "commit_block_cycles": "core.stall.commit_block_cycles",
    "branch_predictions": "core.branch.predictions",
    "branch_mispredictions": "core.branch.mispredictions",
    "demand_loads": "mem.demand.loads",
    "mean_mshr_occupancy": "mem.mshr.mean_occupancy",
}

#: Each dict result attribute and the counter family it is a view over.
FAMILIES = {
    "dram_by_source": "mem.dram.accesses",
    "prefetches_by_source": "mem.prefetch.issued",
    "timeliness": "mem.prefetch.timeliness",
    "cycle_buckets": "core.cpi_stack",
}

LEVELS = {
    "L1": "mem.l1.hits",
    "MSHR": "mem.mshr.merges",
    "L2": "mem.l2.hits",
    "L3": "mem.l3.hits",
    "DRAM": "mem.l3.misses",
}


def _spec(technique, overrides=()):
    return RunSpec(
        "bfs", technique=technique, max_instructions=WARMUP + REGION, overrides=overrides
    )


def _cold_and_warm(technique, overrides=()):
    """A cold run with its boundary snapshot, and the audited warmed run."""
    obs = Observability()
    snapshots = []
    obs.on_interval(WARMUP, lambda cycle, counters: snapshots.append(counters.snapshot()))
    cold = run_simulation(_spec(technique, overrides), observability=obs)
    warm = run_simulation(
        _spec(technique, (*overrides, ("warmup_instructions", WARMUP))), audit=True
    )
    return cold, snapshots[0], warm


def _assert_roi_rule(cold, base, warm):
    assert warm.audit["passed"] is True
    vanished = sorted(set(cold.counters) - set(warm.counters))
    assert not vanished, f"counters missing from the warmed run: {vanished}"
    assert set(warm.counters) == set(cold.counters)
    whole_run = {
        name: (warm.counters[name], value - base.get(name, 0))
        for name, value in cold.counters.items()
        if name not in ROI_GAUGES and warm.counters[name] != value - base.get(name, 0)
    }
    assert not whole_run, f"counters not scoped to the ROI (got, want): {whole_run}"
    assert warm.instructions == REGION


def _assert_books_balance(result):
    counters = result.counters
    assert sum(result.cycle_buckets.values()) == counters["core.cycles"]
    assert (
        counters["core.sched.commit_cycles"] + counters["core.sched.cycles.skipped"]
        == counters["core.cycles"]
    )


def _assert_views(result):
    counters = result.counters
    for attribute, name in SCALARS.items():
        assert getattr(result, attribute) == counters[name], attribute
    for attribute, prefix in FAMILIES.items():
        assert getattr(result, attribute) == subtree(counters, prefix), attribute
    assert result.technique_stats == subtree(counters, f"runahead.{result.technique}")
    assert result.demand_level_counts == {
        level: counters[name] for level, name in LEVELS.items() if counters[name]
    }


@pytest.mark.parametrize("technique", [*technique_names(), "swpf"])
def test_warmed_counters_are_cold_end_minus_the_boundary(technique):
    cold, base, warm = _cold_and_warm(technique)
    _assert_roi_rule(cold, base, warm)
    for result in (cold, warm):
        _assert_books_balance(result)
        _assert_views(result)


def test_warmed_translated_run_scopes_the_tlb_books():
    cold, base, warm = _cold_and_warm("dvr", (("memory.tlb.enable", True),))
    assert base["mem.tlb.walks"] > 0
    _assert_roi_rule(cold, base, warm)
    _assert_books_balance(warm)


def test_result_views_are_read_only():
    result = run_simulation(RunSpec("camel", max_instructions=500))
    with pytest.raises(AttributeError):
        result.cycles = 1
