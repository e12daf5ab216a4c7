"""The virtual-memory axis: TLB model properties and differentials.

Three obligations, mirroring the PR's acceptance criteria:

1. Model laws — hypothesis properties over :class:`TLBLevel`/:class:`TLB`
   (LRU occupancy never exceeds associativity, lookup conservation,
   walk latency monotone in page-table depth) plus targeted unit tests
   for promotion, walk coalescing, and the drop policy.
2. tlb-off differential — the default configuration must be
   bit-identical (cycles, counters, trace digests) to a spec that
   spells the TLB out as disabled, across the workload x technique
   matrix: translation off is a no-op, not merely "close".
3. tlb-on audit — with the TLB enabled the ``mem.tlb.*`` books must
   balance under the registered audit laws on real runs, walks must
   actually happen, and the drop policy must hold walk conservation
   with a non-zero dropped count.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig, TLBConfig
from repro.errors import ConfigError
from repro.memory.hierarchy import LEVEL_TLB_DROP, MemoryHierarchy
from repro.memory.tlb import TLB, TLBLevel
from repro.experiments import run_simulation
from repro.experiments.spec import RunSpec

MATRIX = [
    (workload, technique)
    for workload in ("camel", "nas_is")
    for technique in ("ooo", "vr", "dvr")
]


def _tlb_hierarchy(tlb_policy="walk", **tlb_kwargs):
    cfg = SimConfig().memory
    cfg = dataclasses.replace(cfg, tlb=TLBConfig(enable=True, **tlb_kwargs))
    return MemoryHierarchy(cfg, tlb_policy=tlb_policy)


# ---------------------------------------------------------------------------
# Model laws (hypothesis).


class TestTLBLevelProperties:
    @given(
        entries_sets=st.sampled_from([(8, 2), (16, 4), (64, 4), (32, 8)]),
        pages=st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_lru_never_exceeds_associativity(self, entries_sets, pages):
        entries, assoc = entries_sets
        level = TLBLevel("t", entries, assoc)
        for cycle, page in enumerate(pages):
            if level.probe(page) is None:
                level.fill(page, cycle)
        assert all(n <= assoc for n in level.occupancy().values())

    @given(
        pages=st.lists(st.integers(min_value=0, max_value=1 << 14), max_size=200)
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_conservation(self, pages):
        level = TLBLevel("t", 16, 4)
        for cycle, page in enumerate(pages):
            if level.probe(page) is None:
                level.fill(page, cycle)
        assert level.hits + level.misses == level.lookups
        assert level.lookups == len(pages)

    @given(
        addr=st.integers(min_value=0, max_value=1 << 30),
        depths=st.sampled_from([(1, 2), (2, 4), (3, 5), (1, 6)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_walk_latency_monotone_in_depth(self, addr, depths):
        shallow_levels, deep_levels = depths
        ready = {}
        for levels in (shallow_levels, deep_levels):
            h = _tlb_hierarchy(walk_levels=levels)
            ready[levels] = h.tlb.translate(addr, 0, h)
        # A deeper radix tree is never faster to walk: each extra level
        # adds at least one dependent cached load.
        assert ready[deep_levels] >= ready[shallow_levels]
        assert ready[shallow_levels] > 0  # cold walk is never free


class TestTLBUnits:
    def test_l1_hit_is_free(self):
        h = _tlb_hierarchy()
        tlb = h.tlb
        done = tlb.translate(0x2000, 0, h)  # cold: walks
        assert tlb.walks == 1
        assert tlb.translate(0x2010, done, h) == done  # same page, L1 hit
        assert tlb.walks == 1 and tlb.l1.hits == 1

    def test_l2_hit_promotes_into_l1(self):
        h = _tlb_hierarchy(l1_entries=2, l1_assoc=1, page_bytes=4096)
        tlb = h.tlb
        t0 = tlb.translate(0x0000, 0, h)
        # Evict page 0 from the 2-entry L1 TLB (pages 2 and 4 map to
        # its set with assoc 1... fill both sets).
        tlb.translate(0x2000, t0, h)
        tlb.translate(0x4000, t0, h)
        walks = tlb.walks
        l2_hits = tlb.l2.hits
        ready = tlb.translate(0x0000, t0, h)  # L1 miss, L2 hit: no new walk
        assert tlb.walks == walks
        assert tlb.l2.hits == l2_hits + 1
        assert ready >= t0 + tlb.l2_latency
        # ...and the entry is back in the L1 TLB.
        assert tlb.l1.probe(0) is not None

    def test_inflight_walk_coalesces(self):
        h = _tlb_hierarchy()
        tlb = h.tlb
        done = tlb.translate(0x8000, 0, h)
        assert done > 0 and tlb.walks == 1
        # A second translate for the same page before the walk finishes
        # counts as a hit and waits for the fill — never a second walk.
        ready = tlb.translate(0x8040, 1, h)
        assert ready == done
        assert tlb.walks == 1
        assert tlb.l1.hits == 1

    def test_drop_policy_discards_speculative_misses(self):
        h = _tlb_hierarchy(tlb_policy="drop")
        tlb = h.tlb
        result = h.access(0x3000, 0, source="runahead", prefetch=True)
        assert result.level == LEVEL_TLB_DROP
        assert tlb.walks == 0
        assert tlb.dropped_prefetches == 1
        # No cache traffic and no prefetch bookkeeping for the drop.
        assert h.stats.prefetches_by_source == {}
        assert h.l1.hits + h.l1.misses == 0
        # A demand load to the same page still walks.
        h.access(0x3000, 0)
        assert tlb.walks == 1
        # Walk conservation holds by construction.
        assert tlb.walks == tlb.l2.misses - tlb.dropped_prefetches

    def test_walk_policy_lets_speculative_accesses_walk(self):
        h = _tlb_hierarchy(tlb_policy="walk")
        result = h.access(0x3000, 0, source="runahead", prefetch=True)
        assert result.level != LEVEL_TLB_DROP
        assert h.tlb.walks == 1
        assert h.tlb.dropped_prefetches == 0

    def test_walk_loads_go_through_the_caches(self):
        h = _tlb_hierarchy(walk_levels=4)
        h.tlb.translate(0x0000, 0, h)
        # Cold walk: the leaf PTE load (at least) misses to DRAM under
        # the walker's source tag...
        assert h.stats.dram_by_source.get("ptw", 0) >= 1
        dram_after_first = h.stats.dram_by_source["ptw"]
        # ...and a neighbouring page's walk reuses the cached upper
        # levels instead of re-fetching all four.
        h.tlb.translate(0x1000, 10_000, h)
        assert h.stats.dram_by_source["ptw"] - dram_after_first < 4

    def test_tlb_config_validation(self):
        with pytest.raises(ConfigError):
            TLBConfig(page_bytes=3000)  # not a power of two
        with pytest.raises(ConfigError):
            TLBConfig(l1_entries=10, l1_assoc=4)  # not divisible
        with pytest.raises(ConfigError):
            TLBConfig(walk_levels=0)
        from repro.config import RunaheadConfig

        with pytest.raises(ConfigError):
            RunaheadConfig(tlb_policy="sometimes")

    def test_ideal_memory_has_no_tlb(self):
        cfg = dataclasses.replace(
            SimConfig().memory, tlb=TLBConfig(enable=True)
        )
        assert MemoryHierarchy(cfg, ideal=True).tlb is None


# ---------------------------------------------------------------------------
# tlb-off differential: the default path must be bit-identical.


@pytest.mark.parametrize("workload,technique", MATRIX)
def test_tlb_off_is_bit_identical(workload, technique):
    plain = RunSpec(workload, technique=technique, max_instructions=1500, trace=True)
    explicit = RunSpec(
        workload,
        technique=technique,
        max_instructions=1500,
        trace=True,
        overrides=(
            ("memory.tlb.enable", "false"),
            ("runahead.tlb_policy", "walk"),
        ),
    )
    a = run_simulation(plain)
    b = run_simulation(explicit)
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.trace_digest == b.trace_digest
    assert a.counters == b.counters
    assert not any(k.startswith("mem.tlb.") for k in a.counters)


# ---------------------------------------------------------------------------
# tlb-on: books balance on real runs (audit=True raises on violation).


@pytest.mark.parametrize("technique", ["ooo", "vr", "dvr"])
def test_tlb_on_audit_balances(technique):
    spec = RunSpec(
        "camel",
        technique=technique,
        max_instructions=3000,
        overrides=(("memory.tlb.enable", "true"),),
    )
    result = run_simulation(spec.resolved(), audit=True)
    counters = result.counters
    assert counters["mem.tlb.walks"] > 0
    assert counters["mem.tlb.l1.lookups"] > 0
    assert (
        counters["mem.tlb.l1.hits"] + counters["mem.tlb.l1.misses"]
        == counters["mem.tlb.l1.lookups"]
    )


def test_tlb_on_drop_policy_audit():
    spec = RunSpec(
        "camel",
        technique="dvr",
        max_instructions=3000,
        overrides=(
            ("memory.tlb.enable", "true"),
            ("runahead.tlb_policy", "drop"),
        ),
    )
    result = run_simulation(spec.resolved(), audit=True)
    counters = result.counters
    assert counters["mem.tlb.dropped_prefetches"] > 0
    assert (
        counters["mem.tlb.walks"]
        == counters["mem.tlb.l2.misses"] - counters["mem.tlb.dropped_prefetches"]
    )


def test_tlb_on_classic_runahead_audit():
    # Classic runahead's full-ROB trigger path must survive translated
    # demand loads too (the TLB-on CycleCore row lives in
    # tests/test_cross_validation.py).
    spec = RunSpec(
        "camel",
        technique="runahead",
        max_instructions=3000,
        overrides=(("memory.tlb.enable", "true"),),
    )
    result = run_simulation(spec.resolved(), audit=True)
    assert result.counters["mem.tlb.walks"] > 0


def test_drop_policy_costs_runahead_coverage():
    # The paper-faithful question the knob exists to ask: forbidding
    # speculative walks must not *help* a runahead technique.
    base = RunSpec(
        "camel",
        technique="dvr",
        max_instructions=3000,
        overrides=(("memory.tlb.enable", "true"),),
    )
    drop = RunSpec(
        "camel",
        technique="dvr",
        max_instructions=3000,
        overrides=(
            ("memory.tlb.enable", "true"),
            ("runahead.tlb_policy", "drop"),
        ),
    )
    walk_cycles = run_simulation(base).cycles
    drop_cycles = run_simulation(drop).cycles
    assert drop_cycles >= walk_cycles
