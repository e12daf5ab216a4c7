"""The timed memory hierarchy: L1D -> L2 -> L3 -> DRAM with MSHRs.

All demand accesses, runahead prefetches, and hardware-prefetcher
requests flow through :meth:`MemoryHierarchy.access`, sharing one MSHR
file and one DRAM channel — which is how runahead techniques compete
with (and help) the main thread in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import MemoryConfig
from .cache import Cache
from .dram import Dram
from .mshr import MSHRFile
from .tlb import SOURCE_PTW, TLB

# Sources, used for the Figure 10 accuracy/coverage split.
SOURCE_MAIN = "main"
SOURCE_RUNAHEAD = "runahead"
SOURCE_PREFETCHER = "prefetcher"

LEVEL_L1 = "L1"
LEVEL_MSHR = "MSHR"  # merged into an outstanding miss
LEVEL_L2 = "L2"
LEVEL_L3 = "L3"
LEVEL_DRAM = "DRAM"
LEVEL_OFFCHIP = "Off-chip"
LEVEL_UNUSED = "Unused"  # prefetched, never demanded within the window
LEVEL_TLB_DROP = "TLB-drop"  # speculative access dropped at the L2-TLB miss

#: Service levels an access can resolve at, used to pre-build the
#: per-source ``prefetch_outcomes`` key tables.
_OUTCOME_LEVELS = (LEVEL_L1, LEVEL_MSHR, LEVEL_L2, LEVEL_L3, LEVEL_DRAM)
_KNOWN_SOURCES = (SOURCE_MAIN, SOURCE_RUNAHEAD, SOURCE_PREFETCHER, SOURCE_PTW)


class AccessResult:
    """Outcome of one hierarchy access."""

    __slots__ = ("ready", "level", "line")

    def __init__(self, ready: int, level: str, line: int) -> None:
        self.ready = ready  # cycle at which the data is available
        self.level = level  # where the request was satisfied
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AccessResult(ready={self.ready}, level={self.level!r}, line={self.line})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessResult):
            return NotImplemented
        return (self.ready, self.level, self.line) == (
            other.ready,
            other.level,
            other.line,
        )


@dataclass
class HierarchyStats:
    """Aggregate counters used by the figures."""

    demand_loads: int = 0
    demand_level_counts: Dict[str, int] = field(default_factory=dict)
    dram_by_source: Dict[str, int] = field(default_factory=dict)
    prefetches_by_source: Dict[str, int] = field(default_factory=dict)
    prefetch_already_cached: int = 0
    # Where each issued prefetch was satisfied, keyed "<source>.<level>".
    # Every level except DRAM means the prefetch was redundant — the line
    # was already cached somewhere on chip or already in flight.
    prefetch_outcomes: Dict[str, int] = field(default_factory=dict)
    # Lines entered into the Figure 11 timeliness tracker (first issue
    # only; re-prefetching a pending line does not re-count).
    prefetch_tracked: int = 0
    # Requests that actually merged into an outstanding MSHR entry.
    mshr_merge_hits: int = 0
    # Figure 11 classification of runahead-prefetched lines.
    timeliness: Dict[str, int] = field(default_factory=dict)

    def bump(self, table: Dict[str, int], key: str, amount: int = 1) -> None:
        table[key] = table.get(key, 0) + amount


class MemoryHierarchy:
    """Three timed cache levels, an MSHR file, and a DRAM channel."""

    def __init__(
        self, config: MemoryConfig, ideal: bool = False, tlb_policy: str = "walk"
    ) -> None:
        self.config = config
        self.ideal = ideal
        self.l1 = Cache("L1D", config.l1d)
        self.l2 = Cache("L2", config.l2)
        self.l3 = Cache("L3", config.l3)
        self.mshrs = MSHRFile(config.l1d_mshrs)
        self.dram = Dram(
            latency=config.dram_latency,
            bytes_per_cycle=config.dram_bytes_per_cycle,
            line_bytes=config.line_bytes,
        )
        self.line_bytes = config.line_bytes
        self.stats = HierarchyStats()
        # Address translation (PR 9). Ideal memory is an oracle that
        # bypasses timing, so it gets no TLB either.
        self.tlb: Optional[TLB] = (
            TLB(config.tlb) if config.tlb.enable and not ideal else None
        )
        self._walk_speculative = tlb_policy == "walk"
        # line -> source for pending prefetched lines (Figure 11).
        self._prefetched_lines: Dict[int, str] = {}
        # Per-source key table, hoisted so the hot paths never build
        # f-strings: source -> {level: "source.level"}.
        self._outcome_keys: Dict[str, Dict[str, str]] = {
            source: {level: f"{source}.{level}" for level in _OUTCOME_LEVELS}
            for source in _KNOWN_SOURCES
        }

    # -- helpers -------------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return int(addr) // self.line_bytes

    def mshr_available(self, cycle: int) -> bool:
        return self.mshrs.available(cycle)

    def mshr_next_free(self, cycle: int) -> int:
        return self.mshrs.next_free(cycle)

    def load_needs_mshr(self, addr: int, cycle: int) -> bool:
        """True when a demand load would require a fresh MSHR entry."""
        line = self.line_of(addr)
        if self.l1.contains(line, cycle):
            return False
        # peek, not lookup: a scheduling query is not a merged request
        # and must not count toward mem.mshr.merges.
        return self.mshrs.peek(line, cycle) is None

    def demand_load(self, addr: int, cycle: int):
        """Fused demand-load path: MSHR wait + timed access in one call.

        Returns ``(mem_start, AccessResult)``. Exactly equivalent to the
        ``load_needs_mshr`` / ``mshr_available`` / ``mshr_next_free`` /
        ``access`` call sequence the reference kernel performs — the
        timing cores' single hottest operation, so the L1-hit majority
        case is inlined down to one bucket lookup.
        """
        if self.ideal or self.tlb is not None:
            # Oracle mode has its own demand semantics inside access(),
            # and the translated path must funnel through access() so
            # translation happens in exactly one place; both take the
            # unfused sequence verbatim.
            mem_start = cycle
            if self.load_needs_mshr(addr, cycle) and not self.mshrs.available(cycle):
                wait = self.mshrs.next_free(cycle)
                if wait > mem_start:
                    mem_start = wait
            return mem_start, self.access(addr, mem_start)
        line = int(addr) // self.line_bytes
        l1 = self.l1
        bucket = l1._sets.get(line % l1.num_sets)
        fill_cycle = bucket.get(line) if bucket is not None else None
        if fill_cycle is not None and fill_cycle <= cycle:
            # L1 hit at issue: no MSHR involvement. Same state and stat
            # mutations as Cache.probe(hit) + the demand-load fast path
            # in access(), in the same order.
            bucket.move_to_end(line)
            l1.hits += 1
            stats = self.stats
            stats.demand_loads += 1
            counts = stats.demand_level_counts
            counts[LEVEL_L1] = counts.get(LEVEL_L1, 0) + 1
            if line in self._prefetched_lines:
                self._classify_demand(line, LEVEL_L1)
            return cycle, AccessResult(cycle + l1.latency, LEVEL_L1, line)
        mem_start = cycle
        mshrs = self.mshrs
        inflight = mshrs._inflight
        ready = inflight.get(line)
        if ready is None or ready <= cycle:
            # Needs a fresh MSHR entry (not resident, not in flight):
            # if the file is full the load waits in the LSQ for the
            # earliest reclamation wakeup.
            heap = mshrs._ready_heap
            if heap and heap[0][0] <= cycle:
                mshrs._purge(cycle)
            if len(inflight) >= mshrs.num_entries:
                wait = min(inflight.values())
                if wait > mem_start:
                    mem_start = wait
        return mem_start, self.access(addr, mem_start)

    def store(self, addr: int, cycle: int) -> None:
        """Fused demand-store path: ``access(addr, cycle, write=True)``.

        The timing cores retire a store at issue + 1, so nothing is
        returned. An L1 hit — the common case — touches the line's LRU
        position and the hit counter and nothing else, exactly as
        access() would; every other store, and every store under a TLB
        (translation happens in access() only), takes access().
        """
        if self.tlb is None:
            line = int(addr) // self.line_bytes
            l1 = self.l1
            bucket = l1._sets.get(line % l1.num_sets)
            fill_cycle = bucket.get(line) if bucket is not None else None
            if fill_cycle is not None and fill_cycle <= cycle:
                bucket.move_to_end(line)
                l1.hits += 1
                return
        self.access(addr, cycle, write=True)

    def _outcome_keys_of(self, source: str) -> Dict[str, str]:
        """Cached ``prefetch_outcomes`` keys of one source, by level."""
        keys = self._outcome_keys.get(source)
        if keys is None:
            keys = {lvl: f"{source}.{lvl}" for lvl in _OUTCOME_LEVELS}
            self._outcome_keys[source] = keys
        return keys

    def prefetch_ready(self, addr: int, cycle: int, source: str = SOURCE_RUNAHEAD) -> int:
        """Fused prefetch path: MSHR wait + timed access; returns ready.

        Exactly equivalent to the ``load_needs_mshr`` /
        ``mshr_available`` / ``mshr_next_free`` /
        ``access(prefetch=True)`` call sequence the vector engine's
        gathers perform per lane (``tests/test_vector_slice_engine.py``
        pins the equivalence) — the slice engine's hottest operation,
        so the L1-hit and MSHR-merge majority cases are inlined and
        only a fresh miss walks the full access path.

        With a TLB the fused fast paths would have to translate before
        probing, so the whole call funnels through access() instead —
        the unfused sequence the vector engine's reference executor
        performs, keeping fused==unfused equivalence trivially true.
        """
        if self.tlb is not None:
            return self._prefetch_ready_translated(addr, cycle, source)
        line = int(addr) // self.line_bytes
        l1 = self.l1
        bucket = l1._sets.get(line % l1.num_sets)
        fill_cycle = bucket.get(line) if bucket is not None else None
        stats = self.stats
        if fill_cycle is not None and fill_cycle <= cycle:
            # L1 hit at issue: no MSHR involvement. Same state and stat
            # mutations as Cache.probe(hit) + the prefetch bookkeeping
            # in access().
            bucket.move_to_end(line)
            l1.hits += 1
            table = stats.prefetches_by_source
            table[source] = table.get(source, 0) + 1
            stats.prefetch_already_cached += 1
            keys = self._outcome_keys.get(source) or self._outcome_keys_of(source)
            table = stats.prefetch_outcomes
            key = keys[LEVEL_L1]
            table[key] = table.get(key, 0) + 1
            if source in (SOURCE_RUNAHEAD, SOURCE_PREFETCHER):
                tracked = self._prefetched_lines
                if line not in tracked:
                    tracked[line] = source
                    stats.prefetch_tracked += 1
            return cycle + l1.latency
        mshrs = self.mshrs
        inflight = mshrs._inflight
        ready = inflight.get(line)
        if ready is not None and ready > cycle:
            # Already in flight: an MSHR merge. Same mutations as
            # Cache.probe(miss) + MSHRFile.lookup + the merge path in
            # access().
            l1.misses += 1
            mshrs.merged_requests += 1
            stats.mshr_merge_hits += 1
            table = stats.prefetches_by_source
            table[source] = table.get(source, 0) + 1
            keys = self._outcome_keys.get(source) or self._outcome_keys_of(source)
            table = stats.prefetch_outcomes
            key = keys[LEVEL_MSHR]
            table[key] = table.get(key, 0) + 1
            if source in (SOURCE_RUNAHEAD, SOURCE_PREFETCHER):
                tracked = self._prefetched_lines
                if line not in tracked:
                    tracked[line] = source
                    stats.prefetch_tracked += 1
            return ready
        # Fresh miss: needs an MSHR entry — if the file is full the
        # gather copy waits for the earliest reclamation, then takes
        # the full access path.
        mem_start = cycle
        heap = mshrs._ready_heap
        if heap and heap[0][0] <= cycle:
            mshrs._purge(cycle)
        if len(inflight) >= mshrs.num_entries:
            wait = min(inflight.values())
            if wait > mem_start:
                mem_start = wait
        return self.access(addr, mem_start, source=source, prefetch=True).ready

    def _prefetch_ready_translated(self, addr: int, cycle: int, source: str) -> int:
        """Translated prefetch path: the unfused MSHR-wait + access sequence.

        The MSHR wait is computed before translation, mirroring the
        issue-side gating the cores and vector engines perform on the
        untranslated address; access() then translates exactly once.
        """
        mem_start = cycle
        if self.load_needs_mshr(addr, cycle) and not self.mshrs.available(cycle):
            wait = self.mshrs.next_free(cycle)
            if wait > mem_start:
                mem_start = wait
        return self.access(addr, mem_start, source=source, prefetch=True).ready

    # -- fill paths ----------------------------------------------------------

    def _fill_l3(self, line: int, ready: int) -> None:
        """Fill the L3 and keep the hierarchy inclusive.

        An L3 victim may still be resident in L2/L1; leaving it there
        would let demand loads hit lines the LLC no longer backs, which
        breaks the level-counter identities the figures rely on.
        """
        victim = self.l3.fill(line, ready)
        if victim is not None:
            self.l2.invalidate(victim)
            self.l1.invalidate(victim)

    def _fill_l2(self, line: int, ready: int) -> None:
        victim = self.l2.fill(line, ready)
        if victim is not None:
            self.l1.invalidate(victim)

    # -- the access path -----------------------------------------------------

    def access(
        self,
        addr: int,
        cycle: int,
        source: str = SOURCE_MAIN,
        prefetch: bool = False,
        write: bool = False,
        fill_to: str = "l1",
        translated: bool = False,
    ) -> AccessResult:
        """Perform one timed access; returns readiness and service level.

        ``fill_to="l3"`` models prefetchers that live at the last-level
        cache (e.g. Continuous Runahead's LLC-controller core): their
        fetches land in the LLC only and do not consume L1 MSHRs.

        When the TLB is enabled every access translates here — the one
        funnel point — unless ``translated=True`` (page-table-walk loads
        and callers that already translated). Speculative accesses
        (prefetches from a non-main source) follow ``runahead.tlb_policy``:
        under ``"drop"`` an L2-TLB miss discards the access with no cache
        traffic and no prefetch bookkeeping, like a real prefetcher.
        """
        tlb = self.tlb
        if tlb is not None and not translated:
            if prefetch and source != SOURCE_MAIN:
                ready = tlb.translate_speculative(
                    addr, cycle, self._walk_speculative, self
                )
                if ready is None:
                    return AccessResult(
                        cycle + tlb.l2_latency,
                        LEVEL_TLB_DROP,
                        int(addr) // self.line_bytes,
                    )
                cycle = ready
            else:
                cycle = tlb.translate(addr, cycle, self)
        if fill_to == "l3":
            return self._access_llc_only(addr, cycle, source, prefetch)
        line = int(addr) // self.line_bytes
        is_demand_load = source == SOURCE_MAIN and not prefetch and not write
        stats = self.stats

        if self.ideal and is_demand_load:
            # Oracle mode: the data was prefetched "at the appropriate
            # point in time"; every demand load is an L1 hit. The fetch
            # itself still consumed DRAM bandwidth (the oracle is not
            # magic), so lines absent from the hierarchy occupy the
            # channel before being marked resident.
            self.stats.demand_loads += 1
            self.stats.bump(self.stats.demand_level_counts, LEVEL_L1)
            ready = cycle + self.l1.latency
            if not self.l3.contains(line, cycle):
                backlog = self.dram.access(cycle) - self.dram.latency
                self.stats.bump(self.stats.dram_by_source, SOURCE_MAIN)
                self._fill_l3(line, cycle)
                # With a generous (but finite) prefetch lead, a channel
                # backlogged further than the lead throttles even the
                # oracle to the bandwidth ceiling.
                lead = 2 * self.dram.latency
                if backlog - lead > ready:
                    ready = backlog - lead
            return AccessResult(ready, LEVEL_L1, line)

        if prefetch:
            table = stats.prefetches_by_source
            table[source] = table.get(source, 0) + 1

        # Cache.probe and MSHRFile.lookup, inlined level by level: the
        # same LRU, hit/miss and merge mutations in the same order.
        l1 = self.l1
        bucket = l1._sets.get(line % l1.num_sets)
        fill_cycle = bucket.get(line) if bucket is not None else None
        if fill_cycle is not None and fill_cycle <= cycle:
            bucket.move_to_end(line)
            l1.hits += 1
            level = LEVEL_L1
            ready = cycle + l1.latency
            if is_demand_load:
                # Demand-load L1 hit — the timing cores' hottest call;
                # same bookkeeping as the shared tail below, inlined.
                stats.demand_loads += 1
                counts = stats.demand_level_counts
                counts[LEVEL_L1] = counts.get(LEVEL_L1, 0) + 1
                if line in self._prefetched_lines:
                    self._classify_demand(line, LEVEL_L1)
                return AccessResult(ready, LEVEL_L1, line)
            if prefetch:
                # Legacy counter: L1-hit redundancy only. The per-level
                # breakdown lives in prefetch_outcomes.
                stats.prefetch_already_cached += 1
        else:
            l1.misses += 1
            mshrs = self.mshrs
            merged_ready = mshrs._inflight.get(line)
            if merged_ready is not None and merged_ready > cycle:
                mshrs.merged_requests += 1
                level = LEVEL_MSHR
                ready = merged_ready
                stats.mshr_merge_hits += 1
            else:
                l2 = self.l2
                bucket = l2._sets.get(line % l2.num_sets)
                fill_cycle = bucket.get(line) if bucket is not None else None
                if fill_cycle is not None and fill_cycle <= cycle:
                    bucket.move_to_end(line)
                    l2.hits += 1
                    level = LEVEL_L2
                    ready = cycle + l2.latency
                else:
                    l2.misses += 1
                    l3 = self.l3
                    bucket = l3._sets.get(line % l3.num_sets)
                    fill_cycle = bucket.get(line) if bucket is not None else None
                    if fill_cycle is not None and fill_cycle <= cycle:
                        bucket.move_to_end(line)
                        l3.hits += 1
                        level = LEVEL_L3
                        ready = cycle + l3.latency
                    else:
                        l3.misses += 1
                        level = LEVEL_DRAM
                        ready = self.dram.access(cycle)
                        table = stats.dram_by_source
                        table[source] = table.get(source, 0) + 1
                        self._fill_l3(line, ready)
                    self._fill_l2(line, ready)
                l1.fill(line, ready)
                if not write:
                    mshrs.allocate(line, cycle, ready)

        if prefetch:
            keys = self._outcome_keys.get(source) or self._outcome_keys_of(source)
            key = keys[level]
            table = stats.prefetch_outcomes
            table[key] = table.get(key, 0) + 1
            if source in (SOURCE_RUNAHEAD, SOURCE_PREFETCHER):
                tracked = self._prefetched_lines
                if line not in tracked:
                    tracked[line] = source
                    stats.prefetch_tracked += 1
        elif is_demand_load:
            stats.demand_loads += 1
            counts = stats.demand_level_counts
            counts[level] = counts.get(level, 0) + 1
            if line in self._prefetched_lines:
                self._classify_demand(line, level)
        return AccessResult(ready, level, line)

    def _track_prefetched(self, line: int, source: str) -> None:
        """Remember a prefetched line for Figure 11 classification.

        Re-prefetching an already-tracked line keeps its pending status
        and does not re-count it.
        """
        if line not in self._prefetched_lines:
            self._prefetched_lines[line] = source
            self.stats.prefetch_tracked += 1

    def _access_llc_only(
        self, addr: int, cycle: int, source: str, prefetch: bool
    ) -> AccessResult:
        """LLC-level prefetch path: fill the L3 (never L2/L1)."""
        line = self.line_of(addr)
        stats = self.stats
        if prefetch:
            stats.bump(stats.prefetches_by_source, source)
        if self.l3.probe(line, cycle):
            if prefetch:
                stats.bump(
                    stats.prefetch_outcomes, self._outcome_keys_of(source)[LEVEL_L3]
                )
            return AccessResult(cycle + self.l3.latency, LEVEL_L3, line)
        ready = self.dram.access(cycle)
        stats.bump(stats.dram_by_source, source)
        self._fill_l3(line, ready)
        if prefetch:
            stats.bump(
                stats.prefetch_outcomes, self._outcome_keys_of(source)[LEVEL_DRAM]
            )
        if prefetch and source in (SOURCE_RUNAHEAD, SOURCE_PREFETCHER):
            self._track_prefetched(line, source)
        return AccessResult(ready, LEVEL_DRAM, line)

    # -- Figure 11 timeliness tracking ---------------------------------------

    def _classify_demand(self, line: int, level: str) -> None:
        source = self._prefetched_lines.pop(line, None)
        if source is None:
            return
        if level in (LEVEL_L1, LEVEL_L2, LEVEL_L3):
            bucket = level
        else:
            # Still in flight (MSHR) or already evicted back to memory.
            bucket = LEVEL_OFFCHIP
        table = self.stats.timeliness
        table[bucket] = table.get(bucket, 0) + 1

    def finalize_timeliness(self) -> None:
        """Bucket never-demanded prefetched lines.

        In the paper's 500M-instruction windows these are genuinely
        useless (over-fetch); in our short regions most of them are the
        outstanding prefetch horizon at the end of the run, so they are
        reported in their own bucket rather than folded into Off-chip.
        """
        for line in list(self._prefetched_lines):
            self.stats.bump(self.stats.timeliness, LEVEL_UNUSED)
            del self._prefetched_lines[line]

    # -- reporting -------------------------------------------------------------

    def publish_counters(
        self,
        registry,
        cycles: Optional[int] = None,
        stats: Optional[HierarchyStats] = None,
    ) -> None:
        """Register the ``mem.*`` counter family into ``registry``.

        ``stats`` lets the core substitute ROI-adjusted aggregates for
        the raw whole-run ones; ``cycles`` (the run length) enables the
        derived mean-MSHR-occupancy gauge, which is only meaningful at
        run end. The MSHR-file totals are always whole-run.
        """
        s = stats if stats is not None else self.stats
        levels = s.demand_level_counts
        l1 = levels.get(LEVEL_L1, 0)
        merged = levels.get(LEVEL_MSHR, 0)
        l2 = levels.get(LEVEL_L2, 0)
        l3 = levels.get(LEVEL_L3, 0)
        dram = levels.get(LEVEL_DRAM, 0)
        registry.set("mem.demand.loads", s.demand_loads)
        registry.set("mem.l1.hits", l1)
        registry.set("mem.l1.misses", max(0, s.demand_loads - l1))
        registry.set("mem.mshr.merges", merged)
        registry.set("mem.l2.hits", l2)
        registry.set("mem.l2.misses", l3 + dram)
        registry.set("mem.l3.hits", l3)
        registry.set("mem.l3.misses", dram)
        registry.set_many(s.dram_by_source, prefix="mem.dram.accesses.")
        registry.set_many(s.prefetches_by_source, prefix="mem.prefetch.issued.")
        registry.set("mem.prefetch.already_cached", s.prefetch_already_cached)
        registry.set_many(s.prefetch_outcomes, prefix="mem.prefetch.outcome.")
        registry.set("mem.prefetch.tracked", s.prefetch_tracked)
        registry.set_many(s.timeliness, prefix="mem.prefetch.timeliness.")
        registry.set("mem.mshr.allocations", self.mshrs.total_allocations)
        registry.set("mem.mshr.rejections", self.mshrs.rejected_requests)
        registry.set("mem.mshr.file_merges", self.mshrs.merged_requests)
        registry.set("mem.mshr.peak_occupancy", self.mshrs.peak_occupancy)
        if self.tlb is not None:
            # Whole-run totals from the live TLB, like the MSHR-file
            # counters: translation is a structural resource, not an
            # ROI-windowed aggregate.
            registry.set_many(self.tlb.counters())
        if cycles is not None:
            registry.set("mem.mshr.mean_occupancy", self.mean_mshr_occupancy(cycles))

    def dram_accesses(self, source: Optional[str] = None) -> int:
        if source is None:
            return sum(self.stats.dram_by_source.values())
        return self.stats.dram_by_source.get(source, 0)

    def mean_mshr_occupancy(self, total_cycles: int) -> float:
        return self.mshrs.mean_occupancy(total_cycles)
