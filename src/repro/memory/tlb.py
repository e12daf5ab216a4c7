"""Two-level TLB hierarchy and a timed radix page-table walker.

The virtual-memory axis (see docs/architecture.md, "Address
translation"): when :class:`~repro.config.TLBConfig` is enabled, every
access entering :class:`~repro.memory.hierarchy.MemoryHierarchy`
translates its address first. Translation is modeled as *timing only* —
the simulator's addresses are already physical, so a translation never
changes where data lives, only when the access may begin:

* L1-TLB hit: free (looked up in parallel with the L1-D tag check).
* L1 miss, L2-TLB hit: ``l2_latency`` cycles, and the entry is
  promoted into the L1 TLB.
* Full miss: a ``walk_levels``-deep radix walk. Each level issues one
  dependent load for a synthetic PTE address *through the cache
  hierarchy* (source ``"ptw"``) — walk loads hit, miss, fill caches,
  and occupy MSHRs exactly like demand traffic, which is how TLB misses
  steal memory-level parallelism from the runahead engine.

Speculative accesses (runahead gathers, hardware prefetches) consult
``runahead.tlb_policy``: ``"walk"`` lets them walk like demand traffic,
``"drop"`` discards them at the L2-TLB miss the way real hardware
prefetchers do (counted in ``dropped_prefetches``).

TLB entries carry the cycle their translation becomes available, like
cache lines carry fill cycles: a translate that finds an entry whose
walk is still in flight *coalesces* onto it (counts as a hit, waits for
the fill) instead of launching a duplicate walk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional

from ..config import TLBConfig

if TYPE_CHECKING:  # pragma: no cover
    from .hierarchy import MemoryHierarchy

#: Hierarchy source tag for page-table-walker loads. Not a demand load
#: and not a prefetch, so the walker perturbs none of the demand-level
#: or prefetch-outcome conservation laws; its DRAM traffic publishes as
#: ``mem.dram.accesses.ptw``.
SOURCE_PTW = "ptw"

#: Base of the synthetic page-table region, far above every workload
#: segment so PTE lines never alias workload data. Each walk level gets
#: its own sub-region (``level << 36``).
_PT_BASE = 1 << 40

#: Radix bits consumed per walk level (x86-64 shape: 512-entry nodes).
_RADIX_BITS = 9


class TLBLevel:
    """One set-associative TLB level with true LRU over page numbers.

    Mirrors :class:`~repro.memory.cache.Cache`: per-set
    :class:`OrderedDict` (insertion order = recency order), entries
    keyed by virtual page number and carrying the cycle at which their
    translation is available.
    """

    def __init__(self, name: str, entries: int, assoc: int) -> None:
        self.name = name
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._sets: Dict[int, OrderedDict] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def probe(self, page: int) -> Optional[int]:
        """Fill cycle if the page is present (possibly still in flight).

        Counts the lookup: a present entry is a hit even when its walk
        has not completed yet — the requester coalesces onto it.
        """
        self.lookups += 1
        bucket = self._sets.get(page % self.num_sets)
        fill = bucket.get(page) if bucket is not None else None
        if fill is None:
            self.misses += 1
            return None
        bucket.move_to_end(page)
        self.hits += 1
        return fill

    def fill(self, page: int, fill_cycle: int) -> Optional[int]:
        """Insert a translation; returns the evicted page, if any."""
        index = page % self.num_sets
        bucket = self._sets.get(index)
        if bucket is None:
            bucket = OrderedDict()
            self._sets[index] = bucket
        old = bucket.get(page)
        if old is not None:
            # Re-fill: keep the earlier availability time.
            if fill_cycle < old:
                bucket[page] = fill_cycle
            bucket.move_to_end(page)
            return None
        victim = None
        if len(bucket) >= self.assoc:
            victim, _ = bucket.popitem(last=False)
            self.evictions += 1
        bucket[page] = fill_cycle
        return victim

    def occupancy(self) -> Dict[int, int]:
        """Entries per set (test hook: no set may exceed ``assoc``)."""
        return {index: len(bucket) for index, bucket in self._sets.items()}


class TLB:
    """The translation front-end the memory hierarchy consults.

    Holds both TLB levels and the page-table walker. The owning
    :class:`MemoryHierarchy` passes itself into each translate call,
    and walk loads are issued through it (with ``translated=True`` so
    they never re-translate); the TLB keeps no reference to it, so the
    hierarchy → TLB ownership stays a tree.
    """

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self.page_bytes = config.page_bytes
        self.l1 = TLBLevel("L1-TLB", config.l1_entries, config.l1_assoc)
        self.l2 = TLBLevel("L2-TLB", config.l2_entries, config.l2_assoc)
        self.l2_latency = config.l2_latency
        self.walk_levels = config.walk_levels
        self.walk_latency = config.walk_latency
        self.walks = 0
        self.walk_cycles = 0
        self.dropped_prefetches = 0

    # -- translation ---------------------------------------------------------

    def translate(self, addr: int, cycle: int, hierarchy: "MemoryHierarchy") -> int:
        """Cycle at which the translation is known; walks on a full miss."""
        page = int(addr) // self.page_bytes
        fill = self.l1.probe(page)
        if fill is not None:
            return cycle if fill <= cycle else fill
        t = cycle + self.l2_latency
        fill = self.l2.probe(page)
        if fill is not None:
            ready = t if fill <= t else fill
            self.l1.fill(page, ready)
            return ready
        ready = self._walk(page, t, hierarchy)
        self.l2.fill(page, ready)
        self.l1.fill(page, ready)
        return ready

    def translate_speculative(
        self, addr: int, cycle: int, allow_walk: bool, hierarchy: "MemoryHierarchy"
    ) -> Optional[int]:
        """Translation for a speculative access; ``None`` means drop it.

        Identical to :meth:`translate` except at the full miss, where
        ``allow_walk=False`` (policy ``"drop"``) discards the access
        instead of walking — the conservation law ``walks = L2-TLB
        misses − dropped`` holds by construction.
        """
        page = int(addr) // self.page_bytes
        fill = self.l1.probe(page)
        if fill is not None:
            return cycle if fill <= cycle else fill
        t = cycle + self.l2_latency
        fill = self.l2.probe(page)
        if fill is not None:
            ready = t if fill <= t else fill
            self.l1.fill(page, ready)
            return ready
        if not allow_walk:
            self.dropped_prefetches += 1
            return None
        ready = self._walk(page, t, hierarchy)
        self.l2.fill(page, ready)
        self.l1.fill(page, ready)
        return ready

    # -- the walker ----------------------------------------------------------

    def _pte_addr(self, page: int, depth: int) -> int:
        """Synthetic PTE address for one radix level.

        Upper levels index by progressively fewer VPN bits, so they are
        shared by 512x more pages per step up — which is exactly the
        spatial locality that makes real upper-level walk loads cache
        hits. The leaf level packs 8 PTEs per 64B line.
        """
        index = page >> (_RADIX_BITS * (self.walk_levels - 1 - depth))
        return _PT_BASE + (depth << 36) + index * 8

    def _walk(self, page: int, cycle: int, hierarchy: "MemoryHierarchy") -> int:
        """Timed radix walk: one dependent cached load per level.

        The walker is a memory client like any other: each level's load
        waits for MSHR capacity before a fresh miss, then goes through
        the full hierarchy access path under source ``"ptw"``.
        """
        self.walks += 1
        mshrs = hierarchy.mshrs
        t = cycle
        for depth in range(self.walk_levels):
            pte = self._pte_addr(page, depth)
            if hierarchy.load_needs_mshr(pte, t) and not mshrs.available(t):
                wait = mshrs.next_free(t)
                if wait > t:
                    t = wait
            result = hierarchy.access(pte, t, source=SOURCE_PTW, translated=True)
            t = result.ready + self.walk_latency
        self.walk_cycles += t - cycle
        return t

    # -- reporting -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The ``mem.tlb.*`` counter book (live totals)."""
        return {
            "mem.tlb.l1.lookups": self.l1.lookups,
            "mem.tlb.l1.hits": self.l1.hits,
            "mem.tlb.l1.misses": self.l1.misses,
            "mem.tlb.l2.lookups": self.l2.lookups,
            "mem.tlb.l2.hits": self.l2.hits,
            "mem.tlb.l2.misses": self.l2.misses,
            "mem.tlb.walks": self.walks,
            "mem.tlb.walk_cycles": self.walk_cycles,
            "mem.tlb.dropped_prefetches": self.dropped_prefetches,
        }
