"""Continuous Runahead (Hashemi, Mutlu, Patt — MICRO 2016).

A related-work baseline the paper discusses (Section 7.2): a tiny
in-order engine at the last-level cache controller is handed the
dependence chain that leads to the core's delinquent load, and runs it
*continuously* — decoupled from any stall — prefetching into the LLC.

Faithfully inherited characteristics:

* it is decoupled (like DVR) but **scalar** — one chain iteration at a
  time, so each level of dependent misses is a serial round trip;
* it prefetches into the **LLC**, not the L1-D, so even a perfect chain
  leaves an L3 hit latency for the main thread (the paper's point that
  "due to a lack of vectorization and instruction reordering, they
  cannot deliver high coverage and performance like DVR");
* chains leading through *independent* (stride-computable) addresses
  work well; long dependent chains limit its lookahead.

The chain is re-targeted whenever a new delinquent load dominates the
core's backend stalls, mirroring the MICRO 2016 chain-selection logic.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..prefetch.base import Technique
from .interpreter import SpeculativeInterpreter
from .shadow import ShadowState

# How many instructions the engine may execute per elapsed core cycle
# (the paper's engine is a 2-wide in-order core at the LLC).
_ENGINE_IPC = 2.0
# Re-seed the engine from architectural state when it drifts this far
# ahead of the main thread (its runahead distance control).
_MAX_LOOKAHEAD_INSTRUCTIONS = 2048
# Local LLC array access latency as seen by the engine itself.
_ENGINE_L3_LATENCY = 5


class ContinuousRunahead(Technique):
    name = "continuous"

    def __init__(self) -> None:
        super().__init__()
        self.shadow = ShadowState()
        self._interp: Optional[SpeculativeInterpreter] = None
        self._engine_budget = 0.0
        self._last_cycle = 0
        self._executed_since_seed = 0
        # Delinquent-load vote table: pc -> backend-stall blame count.
        self._delinquent: Dict[int, int] = {}
        self._chain_pcs = frozenset()
        self._target_pc: Optional[int] = None
        self.prefetches = 0
        self.reseeds = 0
        self.chain_switches = 0

    # -- chain selection ---------------------------------------------------------

    def on_full_rob_stall(self, start: int, end: int, head_pc: int) -> None:
        if not self.decoded.instrs[head_pc].is_load:
            return
        self._delinquent[head_pc] = self._delinquent.get(head_pc, 0) + 1
        best = max(self._delinquent, key=self._delinquent.get)
        if best != self._target_pc:
            self._target_pc = best
            self.chain_switches += 1
            self._chain_pcs = self._chain_for(best)
            self._interp = None  # re-seed on next tick

    def _chain_for(self, load_pc: int) -> frozenset:
        """Static backward slice of the delinquent load, plus control."""
        program = self.program
        relevant = set()
        if program[load_pc].rs1 is not None:
            relevant.add(program[load_pc].rs1)
        changed = True
        while changed:
            changed = False
            for instr in program:
                if instr.rd is not None and instr.rd in relevant:
                    for src in instr.sources():
                        if src not in relevant:
                            relevant.add(src)
                            changed = True
        pcs = set()
        for pc, instr in enumerate(program):
            if instr.is_branch or instr.is_compare or pc == load_pc:
                pcs.add(pc)
            elif instr.rd is not None and instr.rd in relevant:
                pcs.add(pc)
            elif instr.is_load and instr.rd in relevant:
                pcs.add(pc)
        return frozenset(pcs)

    # -- continuous execution -------------------------------------------------------

    def on_commit(self, pc, value, addr, next_pc, cycle, complete) -> None:
        self.shadow.update(self.decoded.rd[pc], value, next_pc, cycle, complete)

    def advance_to(self, cycle: int) -> None:
        if self.hierarchy is None or self._target_pc is None:
            self._last_cycle = cycle
            return
        elapsed = max(0, cycle - self._last_cycle)
        self._last_cycle = max(self._last_cycle, cycle)
        self._engine_budget = min(4096.0, self._engine_budget + elapsed * _ENGINE_IPC)
        if self._engine_budget < 1.0:
            return
        if self._interp is None:
            self._seed(cycle)
            if self._interp is None:
                return
        hierarchy = self.hierarchy
        memory = self.memory_image

        def load_cb(pc: int, addr: int):
            value, mapped = memory.read_word_speculative(addr)
            if not mapped:
                return 0, False
            result = hierarchy.access(
                addr, cycle, source="runahead", prefetch=True, fill_to="l3"
            )
            self.prefetches += 1
            # The engine is scalar and in-order: *using* a load's value
            # (to compute a dependent address) costs it the full service
            # latency — the paper's point about continuous runahead being
            # unable to cover dependent misses at rate. The delinquent
            # load itself is the end of the chain: its value is not
            # consumed, so the engine fires it and moves on.
            if pc != self._target_pc:
                wait = self._dependent_wait(result.level, result.ready - cycle)
                if wait > 0:
                    self._engine_budget -= wait * _ENGINE_IPC
            return value, True

        while self._engine_budget >= 1.0:
            pc = self._interp.pc
            if pc in self._chain_pcs:
                step = self._interp.step(load_cb)
                self._engine_budget -= 1.0
            else:
                # Non-chain instructions are skipped by the filtered
                # engine (they were never handed to it).
                step = self._interp.step(None)
            if step is None:
                self._interp = None
                break
            self._executed_since_seed += 1
            if self._executed_since_seed > _MAX_LOOKAHEAD_INSTRUCTIONS:
                self._interp = None  # distance control: re-sync
                break

    def _dependent_wait(self, level: str, full_wait: int) -> int:
        """Engine cycles burned to *use* a load's value.

        The engine sits at the LLC controller: an L3 hit costs it only
        the local array access, not the core-to-L3 round trip; misses
        cost the full DRAM latency. EMC overrides this (it sits at the
        memory controller itself).
        """
        if level == "L3":
            return _ENGINE_L3_LATENCY
        return full_wait

    def _seed(self, cycle: int) -> None:
        self.reseeds += 1
        self._executed_since_seed = 0
        self._interp = SpeculativeInterpreter(
            self.program,
            self.memory_image,
            self.shadow.next_pc,
            self.shadow.snapshot_values(),
        )

    def finalize(self, cycle: int) -> None:
        self.advance_to(cycle)

    def stats(self) -> Dict[str, float]:
        return {
            "cr_prefetches": float(self.prefetches),
            "cr_reseeds": float(self.reseeds),
            "cr_chain_switches": float(self.chain_switches),
        }
