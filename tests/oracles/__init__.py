"""Reference implementations the product kernels are tested against.

No product path runs any of these; each is the slow, trusted version of
a fast path in ``src/``. The oracles execute the architectural stream
with ``FunctionalCore.step_reference``, the executable specification,
not with the product's pre-decoded ``fill``:

* ``ooo_reference.run_reference`` — the loop ``OoOCore.run`` was
  restructured from.
* ``cycle.CycleCore`` — the literal per-cycle baseline core that
  cross-validates the mechanistic model.
* :func:`issue_stride_prefetches` — the live L1 stride prefetcher,
  trained and issuing per demand load, that both of those drive (the
  product kernel reads its training as a front-end column).
* ``vector_reference.ReferenceVectorChainRun`` — the flat-gather vector
  executor the slice engine was rebuilt from.
* ``graphs`` — the per-edge BFS, RMAT bit loop and int64-argsort CSR
  builder the graph set-up was vectorised from.
* ``tage_reference.ReferenceTagePredictor`` — the TAGE-lite predictor
  that recomputed every history fold per branch, before the product
  kept folded-history registers.
"""

from __future__ import annotations

#: Counter family only the product OoO kernel publishes.
SCHED_PREFIX = "core.sched."


def assert_same_run(ref, new):
    """``new`` reproduces ``ref`` bit for bit outside ``core.sched.*``.

    Compares cycles, instructions, trace digests and every other counter;
    returns ``new``'s ``core.sched.*`` book.
    """
    assert new.cycles == ref.cycles
    assert new.instructions == ref.instructions
    assert new.trace_digest == ref.trace_digest
    assert new.trace_events == ref.trace_events
    plain = {}
    sched = {}
    for key, value in new.counters.items():
        (sched if key.startswith(SCHED_PREFIX) else plain)[key] = value
    assert plain == {
        k: v for k, v in ref.counters.items() if not k.startswith(SCHED_PREFIX)
    }
    return sched


def issue_stride_prefetches(table, pc, addr, cycle, hierarchy, degree):
    """One demand load through a live L1 stride prefetcher.

    Trains ``table`` (a :class:`~repro.prefetch.stride.StridePrefetcher`)
    on the load of ``pc`` at ``addr``; once its stream is confident,
    prefetches up to ``degree`` lines ahead while an MSHR is free at
    ``cycle`` — the calls, in order, that ``OoOCore.run`` makes from the
    front-end column. Returns the number of prefetches issued.
    """
    stride = table.observe(pc, addr)
    issued = 0
    if stride:
        target = addr
        for _ in range(degree):
            target += stride
            if target < 0 or not hierarchy.mshr_available(cycle):
                break
            # With an MSHR free at ``cycle`` this is exactly
            # access(target, cycle, source="prefetcher", prefetch=True);
            # under a TLB it translates the speculative request (and may
            # drop it at an L2-TLB miss per runahead.tlb_policy).
            hierarchy.prefetch_ready(target, cycle, "prefetcher")
            issued += 1
    return issued
