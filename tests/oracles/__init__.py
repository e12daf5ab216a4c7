"""Reference implementations the product kernels are tested against.

No product path runs any of these; each is the slow, trusted version of
a fast path in ``src/``:

* ``ooo_reference.run_reference`` — the loop ``OoOCore.run`` was
  restructured from.
* ``cycle.CycleCore`` — the literal per-cycle baseline core that
  cross-validates the mechanistic model.
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
