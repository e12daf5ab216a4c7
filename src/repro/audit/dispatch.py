"""The dispatch layers' counter laws: batch, campaign fabric and serve.

Each law reads one counter snapshot (the ``batch.*``, ``fabric.*`` or
``serve.*`` family) and returns a :class:`~repro.audit.report.CheckResult`.
They live apart from the per-run checks in :mod:`repro.audit.checks`,
which inspect a finished core, so a campaign or a server can check its
books without importing the simulator; ``repro.audit.checks`` and
``repro.audit`` re-export them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .report import CheckResult


# -- cross-run batch counter conservation ------------------------------------

def check_batch_counters(snapshot: Dict[str, int], serial: bool = False) -> CheckResult:
    """Batch bookkeeping: every dispatched simulation is accounted for.

    ``serial`` asserts the strict law (no worker processes hiding their
    counters): completions equal dispatches, and when the snapshot comes
    from a batch run every spec is a cache hit, a dedup reuse, a
    completed simulation, or a recorded failure.
    """
    get = snapshot.get
    violations: List[str] = []
    runs = get("batch.sim.runs", 0)
    completions = get("batch.sim.completions", 0)
    if completions > runs:
        violations.append(
            f"batch.sim.completions={completions} exceeds batch.sim.runs={runs}"
        )
    if serial:
        if runs != completions:
            violations.append(
                f"{runs} simulations dispatched but only {completions} completed"
            )
        specs = get("batch.specs", 0)
        if specs:
            accounted = (
                get("batch.cache.hits", 0)
                + get("batch.dedup.reused", 0)
                + completions
                + get("batch.failures", 0)
            )
            if accounted != specs:
                violations.append(
                    f"{specs} specs in, {accounted} accounted for "
                    "(hits + dedup + completions + failures)"
                )
    return CheckResult(name="batch.conservation", violations=violations)


# -- distributed fabric counter conservation ---------------------------------

def check_fabric_counters(
    snapshot: Dict[str, int],
    worker_completions: Optional[Dict[str, int]] = None,
) -> CheckResult:
    """Campaign bookkeeping: the distributed books balance.

    Three laws over one campaign's ``fabric.*`` family (evaluated at
    campaign completion, so no spec is still pending):

    1. **Work conservation** — ``batch.sim.completions`` summed across
       workers equals campaign completions minus cache hits: every
       simulation a worker burned CPU on either became the campaign's
       accepted result for its spec (``fabric.completed``) or arrived
       after a lease-death requeue already resolved the spec
       (``fabric.ignored.ok``); cache hits, by construction, burned no
       worker CPU at all.
    2. **Lease conservation** — every granted lease ends exactly once:
       accepted (completed/failed), ignored-late, requeued, cancelled,
       retry-exhausted (``fabric.lost`` — the spec's final lease died
       with no retry budget left), or still outstanding at snapshot
       time (``fabric.leased``). A late result (``fabric.late``) is an
       *extra* arrival: its lease's ending was already counted when the
       lease expired and was requeued, so late arrivals join
       ``fabric.dispatched`` on the left-hand side.
    3. **Spec accounting** — every input spec resolves exactly once:
       simulated (completed/failed/lost), served from cache
       (cache hits / resumed), run coordinator-locally, deduplicated,
       or rejected at parse time.
    """
    get = snapshot.get
    violations: List[str] = []
    completed = get("fabric.completed", 0)
    failed = get("fabric.failed", 0)
    ignored_ok = get("fabric.ignored.ok", 0)
    ignored_fail = get("fabric.ignored.fail", 0)

    if worker_completions is not None:
        simulated = sum(worker_completions.values())
        if simulated != completed + ignored_ok:
            violations.append(
                f"workers report {simulated} completed simulations but the "
                f"campaign accepted fabric.completed={completed} + "
                f"fabric.ignored.ok={ignored_ok}"
            )

    dispatched = get("fabric.dispatched", 0)
    late = get("fabric.late", 0)
    ended = (
        completed
        + failed
        + ignored_ok
        + ignored_fail
        + get("fabric.requeued", 0)
        + get("fabric.cancelled", 0)
        + get("fabric.lost", 0)
        + get("fabric.leased", 0)
    )
    if dispatched + late != ended:
        violations.append(
            f"fabric.dispatched={dispatched} leases + fabric.late={late} "
            f"late arrivals but {ended} lease endings (completed + failed "
            "+ ignored + requeued + cancelled + lost + outstanding)"
        )

    specs = get("fabric.specs", 0)
    resolved = (
        completed
        + failed
        + get("fabric.lost", 0)
        + get("fabric.cache.hits", 0)
        + get("fabric.resumed", 0)
        + get("fabric.local", 0)
        + get("fabric.dedup.reused", 0)
        + get("fabric.parse_failures", 0)
    )
    if specs != resolved:
        violations.append(
            f"{specs} specs in, {resolved} resolved (completed + failed + "
            "lost + cache + resumed + local + dedup + parse failures)"
        )
    return CheckResult(name="fabric.conservation", violations=violations)


# -- serve counter conservation -----------------------------------------------

def check_serve_counters(snapshot: Dict[str, int]) -> CheckResult:
    """Request conservation for the ``repro serve`` front door.

    Every admitted request is classified exactly once — served from the
    result cache (``serve.cache_hits``), coalesced onto an already
    in-flight simulation (``serve.coalesced``), or a miss that starts a
    new one (``serve.misses``) — so at every snapshot::

        serve.requests == serve.cache_hits + serve.coalesced + serve.misses

    The classification happens atomically with admission (no await
    between the increments in the single-threaded event loop), so the
    law holds at *any* instant, not just at quiescence. Failures are a
    property of how a miss ended, not a fourth class, so
    ``serve.failures`` never appears in the law.
    """
    get = snapshot.get
    violations: List[str] = []
    requests = get("serve.requests", 0)
    classified = (
        get("serve.cache_hits", 0)
        + get("serve.coalesced", 0)
        + get("serve.misses", 0)
    )
    if requests != classified:
        violations.append(
            f"serve.requests={requests} admitted but {classified} "
            "classified (cache_hits + coalesced + misses)"
        )
    inflight = get("serve.inflight", 0)
    if inflight < 0:
        violations.append(f"serve.inflight={inflight} is negative")
    return CheckResult(name="serve.request-conservation", violations=violations)
