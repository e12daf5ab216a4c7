"""Fault-tolerant, cache-accelerated parallel batch execution.

Every run in a figure or sweep is independent (fresh workload, fresh
core), so a batch's wall-clock is trivially divisible across cores.
:func:`run_batch` executes a list of :class:`RunSpec`\\ s (legacy
:func:`run_simulation` keyword dicts are accepted and normalized)::

    specs = [
        RunSpec("camel", technique=t, max_instructions=10_000)
        for t in ("ooo", "vr", "dvr")
    ]
    results = run_batch(specs, jobs=4)

Guarantees, in order of importance:

* **Isolation** — a spec that raises (bad workload name, config error,
  simulator bug) produces a :class:`BatchFailure` carrying the full
  traceback in its slot; the rest of the pool keeps running. Pass
  ``strict=True`` to turn any failure into a :class:`ReproError`.
* **Determinism** — results come back in spec order regardless of
  completion order and are bit-identical to serial execution (workers
  return whole :class:`SimulationResult` objects; nothing is reduced
  in a nondeterministic order).
* **Retry** — a pool worker that dies (an OOM-killed child) fails its
  pool at once; only the unfinished specs re-run on a fresh pool, with
  bounded exponential backoff, and after ``retries`` extra attempts the
  survivors are reported as failures rather than hanging the batch.
* **Dedup** — identical specs are deduplicated (content-addressed,
  same keying as the result cache) so e.g. a repeated ``ooo`` baseline
  simulates once.
* **Caching** — pass ``cache=ResultCache(...)`` to serve clean specs
  from disk and persist fresh results, so a re-run after an edit or a
  crash re-simulates only what changed (``--resume``).

:class:`SpecSet` (resolution, dedup, the :func:`cacheable` rule) and
:class:`WorkerPool` (the local process pool) are the dispatch core that
``run_batch``, the campaign coordinator and ``repro serve`` share.

Progress and health are published into the ``batch.*`` counter family
(:data:`~repro.experiments.cache.BATCH_COUNTERS`).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback as traceback_module
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.ooo import SimulationResult
from ..errors import ReproError
from .cache import BATCH_COUNTERS, ResultCache, canonical_spec
from .runner import run_simulation
from .spec import RunSpec, parse_spec_entry

BatchOutcome = Union[SimulationResult, "BatchFailure"]

#: One normalized batch item: the identity spec plus runtime extras
#: (``observability``/``replay``) that never enter the content address.
BatchItem = Tuple[RunSpec, Dict]


@dataclass
class BatchFailure:
    """Structured record of one spec that could not produce a result."""

    #: JSON-safe copy of the offending spec (configs as nested dicts).
    spec: Dict
    #: Exception class name (``WorkloadError``, ``ConfigError``, ...).
    error_type: str
    #: ``str(exception)``.
    message: str
    #: Full formatted traceback from the worker that ran the spec.
    traceback: str
    #: Pool attempts consumed before giving up (1 = first try failed
    #: deterministically; >1 = transient worker death exhausted retries).
    attempts: int = 1

    def summary(self) -> str:
        workload = self.spec.get("workload", "?")
        technique = self.spec.get("technique", "ooo")
        return f"{workload}/{technique}: {self.error_type}: {self.message}"

    def to_dict(self) -> Dict:
        return {
            "failure": True,
            "spec": self.spec,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "BatchFailure":
        """Rebuild a failure record shipped over the fabric wire."""
        return cls(
            spec=dict(payload.get("spec") or {}),
            error_type=str(payload.get("error_type", "UnknownError")),
            message=str(payload.get("message", "")),
            traceback=str(payload.get("traceback", "")),
            attempts=int(payload.get("attempts", 1)),
        )


def _failure_payload(spec: RunSpec, runtime: Dict) -> Dict:
    """JSON-safe record of the spec slot a failure came from."""
    payload = spec.to_payload()
    if "technique" not in payload:
        payload["technique"] = spec.technique
    if runtime.get("replay") is not None:
        payload["replay"] = runtime["replay"]
    return payload


def _execute_spec(item: BatchItem) -> BatchOutcome:
    """Run one spec, converting any exception into a BatchFailure."""
    spec, runtime = item
    try:
        return run_simulation(spec, **runtime)
    except Exception as exc:  # noqa: BLE001 — the isolation boundary
        return BatchFailure(
            spec=_failure_payload(spec, runtime),
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback_module.format_exc(),
        )


def cacheable(runtime: Dict) -> bool:
    """The one cache rule every front end applies.

    An audited run must execute (its laws are checked against a live
    run, never a stored payload) and a run feeding the caller's live
    ``Observability`` facade must populate it, so neither reads nor
    writes the result cache.
    """
    return runtime.get("observability") is None and not runtime.get("audit")


class SpecSet:
    """One spec list resolved once, for every front end that dispatches it.

    Each entry is parsed (a malformed one becomes a :class:`BatchFailure`
    in its own slot) and deduped by content address, so identical specs
    simulate once. :meth:`resolve_cached` answers cacheable specs from
    ``cache``, :meth:`run_local` runs facade specs in this process (a
    live facade cannot cross a process boundary), :meth:`resolve`
    records every other outcome and stores cacheable successes, and
    :meth:`results` reassembles the outcomes in spec order.
    :func:`run_batch` dispatches :meth:`pending` to a :class:`WorkerPool`,
    the campaign coordinator to its TCP workers.
    """

    def __init__(
        self,
        specs: Sequence[Union[RunSpec, Dict]],
        *,
        cache: Optional[ResultCache] = None,
        audit: bool = False,
    ) -> None:
        self.cache = cache
        #: Per input slot: the key of its distinct spec, or its parse failure.
        self.slots: List[Union[str, BatchFailure]] = []
        #: One item per distinct spec, in input order.
        self.items: Dict[str, BatchItem] = {}
        self.outcomes: Dict[str, BatchOutcome] = {}
        for index, raw in enumerate(specs):
            try:
                spec, runtime = parse_spec_entry(raw)
            except Exception as exc:  # noqa: BLE001 — the isolation boundary
                self.slots.append(BatchFailure(
                    spec=canonical_spec(dict(raw)) if isinstance(raw, dict) else {},
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=traceback_module.format_exc(),
                ))
                continue
            if audit:
                runtime = dict(runtime, audit=True)
            # Facade specs are never deduped: each caller's facade must
            # be populated by its own run.
            if runtime.get("observability") is None:
                key = spec.key()
            else:
                key = f"uncacheable-{index}"
            self.items.setdefault(key, (spec, runtime))
            self.slots.append(key)
        self.parse_failures = sum(isinstance(s, BatchFailure) for s in self.slots)
        #: Parsed slots that repeat an earlier spec and share its outcome.
        self.reused = len(self.slots) - self.parse_failures - len(self.items)

    @property
    def remaining(self) -> int:
        return len(self.items) - len(self.outcomes)

    def pending(self) -> List[Tuple[str, BatchItem]]:
        """Distinct specs still without an outcome, in input order."""
        return [(k, item) for k, item in self.items.items() if k not in self.outcomes]

    def resolve_cached(self) -> List[str]:
        """Resolve every cacheable pending spec the cache holds; their keys."""
        hits = []
        if self.cache is not None:
            for key, (_spec, runtime) in self.pending():
                hit = self.cache.get(key) if cacheable(runtime) else None
                if hit is not None:
                    self.outcomes[key] = hit
                    hits.append(key)
        return hits

    def run_local(self) -> List[str]:
        """Run every pending facade spec in this process; their keys."""
        local = [
            key for key, (_spec, runtime) in self.pending()
            if runtime.get("observability") is not None
        ]
        for key in local:
            self.resolve(key, _execute_spec(self.items[key]))
        return local

    def resolve(self, key: str, outcome: BatchOutcome) -> None:
        """Record ``key``'s outcome; a cacheable success is also stored."""
        self.outcomes[key] = outcome
        if (
            self.cache is not None
            and isinstance(outcome, SimulationResult)
            and cacheable(self.items[key][1])
        ):
            self.cache.put(key, outcome)

    def results(self) -> List[Optional[BatchOutcome]]:
        """One outcome per input slot, in spec order (``None`` = unresolved)."""
        return [
            slot if isinstance(slot, BatchFailure) else self.outcomes.get(slot)
            for slot in self.slots
        ]


# Fork where available: it does not re-import __main__ (so batches work
# from scripts, notebooks and the REPL), and workers inherit what the
# parent memoised before they start (graph inputs, traces).
_POOL_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


class WorkerPool:
    """The local process pool ``run_batch`` and ``repro serve`` share.

    A :class:`~concurrent.futures.ProcessPoolExecutor` running
    :func:`_execute_spec`. A worker that dies (an OOM kill, say) fails
    every pending future with ``BrokenProcessPool`` at once, never a
    hang; the broken executor is dropped and the next :meth:`submit`
    builds a fresh one.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._executor: Optional[ProcessPoolExecutor] = None

    def submit(self, item: BatchItem) -> Future:
        if self._executor is not None:
            try:
                return self._executor.submit(_execute_spec, item)
            except BrokenProcessPool:
                self.close()
        self._executor = ProcessPoolExecutor(self.size, mp_context=_POOL_CONTEXT)
        return self._executor.submit(_execute_spec, item)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None


#: Seconds before the first re-dispatch after a worker death; doubles
#: with every further retry.
RETRY_BACKOFF = 0.25


def _run_pooled(spec_set: SpecSet, jobs: int, retries: int) -> None:
    """Run the pending specs on a :class:`WorkerPool`, retrying worker death.

    Spec-level exceptions never reach this layer (workers catch them
    into BatchFailures); a future that raises means the pool itself
    broke, so only the specs without an outcome yet are re-dispatched,
    at most ``retries`` times, before they become failures.
    """
    remaining = dict(spec_set.pending())
    pool = WorkerPool(min(jobs, len(remaining)))
    attempt = 0
    try:
        while remaining:
            futures = {pool.submit(item): key for key, item in remaining.items()}
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except Exception as exc:  # noqa: BLE001 — pool-level fault domain
                    fault, trace = exc, traceback_module.format_exc()
                    continue
                spec_set.resolve(futures[future], outcome)
                del remaining[futures[future]]
            if not remaining:
                return
            attempt += 1
            if attempt > retries:
                for key, (spec, runtime) in remaining.items():
                    spec_set.resolve(key, BatchFailure(
                        spec=_failure_payload(spec, runtime),
                        error_type=type(fault).__name__,
                        message=f"worker pool failed {attempt} times; giving up: {fault}",
                        traceback=trace,
                        attempts=attempt,
                    ))
                return
            BATCH_COUNTERS.inc("batch.retries")
            time.sleep(RETRY_BACKOFF * 2 ** (attempt - 1))
    finally:
        pool.close()


def _validate_jobs(jobs: Optional[int]) -> None:
    if jobs is not None and (
        isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1
    ):
        raise ReproError(
            f"run_batch jobs must be None or a positive integer, got {jobs!r}"
        )


def run_batch(
    specs: Sequence[Union[RunSpec, Dict]],
    jobs: Optional[int] = None,
    *,
    cache: Optional[ResultCache] = None,
    retries: int = 2,
    strict: bool = False,
    audit: bool = False,
) -> List[BatchOutcome]:
    """Run every spec; ``jobs`` > 1 uses a process pool.

    Each entry is a :class:`RunSpec`, a ``repro.spec/1`` payload dict,
    or a legacy ``run_simulation`` kwargs dict (normalized via
    :func:`~repro.experiments.spec.parse_spec_entry`); a malformed entry
    fills its slot with a :class:`BatchFailure` like any other per-spec
    error.

    ``jobs=None`` or ``jobs=1`` runs serially (no subprocess overhead —
    the right choice for small batches and inside test suites); every
    other guarantee (isolation, dedup, caching, spec-order results) is
    identical between the serial and parallel paths.

    Returns one entry per spec, in spec order: a
    :class:`SimulationResult` on success, a :class:`BatchFailure`
    otherwise. With ``strict=True`` every spec first resolves strictly,
    so a malformed entry, an unknown workload or technique, or a
    contradictory pin raises its own :class:`ReproError` before any
    spec runs; a failure while running raises :class:`ReproError`
    (carrying the worker traceback) instead of returning.

    ``audit=True`` runs every spec under the ``repro.audit`` invariant
    sanitizer: audited specs bypass the result cache (the laws are
    checked against a live run, never a stored payload) and a broken
    invariant surfaces as an ``AuditError`` :class:`BatchFailure`.
    Specs that carry an ``observability`` facade run in this process,
    whatever ``jobs`` is, so the caller's facade is populated.
    """
    _validate_jobs(jobs)
    if strict:
        for entry in specs:
            parse_spec_entry(entry)[0].resolved(strict=True)
    BATCH_COUNTERS.inc("batch.batches")
    BATCH_COUNTERS.inc("batch.specs", len(specs))
    spec_set = SpecSet(specs, cache=cache, audit=audit)
    if spec_set.reused:
        BATCH_COUNTERS.inc("batch.dedup.reused", spec_set.reused)
    spec_set.resolve_cached()

    if spec_set.remaining:
        spec_set.run_local()
        pending = spec_set.pending()
        if jobs is None or jobs <= 1 or len(pending) <= 1:
            for key, item in pending:
                spec_set.resolve(key, _execute_spec(item))
        else:
            _run_pooled(spec_set, jobs, retries)

    results = spec_set.results()
    failures = [r for r in results if isinstance(r, BatchFailure)]
    if failures:
        BATCH_COUNTERS.inc("batch.failures", len(failures))
        if strict:
            first = failures[0]
            raise ReproError(
                f"batch failed: {len(failures)}/{len(specs)} specs; "
                f"first failure — {first.summary()}\n{first.traceback}"
            )
    return results


def successful(results: Iterable[BatchOutcome]) -> List[SimulationResult]:
    """Filter a batch down to its SimulationResults."""
    return [r for r in results if isinstance(r, SimulationResult)]


def batch_failures(results: Iterable[BatchOutcome]) -> List[BatchFailure]:
    """Filter a batch down to its BatchFailures."""
    return [r for r in results if isinstance(r, BatchFailure)]


def run_plan(
    plan: Tuple[Sequence[RunSpec], Callable[[List[SimulationResult]], Any]],
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    audit: bool = False,
) -> Any:
    """Run an experiment plan and reduce its results.

    A plan is ``(specs, reduce)``: the spec list an experiment needs and
    a reducer over the results in spec order (see
    :func:`~repro.experiments.figures.figure_plan`). The specs go through
    one strict :func:`run_batch`, so a bad name, a contradictory pin or a
    failing point raises :class:`ReproError` before anything is reduced.
    """
    specs, reduce = plan
    return reduce(run_batch(specs, jobs=jobs, cache=cache, strict=True, audit=audit))


def speedup_matrix(
    workloads: Sequence[str],
    techniques: Sequence[str],
    instructions: int = 10_000,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, Dict[str, float]]:
    """Convenience: {workload: {technique: speedup-over-ooo}} computed
    with one batch, the rows of :func:`~repro.experiments.sweep.compare_techniques`.

    The baseline spec and an ``"ooo"`` entry in ``techniques`` are the
    same content-addressed spec, so ``ooo`` appearing in the technique
    list costs no second baseline simulation per workload.
    """
    from .sweep import compare_plan

    result = run_plan(
        compare_plan(workloads, techniques, instructions=instructions),
        jobs=jobs,
        cache=cache,
    )
    return {row[0]: dict(zip(techniques, row[1:])) for row in result.rows}
