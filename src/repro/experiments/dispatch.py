"""The dispatch core every front end shares, without the simulator.

:class:`SpecSet` (parsing, keying and dedup of one spec list, and the
:func:`cacheable` rule) and :class:`BatchFailure` (one slot's structured
error) are what ``run_batch``, the campaign coordinator and ``repro
serve`` have in common. Nothing here imports a model module, so a
campaign that resumes from its ledger and cache, or ``repro campaign
status``, never loads numpy or the timing core;
:mod:`repro.experiments.batch` re-exports these names and adds the
process pool that runs specs.
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..result import SimulationResult
from .cache import ResultCache, canonical_spec
from .spec import RunSpec, entries_digest, parse_spec_entry

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


def cacheable(runtime: Dict) -> bool:
    """The one cache rule every front end applies.

    An audited run must execute (its laws are checked against a live
    run, never a stored payload) and a run feeding the caller's live
    ``Observability`` facade must populate it, so neither reads nor
    writes the result cache.
    """
    return runtime.get("observability") is None and not runtime.get("audit")


def _slot_failure(raw: object, error: Exception) -> BatchFailure:
    """The failure record of a slot whose entry raised ``error`` while
    parsing or keying (called in the ``except`` block, for the traceback)."""
    record = raw.to_payload() if isinstance(raw, RunSpec) else raw
    return BatchFailure(
        spec=canonical_spec(dict(record)) if isinstance(record, dict) else {},
        error_type=type(error).__name__,
        message=str(error),
        traceback=traceback_module.format_exc(),
    )


class SpecSet:
    """One spec list resolved once, for every front end that dispatches it.

    Each entry is parsed and keyed (a malformed one, or one whose config
    does not resolve, becomes a :class:`BatchFailure` in its own slot)
    and deduped by content address, so identical specs simulate once.
    :meth:`digest` is the list's campaign digest, from the same parse.
    :meth:`resolve_cached` answers cacheable specs from ``cache``,
    :meth:`run_local` runs facade specs in this process (a live facade
    cannot cross a process boundary), :meth:`resolve` records every
    other outcome and stores cacheable successes, and :meth:`results`
    reassembles the outcomes in spec order. :func:`run_batch` dispatches
    :meth:`pending` to a :class:`WorkerPool`, the campaign coordinator
    to its TCP workers.
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
        #: Per input slot: its parsed spec, or the raw entry that did not
        #: parse (what :meth:`digest` hashes).
        self.entries: List[object] = []
        #: One item per distinct spec, in input order.
        self.items: Dict[str, BatchItem] = {}
        self.outcomes: Dict[str, BatchOutcome] = {}
        for index, raw in enumerate(specs):
            try:
                spec, runtime = parse_spec_entry(raw)
            except Exception as exc:  # noqa: BLE001 — the isolation boundary
                self.entries.append(raw)
                self.slots.append(_slot_failure(raw, exc))
                continue
            self.entries.append(spec)
            try:
                # Facade specs are never deduped: each caller's facade
                # must be populated by its own run.
                if runtime.get("observability") is None:
                    key = spec.key()
                else:
                    key = f"uncacheable-{index}"
            except Exception as exc:  # noqa: BLE001 — the isolation boundary
                self.slots.append(_slot_failure(raw, exc))
                continue
            if audit:
                runtime = dict(runtime, audit=True)
            self.items.setdefault(key, (spec, runtime))
            self.slots.append(key)
        self.parse_failures = sum(isinstance(s, BatchFailure) for s in self.slots)
        #: Parsed slots that repeat an earlier spec and share its outcome.
        self.reused = len(self.slots) - self.parse_failures - len(self.items)

    def digest(self) -> str:
        """:func:`~repro.experiments.spec.specs_digest` of the input list."""
        return entries_digest(self.entries)

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
        """Run every pending facade spec in this process; their keys.

        The simulator is imported only when there is such a spec.
        """
        local = [
            key for key, (_spec, runtime) in self.pending()
            if runtime.get("observability") is not None
        ]
        if local:
            from .batch import _execute_spec

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
