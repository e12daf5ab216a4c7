"""Invariant sanitizer for the simulation model (``repro.audit``).

The figures are derived from counters; a counter that lies corrupts a
figure silently. This package makes every run prove its books balance:

* :func:`~repro.audit.checks.run_checks` evaluates the registered
  conservation laws (``repro/audit/checks.py``) against end-of-run
  state — counter identities, MSHR file laws, cache inclusion, CPI
  accounting, and timing-vs-functional architectural equivalence.
* ``run_simulation(spec, audit=True)`` runs them inline and raises
  :class:`~repro.errors.AuditError` on the first broken law.
* ``repro audit`` sweeps a spec matrix and emits a ``repro.audit/1``
  JSON report (see ``docs/audit.md``).
* :mod:`~repro.audit.dispatch` holds the batch, campaign and serve
  counter laws, which import no model code.

The public names resolve from their modules on first access (see
``repro._lazy_exports``), so a campaign that checks its books loads
:mod:`~repro.audit.dispatch` alone, not the per-run checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from .. import _lazy_exports
from ..errors import AuditError

if TYPE_CHECKING:
    from .report import AuditReport, RunAudit

_EXPORTS = {
    ".checks": ("CHECKS", "AuditContext", "register_check", "run_checks"),
    ".dispatch": ("check_batch_counters", "check_fabric_counters", "check_serve_counters"),
    ".report": (
        "AUDIT_SCHEMA", "AuditReport", "CheckResult", "RunAudit", "format_report", "write_report",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())

__all__ = [
    "AUDIT_SCHEMA",
    "AuditContext",
    "AuditError",
    "AuditReport",
    "CHECKS",
    "CheckResult",
    "RunAudit",
    "audit_specs",
    "audit_timing_run",
    "check_batch_counters",
    "check_fabric_counters",
    "check_serve_counters",
    "format_report",
    "register_check",
    "run_checks",
    "write_report",
]


def audit_timing_run(
    core,
    result,
    rebuild: Optional[Callable] = None,
    label: str = "",
    names: Optional[List[str]] = None,
) -> RunAudit:
    """Audit one finished timing run (any core exposing ``hierarchy``)."""
    from .checks import AuditContext, run_checks

    ctx = AuditContext(core=core, result=result, rebuild=rebuild)
    if not label:
        label = f"{result.workload}/{result.technique}"
    return run_checks(ctx, names=names, label=label)


def audit_specs(
    specs: Sequence,
    progress: Optional[Callable[[str], None]] = None,
) -> AuditReport:
    """Audit a spec matrix serially; returns the full ``repro.audit/1`` report.

    Runs each spec through ``run_simulation(spec, audit=True)``,
    collecting the structured per-check record whether or not the run's
    laws held, then closes with the cross-run batch-counter
    conservation check (dispatched == completed over the whole sweep).
    """
    from ..experiments.cache import BATCH_COUNTERS, reset_batch_counters
    from ..experiments.runner import run_simulation
    from ..experiments.spec import parse_spec_entry
    from .dispatch import check_batch_counters
    from .report import AuditReport, CheckResult, RunAudit

    reset_batch_counters()
    report = AuditReport()
    for raw in specs:
        spec, runtime = parse_spec_entry(raw)
        runtime.pop("audit", None)
        label = f"{spec.workload}/{spec.technique}"
        if progress is not None:
            progress(label)
        try:
            result = run_simulation(spec, audit=True, **runtime)
        except AuditError as exc:
            record: Union[RunAudit, None] = exc.record
            if record is None:
                record = RunAudit(label=label, error=str(exc))
            report.runs.append(record)
            continue
        except Exception as exc:  # noqa: BLE001 — isolate, keep sweeping
            report.runs.append(
                RunAudit(label=label, error=f"{type(exc).__name__}: {exc}")
            )
            continue
        record = RunAudit(label=label)
        if result.audit is not None:
            record = RunAudit(
                label=label,
                checks=[
                    CheckResult(
                        name=c["name"],
                        violations=list(c.get("violations", ())),
                        skipped=bool(c.get("skipped", False)),
                    )
                    for c in result.audit.get("checks", ())
                ],
            )
        report.runs.append(record)
    report.batch = check_batch_counters(BATCH_COUNTERS.snapshot(), serial=True)
    return report
