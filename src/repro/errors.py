"""Exception hierarchy for the repro package.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch one type at the API boundary.
:func:`check_writable` raises one for an output path before a command
starts its work.
"""

from __future__ import annotations

import os


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class AssemblyError(ReproError):
    """A program could not be assembled (bad register, unknown label...)."""


class MemoryError_(ReproError):
    """An access touched an address outside every allocated segment."""


class SegmentOverlapError(MemoryError_):
    """A new segment would overlap an existing allocation."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class ConfigError(ReproError):
    """A configuration value is out of its legal range."""


class WorkloadError(ReproError):
    """A workload could not be constructed from the given parameters."""


class AuditError(ReproError):
    """A model invariant was violated (see ``repro.audit``).

    Carries the structured per-check record so callers (the CLI report,
    the batch runner) can surface which law broke without re-parsing the
    message.
    """

    def __init__(self, message: str, record=None) -> None:
        super().__init__(message)
        self.record = record


def check_writable(path: str, what: str) -> None:
    """Raise :class:`ReproError` if the ``what`` file ``path`` cannot be
    created, so a command can refuse it before doing any work."""
    if os.path.isdir(path):
        raise ReproError(f"cannot write {what} {path!r}: it is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory) or not os.access(directory, os.W_OK):
        raise ReproError(
            f"cannot write {what} {path!r}: {directory!r} is not a writable directory"
        )
