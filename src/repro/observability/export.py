"""Stats export: ``repro run --stats-out stats.json`` and its schema.

The exported document is the registry snapshot plus run identity and a
few derived headline metrics, under a versioned schema id. The schema
is enforced in both directions:

* :func:`stats_payload` builds the document from a
  :class:`~repro.result.SimulationResult`;
* :func:`validate_stats` checks an arbitrary parsed document against
  the same rules (required keys, types, counter-name pattern,
  non-negative counters, IPC consistency) and raises
  :class:`~repro.errors.ReproError` on any violation — this is what CI's
  smoke job and the round-trip tests call.

The full field list is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Union

from ..errors import ReproError
from .counters import NAME_PATTERN

#: Version tag written into (and required of) every stats document.
STATS_SCHEMA = "repro.stats/1"

#: Required top-level fields and their accepted types.
_REQUIRED_FIELDS = {
    "schema": str,
    "workload": str,
    "technique": str,
    "instructions": int,
    "cycles": int,
    "ipc": (int, float),
    "counters": dict,
    "cpi_stack": dict,
    "trace": dict,
}

_TRACE_FIELDS = {
    "enabled": bool,
    "digest": (str, type(None)),
    "events": int,
}


def stats_payload(result) -> Dict:
    """Build the schema-conformant stats document for one run."""
    return {
        "schema": STATS_SCHEMA,
        "workload": result.workload,
        "technique": result.technique,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "counters": dict(result.counters),
        "cpi_stack": result.cpi_stack(),
        "trace": {
            "enabled": result.trace_digest is not None,
            "digest": result.trace_digest,
            "events": result.trace_events,
        },
    }


def write_stats(result, path: str) -> Dict:
    """Validate and write the stats document; returns the payload."""
    payload = stats_payload(result)
    validate_stats(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def validate_stats(payload: Union[Dict, str]) -> Dict:
    """Check a stats document against the ``repro.stats/1`` schema.

    Accepts a parsed dict or a JSON string; returns the parsed dict on
    success and raises :class:`ReproError` describing the first
    violation otherwise.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ReproError(f"stats document is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ReproError(f"stats document must be an object, got {type(payload).__name__}")

    for key, types in _REQUIRED_FIELDS.items():
        if key not in payload:
            raise ReproError(f"stats document missing required field {key!r}")
        value = payload[key]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ReproError(
                f"stats field {key!r} has wrong type {type(value).__name__}"
            )
    if payload["schema"] != STATS_SCHEMA:
        raise ReproError(
            f"unsupported stats schema {payload['schema']!r} "
            f"(expected {STATS_SCHEMA!r})"
        )
    if payload["instructions"] < 0 or payload["cycles"] <= 0:
        raise ReproError("stats document has non-positive cycles or negative instructions")

    for name, value in payload["counters"].items():
        if not isinstance(name, str) or not NAME_PATTERN.match(name):
            raise ReproError(f"invalid counter name in stats document: {name!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ReproError(f"counter {name!r} has non-numeric value {value!r}")
        if value < 0:
            raise ReproError(f"counter {name!r} is negative ({value})")

    for bucket, value in payload["cpi_stack"].items():
        if not isinstance(value, (int, float)) or value < 0:
            raise ReproError(f"cpi_stack bucket {bucket!r} invalid: {value!r}")

    trace = payload["trace"]
    for key, types in _TRACE_FIELDS.items():
        if key not in trace:
            raise ReproError(f"stats trace block missing field {key!r}")
        if key != "enabled" and isinstance(trace[key], bool):
            raise ReproError(f"stats trace field {key!r} has wrong type bool")
        if not isinstance(trace[key], types):
            raise ReproError(
                f"stats trace field {key!r} has wrong type {type(trace[key]).__name__}"
            )
    if trace["events"] < 0:
        raise ReproError("stats trace event count is negative")
    if trace["enabled"] and not trace["digest"]:
        raise ReproError("trace enabled but no digest recorded")

    if payload["instructions"] and payload["cycles"]:
        expected = payload["instructions"] / payload["cycles"]
        if not math.isclose(payload["ipc"], expected, rel_tol=1e-9, abs_tol=1e-12):
            raise ReproError(
                f"ipc {payload['ipc']} inconsistent with "
                f"instructions/cycles = {expected}"
            )
    return payload
