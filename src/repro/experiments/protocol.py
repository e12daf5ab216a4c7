"""Wire protocol of the distributed sweep fabric (``repro.fabric/1``).

Coordinator and workers speak length-prefixed JSON over a stream
socket: each frame is a 4-byte big-endian length followed by that many
bytes of UTF-8 JSON holding one message object. JSON because every
payload in the system is already a versioned JSON document
(``repro.spec/1`` in, ``repro.batch-result/1`` out); length-prefixed
because message boundaries must survive TCP's stream semantics without
a delimiter scan.

Message flow (worker-initiated, pull-based)::

    worker → {"type": "hello", "worker": id}
    coord  → {"type": "welcome", "lease_timeout": s, "heartbeat": s}
    worker → {"type": "pull"}
    coord  → {"type": "spec", "lease": n, "spec": <repro.spec/1>, ...}
             | {"type": "wait", "seconds": s}   (queue empty, not done)
             | {"type": "done"}                 (campaign complete)
    worker → {"type": "heartbeat", "lease": n}  (one-way, no reply)
    worker → {"type": "result", "lease": n,
              "outcome": <repro.batch-result/1>, "sim_completions": k}
    coord  → {"type": "ok"}

``sim_completions`` is the worker's running ``batch.sim.completions``
total (the simulations *it* burned CPU on), which the coordinator sums
into the distributed conservation law checked by
:func:`repro.audit.dispatch.check_fabric_counters`.

The outcome document (``repro.batch-result/1``) serializes one
:data:`~repro.experiments.dispatch.BatchOutcome` — the full
:class:`~repro.result.SimulationResult` field set (bit-identical
round-trip, same payload the result cache stores) or a
:class:`~repro.experiments.dispatch.BatchFailure` record.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, Optional, Union

from ..errors import ReproError
from ..result import SimulationResult
from .cache import result_from_payload, result_to_payload
from .dispatch import BatchFailure

#: Version tag of the fabric message protocol; bump on layout changes.
FABRIC_SCHEMA = "repro.fabric/1"

#: Version tag of one serialized batch outcome (result or failure).
RESULT_SCHEMA = "repro.batch-result/1"

#: Upper bound on one frame; anything larger is a protocol violation
#: (the largest legitimate payload — a full SimulationResult with its
#: counter snapshot — is a few hundred KiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ReproError):
    """A malformed or oversized fabric frame/message."""


def send_message(sock: socket.socket, message: Dict) -> None:
    """Serialize ``message`` and write one length-prefixed frame."""
    blob = json.dumps(message, separators=(",", ":")).encode()
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(f"fabric frame of {len(blob)} bytes exceeds the cap")
    sock.sendall(_LENGTH.pack(len(blob)) + blob)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on a clean EOF at a boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None  # peer closed between frames
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict]:
    """Read one frame; None when the peer closed the connection."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"fabric frame of {length} bytes exceeds the cap")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    try:
        message = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"fabric frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("fabric message must be an object with a 'type'")
    return message


# -- outcome (de)serialisation ------------------------------------------------


def outcome_to_payload(key: str, outcome) -> Dict:
    """One ``repro.batch-result/1`` document for a batch outcome."""
    if isinstance(outcome, SimulationResult):
        return {
            "schema": RESULT_SCHEMA,
            "key": key,
            "ok": True,
            "result": result_to_payload(outcome),
        }
    return {
        "schema": RESULT_SCHEMA,
        "key": key,
        "ok": False,
        "failure": outcome.to_dict(),
    }


def outcome_from_payload(payload: Dict) -> Union[SimulationResult, BatchFailure]:
    """Reconstruct the outcome a worker shipped (bit-identical results)."""
    if not isinstance(payload, dict) or payload.get("schema") != RESULT_SCHEMA:
        raise ProtocolError(
            f"expected a {RESULT_SCHEMA!r} document, got "
            f"{payload.get('schema') if isinstance(payload, dict) else payload!r}"
        )
    try:
        if payload.get("ok"):
            return result_from_payload(payload["result"])
        return BatchFailure.from_dict(payload["failure"])
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed {RESULT_SCHEMA} document: {exc}") from exc
