"""Distributed sweep fabric: pull-based workers over a spec queue.

Paper-scale evaluation is a *campaign* — the full figure matrix ×
workloads × seeds × ablations is thousands of :class:`RunSpec`\\ s —
and one host's process pool (:func:`~repro.experiments.batch.run_batch`)
is the ceiling. This module turns the already-serializable,
order-independent spec pipeline into throughput:

* a **coordinator** owns the campaign: it resolves the spec list with
  ``run_batch``'s :class:`~repro.experiments.dispatch.SpecSet` (dedup,
  cache hits from the sharded
  :class:`~repro.experiments.cache.ResultCache`, one cache rule) and
  queues the rest;
* **workers**, forked from the coordinator's process, pull specs over
  a small length-prefixed JSON socket protocol
  (:mod:`repro.experiments.protocol`, on localhost TCP), simulate, and
  push ``repro.batch-result/1`` documents back — results are
  bit-identical to a serial ``run_batch`` because every simulation is
  a pure function of its spec and the payload round-trips the full
  dataclass field set;
* **leases + heartbeats** make worker death survivable: a pulled spec
  is leased, a worker heartbeats while simulating, and a dropped
  connection or expired lease returns the spec to the queue with a
  bounded per-spec retry budget — ``BatchFailure`` isolation and
  bounded retry generalized from pool death to host death;
* **campaign manifests** (``repro.campaign/1``: the ordered spec list
  plus an append-only completion ledger) make a killed 10k-spec sweep
  resumable from the cache + ledger alone, with zero re-simulation of
  completed work.

Progress and health publish as the ``fabric.*`` counter family (one
registry per campaign), and the distributed conservation law —
``batch.sim.completions`` summed across workers equals campaign
completions minus cache hits — is machine-checked by
:func:`repro.audit.dispatch.check_fabric_counters` at campaign end.

The coordinator, the manifest and the ledger import no model code: a
campaign that resumes with nothing left to run, and ``repro campaign
status``, never load the simulator. :func:`run_campaign` imports it
only when specs are pending, before it forks a worker.

See ``docs/fabric.md`` for the protocol, manifest schema, and failure
model; the CLI surface is ``repro campaign run/status``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import socket
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..audit.dispatch import check_fabric_counters
from ..audit.report import CheckResult
from ..errors import ReproError
from ..observability.counters import CounterRegistry
from ..result import SimulationResult
from .cache import ResultCache, use_cache
from .dispatch import BatchFailure, BatchItem, BatchOutcome, SpecSet, _failure_payload
from .protocol import (
    FABRIC_SCHEMA,
    ProtocolError,
    outcome_from_payload,
    outcome_to_payload,
    recv_message,
    send_message,
)
from .spec import RunSpec, specs_digest

#: Version tag of the campaign manifest document.
CAMPAIGN_SCHEMA = "repro.campaign/1"

#: Every counter the fabric may publish (pre-created before a snapshot
#: so consumers — the CLI stats line, the CI smoke job — can rely on
#: the full family being present).
FABRIC_COUNTER_NAMES = (
    "fabric.specs",
    "fabric.unique",
    "fabric.parse_failures",
    "fabric.dedup.reused",
    "fabric.cache.hits",
    "fabric.resumed",
    "fabric.local",
    "fabric.dispatched",
    "fabric.leased",
    "fabric.completed",
    "fabric.failed",
    "fabric.lost",
    "fabric.requeued",
    "fabric.ignored.ok",
    "fabric.ignored.fail",
    "fabric.cancelled",
    "fabric.late",
    "fabric.heartbeats",
    "fabric.heartbeats.stale",
    "fabric.protocol_errors",
    "fabric.workers",
)

#: Runtime-extras keys that may travel over the wire (JSON-safe ones).
_WIRE_RUNTIME_KEYS = ("replay", "audit")


# -- campaign manifests -------------------------------------------------------


class CampaignManifest:
    """One campaign on disk: the ordered spec list plus its ledger.

    ``<dir>/campaign.json`` is the immutable ``repro.campaign/1``
    document — the ordered spec payloads and an order-sensitive digest
    (:func:`~repro.experiments.spec.specs_digest`) naming the campaign.
    ``<dir>/ledger.jsonl`` is the append-only completion ledger: one
    JSON line per accepted outcome (``{"key", "status", "worker"}``,
    last entry per key wins; a torn final line from a killed
    coordinator is skipped on load). Resume = manifest + ledger + the
    result cache: ledger says *what* completed, the cache holds the
    bit-identical results, so a restarted campaign re-simulates zero
    completed specs.
    """

    MANIFEST_NAME = "campaign.json"
    LEDGER_NAME = "ledger.jsonl"

    def __init__(self, directory: os.PathLike, specs: List[Dict], digest: str):
        self.directory = Path(directory)
        self.specs = specs
        self.digest = digest
        self._ledger_handle = None
        self._lock = threading.Lock()

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: os.PathLike,
        specs: Sequence[Union[RunSpec, Dict]],
        digest: Optional[str] = None,
    ) -> "CampaignManifest":
        """Write a fresh manifest for ``specs`` (raw entries preserved).

        ``digest`` is the list's :func:`~repro.experiments.spec.specs_digest`
        when the caller has it already (a :meth:`SpecSet.digest
        <repro.experiments.dispatch.SpecSet.digest>`).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        entries: List[Dict] = []
        for spec in specs:
            if isinstance(spec, RunSpec):
                entries.append(spec.to_payload())
            elif isinstance(spec, dict):
                entries.append(spec)  # keep raw (even poisoned) slots verbatim
            else:
                raise ReproError(
                    f"campaign specs must be RunSpecs or dicts, got {type(spec).__name__}"
                )
        manifest = cls(directory, entries, digest or specs_digest(specs))
        payload = {
            "schema": CAMPAIGN_SCHEMA,
            "digest": manifest.digest,
            "specs": entries,
        }
        tmp = directory / f".tmp-{cls.MANIFEST_NAME}"
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, directory / cls.MANIFEST_NAME)
        return manifest

    @classmethod
    def load(cls, directory: os.PathLike) -> "CampaignManifest":
        directory = Path(directory)
        path = directory / cls.MANIFEST_NAME
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise ReproError(f"no campaign manifest at {path}")
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read campaign manifest {path}: {exc}")
        if payload.get("schema") != CAMPAIGN_SCHEMA:
            raise ReproError(
                f"unsupported campaign schema {payload.get('schema')!r} "
                f"(expected {CAMPAIGN_SCHEMA!r})"
            )
        specs = payload.get("specs")
        if not isinstance(specs, list):
            raise ReproError(f"campaign manifest {path} is missing its spec list")
        return cls(directory, specs, str(payload.get("digest", "")))

    @classmethod
    def exists(cls, directory: os.PathLike) -> bool:
        return (Path(directory) / cls.MANIFEST_NAME).exists()

    # -- the ledger -----------------------------------------------------------

    @property
    def ledger_path(self) -> Path:
        return self.directory / self.LEDGER_NAME

    def record(self, key: str, status: str, worker: str = "") -> None:
        """Append one completion to the ledger (flushed immediately)."""
        line = json.dumps(
            {"key": key, "status": status, "worker": worker},
            separators=(",", ":"),
        )
        with self._lock:
            if self._ledger_handle is None:
                self._ledger_handle = open(self.ledger_path, "a")
            self._ledger_handle.write(line + "\n")
            self._ledger_handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._ledger_handle is not None:
                self._ledger_handle.close()
                self._ledger_handle = None

    def completed(self) -> Dict[str, str]:
        """key → last recorded status; tolerates a torn final line."""
        statuses: Dict[str, str] = {}
        try:
            text = self.ledger_path.read_text()
        except OSError:
            return statuses
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                statuses[str(entry["key"])] = str(entry["status"])
            except (json.JSONDecodeError, KeyError, TypeError):
                continue  # killed mid-append; the work simply re-runs
        return statuses

    def status(self) -> Dict:
        """Summary for ``repro campaign status``.

        ``ok`` and ``failed`` count the ledger's keys by their last
        status; a slot that does not parse or key is never ledgered and
        counts as failed too. ``remaining`` counts the slots whose key,
        as :class:`~repro.experiments.dispatch.SpecSet` gives it, has no
        ledger line yet, so a repeated spec is done with its first slot.
        """
        statuses = self.completed()
        slots = SpecSet(self.specs).slots
        malformed = sum(isinstance(slot, BatchFailure) for slot in slots)
        return {
            "schema": CAMPAIGN_SCHEMA,
            "directory": str(self.directory),
            "digest": self.digest,
            "specs": len(self.specs),
            "recorded": len(statuses),
            "ok": sum(1 for s in statuses.values() if s == "ok"),
            "failed": sum(1 for s in statuses.values() if s != "ok") + malformed,
            "remaining": sum(
                1 for slot in slots
                if not isinstance(slot, BatchFailure) and slot not in statuses
            ),
        }


# -- the coordinator ----------------------------------------------------------


@dataclass
class _Lease:
    key: str
    item: BatchItem
    worker: str
    deadline: float


class Coordinator:
    """Campaign owner: spec queue, leases, cache, ledger, counters.

    The coordinator is passive with respect to workers — they *pull*
    (so a slow host naturally takes fewer specs and a dead one takes
    none) — and active about leases: every granted spec carries a
    lease that the worker must heartbeat; a dropped connection or an
    expired lease requeues the spec, and a spec whose leases die more
    than ``retries`` times is recorded as a ``WorkerDeath``
    :class:`BatchFailure` instead of looping forever.

    ``specs`` is a spec list, or a :class:`SpecSet` already built from
    one (whose own ``cache`` and ``audit`` then apply).
    """

    def __init__(
        self,
        specs: Union[SpecSet, Sequence[Union[RunSpec, Dict]]],
        *,
        cache: Optional[ResultCache] = None,
        manifest: Optional[CampaignManifest] = None,
        retries: int = 2,
        lease_timeout: float = 30.0,
        poll: float = 0.1,
        host: str = "127.0.0.1",
        port: int = 0,
        audit: bool = False,
        counters: Optional[CounterRegistry] = None,
    ) -> None:
        self.manifest = manifest
        self.retries = retries
        self.lease_timeout = lease_timeout
        self.poll = poll
        self._host = host
        self._port = port
        self.counters = counters if counters is not None else CounterRegistry()
        for name in FABRIC_COUNTER_NAMES:
            self.counters.counter(name)

        self._lock = threading.RLock()
        self._done = threading.Event()
        # Set on completion and by stop(): ends the lease monitor's wait.
        self._halt = threading.Event()
        self._stopping = False
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._lease_seq = itertools.count(1)
        self._leases: Dict[int, _Lease] = {}
        self._attempts: Dict[str, int] = {}
        self._queue: Deque[Tuple[str, BatchItem]] = deque()
        self.worker_completions: Dict[str, int] = {}

        if not isinstance(specs, SpecSet):
            specs = SpecSet(specs, cache=cache, audit=audit)
        self._specs = specs
        inc = self.counters.inc
        inc("fabric.specs", len(specs.slots))
        inc("fabric.unique", len(self._specs.items))
        inc("fabric.parse_failures", self._specs.parse_failures)
        inc("fabric.dedup.reused", self._specs.reused)

        ledgered = manifest.completed() if manifest is not None else {}
        for key in self._specs.run_local():
            inc("fabric.local")
            if manifest is not None and key not in ledgered:
                outcome = self._specs.outcomes[key]
                manifest.record(
                    key, "fail" if isinstance(outcome, BatchFailure) else "ok"
                )
        for key in self._specs.resolve_cached():
            if ledgered.get(key) == "ok":
                inc("fabric.resumed")
            else:
                # A cold cache hit completes the spec just as a worker
                # result would — the ledger must say so, or status/
                # resume would believe it never finished.
                inc("fabric.cache.hits")
                if manifest is not None:
                    manifest.record(key, "ok")
        self._queue.extend(self._specs.pending())
        self._check_done()

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise ReproError("coordinator is not listening")
        return self._server.getsockname()[:2]

    def listen(self) -> "Coordinator":
        """Bind the listening socket. Workers may connect from here on;
        they wait in the backlog until :meth:`start` runs the accept loop,
        so they can be forked in between, before any thread exists."""
        if self._server is None:
            self._server = socket.create_server((self._host, self._port))
        return self

    def start(self) -> "Coordinator":
        """Listen (if not yet) and serve workers: accept loop, lease monitor."""
        self.listen()
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        monitor = threading.Thread(target=self._lease_monitor, daemon=True)
        self._threads += [accept, monitor]
        accept.start()
        monitor.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        self._halt.set()
        with self._lock:
            conns = list(self._conns)
        # Shutting the listening socket down wakes the blocked accept.
        sockets = conns if self._server is None else [self._server] + conns
        for sock in sockets:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()
        for thread in list(self._threads):
            thread.join(timeout=2.0)
        if self.manifest is not None:
            self.manifest.close()

    def wait(self, timeout: Optional[float] = None) -> List[BatchOutcome]:
        """Block until every spec has an outcome; results in spec order."""
        if not self._done.wait(timeout):
            raise ReproError(
                f"campaign timed out after {timeout}s with "
                f"{self.remaining()} specs unresolved"
            )
        return self.results()

    def remaining(self) -> int:
        with self._lock:
            return self._specs.remaining

    def results(self) -> List[BatchOutcome]:
        with self._lock:
            return self._specs.results()

    # -- server loops ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return
            with self._lock:
                self._conns.append(conn)
            thread = threading.Thread(
                target=self._serve_client, args=(conn,), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _lease_monitor(self) -> None:
        interval = max(0.05, min(1.0, self.lease_timeout / 4.0))
        while not self._halt.wait(interval):
            now = time.monotonic()
            with self._lock:
                expired = [
                    lease_id
                    for lease_id, lease in self._leases.items()
                    if lease.deadline < now
                ]
                for lease_id in expired:
                    lease = self._leases.pop(lease_id)
                    self._requeue(lease, "lease expired (no heartbeat)")

    def _serve_client(self, conn: socket.socket) -> None:
        worker_id = f"worker-{uuid.uuid4().hex[:8]}"
        held: set = set()
        # Workers report a running completion total per *session*; a
        # reconnect under the same --worker-id restarts that total, so
        # the coordinator keeps a per-connection baseline and sums the
        # deltas into worker_completions.
        session = {"reported": 0}
        try:
            while True:
                message = recv_message(conn)
                if message is None:
                    break
                kind = message["type"]
                if kind == "hello":
                    worker_id = str(message.get("worker") or worker_id)
                    with self._lock:
                        self.worker_completions.setdefault(worker_id, 0)
                        self.counters.inc("fabric.workers")
                    send_message(conn, {
                        "type": "welcome",
                        "schema": FABRIC_SCHEMA,
                        "lease_timeout": self.lease_timeout,
                        "heartbeat": max(0.05, self.lease_timeout / 3.0),
                    })
                elif kind == "pull":
                    send_message(conn, self._grant(worker_id, held))
                elif kind == "heartbeat":
                    self._heartbeat(message.get("lease"))
                elif kind == "result":
                    self._record(message, worker_id, held, session)
                    send_message(conn, {"type": "ok"})
                elif kind == "goodbye":
                    break
                else:
                    raise ProtocolError(f"unknown fabric message type {kind!r}")
        except (ProtocolError, OSError) as exc:
            # Wire trouble only: a half-closed socket or a client
            # speaking garbage drops this connection and nothing else.
            # Handler bugs propagate to threading.excepthook instead of
            # being swallowed here.
            if isinstance(exc, ProtocolError):
                with self._lock:
                    self.counters.inc("fabric.protocol_errors")
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
                for lease_id in list(held):
                    lease = self._leases.pop(lease_id, None)
                    if lease is not None:
                        self._requeue(lease, f"worker {worker_id} disconnected")

    # -- message handling (all called with no lock held) ----------------------

    def _grant(self, worker_id: str, held: set) -> Dict:
        with self._lock:
            if self._done.is_set():
                return {"type": "done"}
            if not self._queue:
                return {"type": "wait", "seconds": self.poll}
            key, item = self._queue.popleft()
            lease_id = next(self._lease_seq)
            self._leases[lease_id] = _Lease(
                key, item, worker_id, time.monotonic() + self.lease_timeout
            )
            held.add(lease_id)
            self.counters.inc("fabric.dispatched")
            self.counters.set("fabric.leased", len(self._leases))
            spec, runtime = item
            message = {
                "type": "spec",
                "lease": lease_id,
                "key": key,
                "spec": spec.to_payload(),
            }
            wire_runtime = {
                k: runtime[k] for k in _WIRE_RUNTIME_KEYS if runtime.get(k) is not None
            }
            if wire_runtime:
                message["runtime"] = wire_runtime
            return message

    def _heartbeat(self, lease_id) -> None:
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                # Unknown or already-expired lease: the beat extended
                # nothing, so it must not count as a live heartbeat.
                self.counters.inc("fabric.heartbeats.stale")
                return
            self.counters.inc("fabric.heartbeats")
            lease.deadline = time.monotonic() + self.lease_timeout

    def _record(
        self, message: Dict, worker_id: str, held: set, session: Dict[str, int]
    ) -> None:
        outcome = outcome_from_payload(message.get("outcome"))
        lease_id = message.get("lease")
        with self._lock:
            completions = message.get("sim_completions")
            if isinstance(completions, int):
                delta = completions - session["reported"]
                if delta > 0:
                    self.worker_completions[worker_id] = (
                        self.worker_completions.get(worker_id, 0) + delta
                    )
                    session["reported"] = completions
            lease = self._leases.pop(lease_id, None)
            held.discard(lease_id)
            late = lease is None
            if late:
                # The lease already expired (its ending was counted by
                # _requeue), so this arrival is extra on top of
                # fabric.dispatched and the conservation law must add it
                # to the left-hand side.
                self.counters.inc("fabric.late")
            key = lease.key if lease is not None else message.get("key")
            ok = isinstance(outcome, SimulationResult)
            if key not in self._specs.items or key in self._specs.outcomes:
                # Late result for a spec that was requeued and has
                # since completed elsewhere (or an unknown key): the
                # work is acknowledged but not double-recorded.
                self.counters.inc("fabric.ignored.ok" if ok else "fabric.ignored.fail")
                self.counters.set("fabric.leased", len(self._leases))
                return
            self._specs.resolve(key, outcome)
            self.counters.inc("fabric.completed" if ok else "fabric.failed")
            if late:
                # A late result that still lands first resolves the
                # spec, so any second lease for the same key is now
                # redundant (cancel it; its own result will arrive late
                # and be ignored) and any queued duplicate is dropped
                # without further bookkeeping — its requeue was already
                # counted.
                for other_id, other in list(self._leases.items()):
                    if other.key == key:
                        del self._leases[other_id]
                        self.counters.inc("fabric.cancelled")
                if any(k == key for k, _item in self._queue):
                    self._queue = deque(
                        entry for entry in self._queue if entry[0] != key
                    )
            self.counters.set("fabric.leased", len(self._leases))
            if self.manifest is not None:
                self.manifest.record(key, "ok" if ok else "fail", worker_id)
            self._check_done()

    def _requeue(self, lease: _Lease, reason: str) -> None:
        """Return a dead worker's lease to the queue (lock held)."""
        if lease.key in self._specs.outcomes:
            self.counters.inc("fabric.cancelled")
            self.counters.set("fabric.leased", len(self._leases))
            return
        attempts = self._attempts.get(lease.key, 0) + 1
        self._attempts[lease.key] = attempts
        if attempts > self.retries:
            spec, runtime = lease.item
            self._specs.resolve(lease.key, BatchFailure(
                spec=_failure_payload(spec, runtime),
                error_type="WorkerDeath",
                message=(
                    f"leased to {attempts} workers that all died "
                    f"({reason}); giving up"
                ),
                traceback="",
                attempts=attempts,
            ))
            self.counters.inc("fabric.lost")
            if self.manifest is not None:
                self.manifest.record(lease.key, "fail", lease.worker)
            self._check_done()
        else:
            self._queue.append((lease.key, lease.item))
            self.counters.inc("fabric.requeued")
        self.counters.set("fabric.leased", len(self._leases))

    def _check_done(self) -> None:
        if not self._specs.remaining:
            self._done.set()
            self._halt.set()

    # -- reporting ------------------------------------------------------------

    def fabric_snapshot(self) -> Dict[str, float]:
        return {
            name: value
            for name, value in self.counters.snapshot().items()
            if name.startswith("fabric.")
        }


# -- workers ------------------------------------------------------------------


class Worker:
    """One pull-based simulation worker.

    Connects to a coordinator, pulls specs, simulates each with the
    same :func:`_execute_spec` isolation boundary the batch pool uses
    (a raising spec becomes a :class:`BatchFailure` result, never a
    dead worker), heartbeats its active lease from a background thread
    while the simulation runs, and reports its running
    ``batch.sim.completions`` total with every result.

    :func:`run_campaign` forks its workers; a script that starts a
    :class:`Coordinator` itself joins it with ``Worker(address).run()``.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        worker_id: Optional[str] = None,
        poll: float = 0.1,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.poll = poll
        self.completions = 0  # == this process's batch.sim.completions
        self.results_sent = 0
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._current_lease: Optional[int] = None
        self._closed = False

    def _send(self, message: Dict) -> None:
        with self._send_lock:
            send_message(self._sock, message)

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._closed:
            time.sleep(interval)
            lease = self._current_lease
            if lease is None:
                continue
            try:
                self._send({"type": "heartbeat", "lease": lease})
            except OSError:
                return

    def run(self) -> int:
        """Serve until the coordinator says ``done``; returns results sent."""
        # A worker simulates: load the simulator before connecting, so the
        # imports never eat into a lease.
        from .batch import _execute_spec

        try:
            self._sock = socket.create_connection(self.address)
        except OSError as exc:
            raise ReproError(
                f"cannot reach coordinator at {self.address[0]}:{self.address[1]}: {exc}"
            )
        try:
            self._send({"type": "hello", "worker": self.worker_id, "schema": FABRIC_SCHEMA})
            welcome = recv_message(self._sock)
            if welcome is None:
                return self.results_sent  # campaign already over
            if welcome.get("type") != "welcome":
                raise ReproError("coordinator did not welcome the worker")
            heartbeat = float(welcome.get("heartbeat", 5.0))
            threading.Thread(
                target=self._heartbeat_loop, args=(heartbeat,), daemon=True
            ).start()
            while True:
                self._send({"type": "pull"})
                reply = recv_message(self._sock)
                if reply is None:
                    break
                kind = reply.get("type")
                if kind == "done":
                    break
                if kind == "wait":
                    time.sleep(float(reply.get("seconds", self.poll)))
                    continue
                if kind != "spec":
                    raise ProtocolError(f"unexpected coordinator message {kind!r}")
                spec = RunSpec.from_payload(reply["spec"])
                runtime = dict(reply.get("runtime") or {})
                self._current_lease = reply.get("lease")
                try:
                    outcome = _execute_spec((spec, runtime))
                finally:
                    self._current_lease = None
                if isinstance(outcome, SimulationResult):
                    self.completions += 1
                self._send({
                    "type": "result",
                    "lease": reply.get("lease"),
                    "key": reply.get("key"),
                    "outcome": outcome_to_payload(reply.get("key", ""), outcome),
                    "sim_completions": self.completions,
                })
                ack = recv_message(self._sock)
                if ack is None:
                    break
                self.results_sent += 1
        except (OSError, ProtocolError):
            # Coordinator vanished mid-conversation: the campaign is
            # over (or it crashed); either way the worker just exits.
            pass
        finally:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass
        return self.results_sent


# -- whole campaigns ----------------------------------------------------------


@dataclass
class CampaignResult:
    """Everything one campaign produced, for callers and the CLI."""

    outcomes: List[BatchOutcome]
    fabric: Dict[str, float]
    worker_completions: Dict[str, int]
    conservation: CheckResult = None  # type: ignore[assignment]
    failures: List[BatchFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and (
            self.conservation is None or self.conservation.passed
        )


def _forked_worker_main(address, poll) -> None:
    # The fork copies the coordinator's ambient cache; a worker's
    # results reach the cache only through the coordinator.
    with use_cache(None):
        try:
            Worker(address, poll=poll).run()
        except ReproError as exc:
            # The coordinator stopped before this worker connected (a
            # campaign timeout, say): one line, as the CLI prints an error.
            raise SystemExit(f"error: {exc}")


def _fork_worker(address, poll) -> BaseProcess:
    """One worker process, forked from the coordinator where fork exists.

    It inherits the imported simulator instead of booting an interpreter.
    ``multiprocessing`` rather than a bare ``os.fork``: it flushes the
    standard streams first, and its after-fork hooks and exit finalizers
    run in the child.
    """
    from .batch import _POOL_CONTEXT

    process = _POOL_CONTEXT.Process(
        target=_forked_worker_main, args=(address, poll)
    )
    process.start()
    return process


def run_campaign(
    specs: Sequence[Union[RunSpec, Dict]],
    workers: int = 2,
    *,
    cache: Optional[ResultCache] = None,
    manifest_dir: Optional[os.PathLike] = None,
    lease_timeout: float = 30.0,
    retries: int = 2,
    poll: float = 0.05,
    timeout: Optional[float] = None,
    audit: bool = False,
    counters: Optional[CounterRegistry] = None,
) -> CampaignResult:
    """Run one campaign end to end on this host.

    Starts a coordinator on an ephemeral localhost port, forks
    ``workers`` pull-based worker processes from this one (where the
    platform can fork), waits for every spec to resolve, and evaluates
    the distributed conservation law. Every worker process is joined
    before this returns; one still alive 5 s after the coordinator
    stops is killed.

    With ``manifest_dir``, the campaign is resumable: a fresh directory
    gets a ``repro.campaign/1`` manifest; an existing one must match
    the spec list's digest and its ledger + ``cache`` short-circuit
    every completed spec (zero re-simulation). Each entry is parsed
    once, for the digest and the dispatch alike, and a campaign with
    nothing left to run never imports the simulator.
    """
    if workers < 1:
        raise ReproError(f"run_campaign needs at least one worker, got {workers}")
    spec_set = SpecSet(specs, cache=cache, audit=audit)
    manifest = None
    if manifest_dir is not None:
        digest = spec_set.digest()
        if CampaignManifest.exists(manifest_dir):
            manifest = CampaignManifest.load(manifest_dir)
            if manifest.digest and manifest.digest != digest:
                raise ReproError(
                    f"campaign manifest {manifest_dir} describes a different "
                    f"spec list (digest {manifest.digest} != {digest}); "
                    "use a fresh --manifest directory"
                )
        else:
            manifest = CampaignManifest.create(manifest_dir, specs, digest)
    coordinator = Coordinator(
        spec_set,
        manifest=manifest,
        retries=retries,
        lease_timeout=lease_timeout,
        poll=poll,
        counters=counters,
    ).listen()
    processes: List[BaseProcess] = []
    try:
        # A fully-resumed (or all-cached/all-local) campaign has nothing
        # left to dispatch; forking workers would only have them race a
        # coordinator that is already shutting down.
        if coordinator.remaining():
            # Load the simulator before the first fork, so that every
            # forked worker inherits it.
            from . import batch  # noqa: F401

            for _ in range(workers):
                processes.append(_fork_worker(coordinator.address, poll))
        # Only now does the coordinator start threads, so no fork above
        # copied a thread or a lock one held.
        coordinator.start()
        outcomes = coordinator.wait(timeout)
    finally:
        coordinator.stop()
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join()
    snapshot = coordinator.counters.snapshot()
    conservation = check_fabric_counters(snapshot, coordinator.worker_completions)
    return CampaignResult(
        outcomes=outcomes,
        fabric=coordinator.fabric_snapshot(),
        worker_completions=dict(coordinator.worker_completions),
        conservation=conservation,
        failures=[o for o in outcomes if isinstance(o, BatchFailure)],
    )
