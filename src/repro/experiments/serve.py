"""``repro serve`` — simulation-as-a-service over the spec/cache contract.

Every run is already fully described by a versioned ``repro.spec/1``
document and content-addressed in the :class:`ResultCache`, which makes
the pair an RPC surface: this module puts an asyncio HTTP front door on
it. ``POST /run`` accepts one spec document; the server answers from
the shared cache when it can, **coalesces** concurrent identical
requests onto ONE in-flight simulation (single-flight keyed on
``RunSpec.key()``), and only burns CPU on genuinely novel specs.
Late joiners await the same future and every caller receives the
bit-identical ``repro.stats/1`` document.

Simulations execute in the :class:`~repro.experiments.batch.WorkerPool`
``run_batch`` uses, through the same :func:`_execute_spec` isolation
boundary, so a poisoned spec comes back as a structured
``repro.batch-result/1`` failure document instead of killing the
server, and a killed pool worker fails only the requests in flight.

A repeated request is answered from two bounded in-process memos: a
body the server has seen maps to its parsed spec and key, and a key
whose result is cached maps to its exact response bytes, so a hit
re-derives nothing. The on-disk cache stays the store of record.

The server publishes a ``serve.*`` counter book into
:data:`BATCH_COUNTERS` and its request law is checkable at any instant
(:func:`repro.audit.check_serve_counters`)::

    serve.requests == serve.cache_hits + serve.coalesced + serve.misses

See ``docs/serve.md`` for the endpoint contract and the operator's
guide.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.ooo import SimulationResult
from ..errors import ReproError
from ..observability.counters import CounterRegistry
from ..observability.export import stats_payload
from .batch import BatchFailure, WorkerPool, _failure_payload, cacheable
from .cache import BATCH_COUNTERS, ResultCache
from .protocol import outcome_to_payload
from .runner import run_simulation
from .spec import RunSpec, parse_spec_entry

__all__ = [
    "SERVE_COUNTER_NAMES",
    "LoadTestReport",
    "ServerThread",
    "SimulationServer",
    "run_load_test",
]

#: Every counter the server publishes (pre-created at start so the
#: healthz document and the CI smoke grep can rely on the full family).
SERVE_COUNTER_NAMES = (
    "serve.requests",
    "serve.cache_hits",
    "serve.coalesced",
    "serve.misses",
    "serve.failures",
    "serve.inflight",
)

HEALTH_SCHEMA = "repro.healthz/1"
PROGRESS_SCHEMA = "repro.progress/1"

#: Cap on one HTTP request head + body (a spec document is tiny; this
#: mostly guards the server against garbage on the port).
_MAX_HEAD = 64 * 1024
_MAX_BODY = 4 * 1024 * 1024

#: Entries each request-path memo holds (body -> identity, key ->
#: response bytes); the oldest entry goes first. A stats document is a
#: few KiB, so both memos together stay within a few MiB.
_MEMO_ENTRIES = 1024
#: Longest body the identity memo keeps (a full-config spec document is
#: about 1.5 KB); a longer one is parsed and keyed on every request.
_MEMO_BODY_BYTES = 4 * 1024


def _dump(payload: Dict) -> bytes:
    # sort_keys makes the body byte-deterministic: the bit-identity
    # contract ("every coalesced caller sees the same document") is
    # checked on raw bytes by the load harness.
    return json.dumps(payload, sort_keys=True).encode()


def _remember(memo: Dict, key, value) -> None:
    memo[key] = value
    if len(memo) > _MEMO_ENTRIES:
        del memo[next(iter(memo))]


@dataclass
class _Flight:
    """One in-flight simulation every identical request awaits."""

    key: str
    future: "asyncio.Future"
    started: float
    waiters: int = 1


class SimulationServer:
    """Asyncio HTTP front door for single-flight simulation serving.

    Endpoints:

    * ``POST /run`` (optionally ``?audit=1``) — body is one
      ``repro.spec/1`` document (or legacy kwargs dict). Returns the
      ``repro.stats/1`` document (HTTP 200), or a structured
      ``repro.batch-result/1`` failure (HTTP 422 for simulation
      failures, 400 for unparsable bodies). The ``X-Repro-Served``
      response header says how the request resolved: ``hit``,
      ``coalesced``, or ``miss``.
    * ``GET /progress/<key>`` — flight state for an in-flight key.
    * ``GET /healthz`` — pool/queue depth, the ``serve.*`` snapshot,
      and the request-conservation verdict.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = 2,
        cache: Optional[ResultCache] = None,
        counters: Optional[CounterRegistry] = None,
    ):
        if pool_size < 1:
            raise ReproError(f"serve pool size must be >= 1, got {pool_size}")
        self._host = host
        self._port = port
        self.pool_size = pool_size
        self.cache = cache
        self.counters = counters if counters is not None else BATCH_COUNTERS
        for name in SERVE_COUNTER_NAMES:
            self.counters.counter(name)
        self._flights: Dict[str, _Flight] = {}
        # Request body -> (spec, runtime extras, key), and key -> the
        # repro.stats/1 bytes of its cached result (see _run).
        self._identities: Dict[bytes, Tuple[RunSpec, Dict, str]] = {}
        self._documents: Dict[str, bytes] = {}
        self._tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers = WorkerPool(pool_size)

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise ReproError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "SimulationServer":
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        self._workers.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- http plumbing --------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            status, headers, body = await self._dispatch(reader)
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 — the server outlives a request
            print("serve: internal error answering a request", file=sys.stderr)
            traceback.print_exc()
            status, headers, body = 500, {}, _dump({"error": "internal error"})
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 422: "Unprocessable Entity",
            500: "Internal Server Error",
        }.get(status, "OK")
        head = [f"HTTP/1.1 {status} {reason}"]
        headers = dict(headers)
        headers.setdefault("Content-Type", "application/json")
        headers["Content-Length"] = str(len(body))
        headers["Connection"] = "close"
        head += [f"{k}: {v}" for k, v in headers.items()]
        try:
            writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)
            await writer.drain()
            writer.close()
        except (ConnectionError, OSError):
            pass

    async def _dispatch(self, reader) -> Tuple[int, Dict, bytes]:
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, OSError):
            return 400, {}, _dump({"error": "malformed HTTP request"})
        if len(raw) > _MAX_HEAD:
            return 400, {}, _dump({"error": "request head too large"})
        lines = raw.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            return 400, {}, _dump({"error": f"malformed request line {lines[0]!r}"})
        method, target, _version = parts
        header: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                header[name.strip().lower()] = value.strip()
        try:
            length = int(header.get("content-length", "0"))
        except ValueError:
            return 400, {}, _dump({"error": "bad Content-Length"})
        if length > _MAX_BODY:
            return 400, {}, _dump({"error": "request body too large"})
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, OSError):
                return 400, {}, _dump({"error": "truncated request body"})

        path, _sep, query = target.partition("?")
        if path == "/run":
            if method != "POST":
                return 405, {}, _dump({"error": "POST /run"})
            audit = any(
                pair in ("audit=1", "audit=true") for pair in query.split("&")
            )
            return await self._run(body, audit)
        if path == "/healthz":
            if method != "GET":
                return 405, {}, _dump({"error": "GET /healthz"})
            return 200, {}, _dump(self._healthz())
        if path.startswith("/progress/"):
            if method != "GET":
                return 405, {}, _dump({"error": "GET /progress/<key>"})
            return self._progress(path[len("/progress/"):])
        return 404, {}, _dump({"error": f"no route for {path!r}"})

    # -- the single-flight core -----------------------------------------------

    async def _run(self, body: bytes, audit: bool) -> Tuple[int, Dict, bytes]:
        # Admission + classification below is await-free, so the
        # request-conservation law holds at every event-loop step, not
        # just at quiescence.
        self.counters.inc("serve.requests")
        # Audited requests neither read nor fill either memo.
        identity = None if audit else self._identities.get(body)
        if identity is None:
            try:
                entry = json.loads(body.decode() or "null")
                spec, runtime = parse_spec_entry(entry)
                identity = (spec, runtime, spec.key())
            except Exception as exc:  # noqa: BLE001 — the front-door boundary
                # Unparsable requests are misses that failed before the
                # pool: still classified, so the law never skips a request.
                self.counters.inc("serve.misses")
                self.counters.inc("serve.failures")
                failure = BatchFailure(
                    spec={"raw": body[:512].decode(errors="replace")},
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback="",
                )
                return 400, {"X-Repro-Served": "miss"}, _dump(
                    outcome_to_payload("", failure)
                )
            if not audit and len(body) <= _MEMO_BODY_BYTES:
                _remember(self._identities, body, identity)
        spec, runtime, key = identity

        if audit:
            runtime = dict(runtime, audit=True)
        # Audited runs bypass the cache in both directions (an audit
        # must actually execute), so they fly under a distinct key.
        flight_key = key + "+audit" if audit else key

        flight = self._flights.get(flight_key)
        if flight is not None:
            self.counters.inc("serve.coalesced")
            flight.waiters += 1
            response = await asyncio.shield(flight.future)
            return _reply(key, "coalesced", response)

        # The document memo fills only behind a cache, so a server
        # without one simulates every request that does not coalesce.
        if self.cache is not None and cacheable(runtime):
            document = self._documents.get(key)
            hit = self.cache.get(key) if document is None else None
            if document is not None or hit is not None:
                # Counted before rendering: a render fault is still a
                # classified request.
                self.counters.inc("serve.cache_hits")
                if document is None:
                    document = _dump(stats_payload(hit))
                    _remember(self._documents, key, document)
                return _reply(key, "hit", (200, document))

        self.counters.inc("serve.misses")
        loop = asyncio.get_running_loop()
        flight = _Flight(key=key, future=loop.create_future(), started=time.monotonic())
        self._flights[flight_key] = flight
        self.counters.set("serve.inflight", len(self._flights))
        # The flight is a server-owned task: if the requesting client
        # disconnects mid-simulation, coalesced waiters still get their
        # result and the cache still gets warmed.
        task = loop.create_task(self._fly(flight_key, spec, runtime, audit))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        response = await asyncio.shield(flight.future)
        return _reply(key, "miss", response)

    async def _fly(self, flight_key: str, spec: RunSpec, runtime: Dict, audit: bool):
        # Every flight ends popped with its future resolved, whatever
        # stops it: a flight left behind would hang its requester and
        # every later identical request coalesced onto it. The future
        # carries the one (status, body) every waiter sends.
        flight = self._flights[flight_key]
        try:
            outcome = await self._simulate(spec, runtime)
            response = _render(flight.key, outcome, audit)
            if isinstance(outcome, BatchFailure):
                self.counters.inc("serve.failures")
            elif self.cache is not None and cacheable(runtime):
                try:
                    self.cache.put(flight.key, outcome)
                except OSError as exc:
                    # A full disk or a read-only cache directory costs
                    # the store, not the answer.
                    print(
                        f"serve: cannot store {flight.key} in the result cache: {exc}",
                        file=sys.stderr,
                    )
                _remember(self._documents, flight.key, response[1])
        except asyncio.CancelledError:
            flight.future.cancel()
            raise
        except Exception as exc:  # noqa: BLE001 — each waiter answers 500
            flight.future.set_exception(exc)
        else:
            flight.future.set_result(response)
        finally:
            self._flights.pop(flight_key, None)
            self.counters.set("serve.inflight", len(self._flights))

    async def _simulate(self, spec: RunSpec, runtime: Dict):
        try:
            return await asyncio.wrap_future(self._workers.submit((spec, runtime)))
        except Exception as exc:  # noqa: BLE001 — e.g. BrokenProcessPool
            # The pool itself died (a worker was OOM-killed, say): the
            # next request gets a rebuilt pool, and the waiters get a
            # structured failure rather than an exception.
            return BatchFailure(
                spec=_failure_payload(spec, runtime),
                error_type=type(exc).__name__,
                message=str(exc),
                traceback="",
            )

    # -- introspection --------------------------------------------------------

    def serve_snapshot(self) -> Dict[str, float]:
        return {
            name: value
            for name, value in self.counters.snapshot().items()
            if name.startswith("serve.")
        }

    def _healthz(self) -> Dict:
        from ..audit import check_serve_counters

        snapshot = self.serve_snapshot()
        verdict = check_serve_counters(snapshot)
        inflight = len(self._flights)
        return {
            "schema": HEALTH_SCHEMA,
            "status": "ok" if verdict.passed else "unbalanced",
            "pool": {
                "workers": self.pool_size,
                "inflight": inflight,
                "queued": max(0, inflight - self.pool_size),
            },
            "counters": snapshot,
            "conservation": {
                "name": verdict.name,
                "passed": verdict.passed,
                "violations": list(verdict.violations),
            },
        }

    def _progress(self, key: str) -> Tuple[int, Dict, bytes]:
        flight = self._flights.get(key) or self._flights.get(key + "+audit")
        payload = {
            "schema": PROGRESS_SCHEMA,
            "key": key,
            "counters": self.serve_snapshot(),
        }
        if flight is None:
            payload["state"] = "unknown"
            return 404, {}, _dump(payload)
        payload["state"] = "inflight"
        payload["waiters"] = flight.waiters
        payload["elapsed_seconds"] = round(time.monotonic() - flight.started, 6)
        return 200, {}, _dump(payload)


def _render(key: str, outcome, audit: bool) -> Tuple[int, bytes]:
    """The (status, body) a flight's outcome is answered with."""
    if isinstance(outcome, SimulationResult):
        payload = stats_payload(outcome)
        if audit:
            payload["audit"] = outcome.audit
        return 200, _dump(payload)
    return 422, _dump(outcome_to_payload(key, outcome))


def _reply(
    key: str, served: str, response: Tuple[int, bytes]
) -> Tuple[int, Dict, bytes]:
    status, body = response
    return status, {"X-Repro-Key": key, "X-Repro-Served": served}, body


# -- running the server from synchronous code ---------------------------------


class ServerThread:
    """A :class:`SimulationServer` on a background event-loop thread.

    The test suite, the load harness, and the CLI's ``--load-test`` mode
    all need a live server without an async caller; this wrapper owns
    the loop and tears everything down on exit::

        with ServerThread(cache=cache) as server:
            host, port = server.address
    """

    def __init__(self, **kwargs):
        self.server = SimulationServer(**kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def __enter__(self) -> "SimulationServer":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._started.wait(10.0):
            raise ReproError("serve thread failed to start in 10s")
        if self._startup_error is not None:
            raise ReproError(f"serve thread failed: {self._startup_error!r}")
        return self.server

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 — reported to __enter__
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self.server.stop())
        self._loop.close()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)


# -- load-test harness --------------------------------------------------------


@dataclass
class LoadTestReport:
    """What one load-test run proved (see :func:`run_load_test`)."""

    clients: int
    spec_count: int
    cold: Dict[str, float]
    warm: Dict[str, float]
    bit_identical: bool
    conservation_passed: bool
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.bit_identical and self.conservation_passed and not self.violations


def _post_run(address: Tuple[str, int], body: bytes, timeout: float):
    conn = http.client.HTTPConnection(address[0], address[1], timeout=timeout)
    try:
        conn.request(
            "POST", "/run", body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        data = response.read()
        return response.status, response.getheader("X-Repro-Served"), data
    finally:
        conn.close()


def _get_json(address: Tuple[str, int], path: str, timeout: float = 10.0) -> Dict:
    conn = http.client.HTTPConnection(address[0], address[1], timeout=timeout)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read().decode())
    finally:
        conn.close()


def _volley(
    address: Tuple[str, int],
    specs: Sequence[RunSpec],
    clients: int,
    timeout: float,
) -> List[List[Tuple[int, str, bytes]]]:
    """Fire ``clients`` concurrent POSTs per spec, barrier-synchronised
    so every request is in flight before the first simulation can
    finish; returns per-spec response lists."""
    total = len(specs) * clients
    barrier = threading.Barrier(total)
    results: List[List] = [[None] * clients for _ in specs]
    errors: List[BaseException] = []

    def client(spec_index: int, slot: int) -> None:
        body = _dump(specs[spec_index].to_payload())
        try:
            barrier.wait(timeout)
            results[spec_index][slot] = _post_run(address, body, timeout)
        except BaseException as exc:  # noqa: BLE001 — reported by the harness
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i, j), daemon=True)
        for i in range(len(specs))
        for j in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    if errors:
        raise ReproError(f"load-test client failed: {errors[0]!r}")
    return results


def run_load_test(
    address: Tuple[str, int],
    specs: Sequence[Union[RunSpec, Dict]],
    clients: int = 8,
    timeout: float = 120.0,
) -> LoadTestReport:
    """Prove the single-flight contract against a live server.

    Two volleys of ``clients`` concurrent requests per spec:

    * **cold** — the specs must be novel to the server: expects exactly
      one ``serve.misses`` per spec and ``clients - 1`` coalesced
      joiners, every response byte-identical to each other *and* to a
      serial :func:`run_simulation` of the same spec;
    * **warm** — immediately re-fires the same volley: with a cache
      attached every request must be a hit (``serve.misses`` delta 0).

    Raises :class:`ReproError` on client-side failures; contract
    violations land in the returned report's ``violations``.
    """
    specs = [RunSpec.from_any(spec) for spec in specs]
    if not specs:
        raise ReproError("load test needs at least one spec")
    if clients < 2:
        raise ReproError("load test needs >= 2 clients to prove coalescing")
    violations: List[str] = []

    before = _get_json(address, "/healthz")["counters"]
    cold = _volley(address, specs, clients, timeout)
    mid = _get_json(address, "/healthz")["counters"]
    warm = _volley(address, specs, clients, timeout)
    after = _get_json(address, "/healthz")["counters"]

    def delta(phase_start: Dict, phase_end: Dict) -> Dict[str, float]:
        return {
            name: phase_end.get(name, 0) - phase_start.get(name, 0)
            for name in SERVE_COUNTER_NAMES
            if name != "serve.inflight"
        }

    cold_delta = delta(before, mid)
    warm_delta = delta(mid, after)
    expected = {
        "serve.misses": len(specs),
        "serve.coalesced": len(specs) * (clients - 1),
        "serve.cache_hits": 0,
        "serve.failures": 0,
    }
    for name, want in expected.items():
        got = cold_delta.get(name, 0)
        if got != want:
            violations.append(f"cold volley: {name}={got:g}, expected {want}")
    if warm_delta.get("serve.misses", 0) != 0:
        violations.append(
            f"warm volley: serve.misses={warm_delta['serve.misses']:g}, expected 0"
        )

    # Bit-identity: every caller of one spec saw the same bytes, and
    # those bytes match a serial run of the same spec.
    bit_identical = True
    for index, spec in enumerate(specs):
        bodies = {body for _status, _served, body in cold[index]}
        bodies |= {body for _status, _served, body in warm[index]}
        serial = _dump(stats_payload(run_simulation(spec)))
        if bodies != {serial}:
            bit_identical = False
            violations.append(
                f"spec[{index}]: {len(bodies)} distinct response bodies "
                "(expected 1, byte-identical to serial run_simulation)"
            )

    from ..audit import check_serve_counters

    verdict = check_serve_counters(after)
    violations.extend(f"conservation: {v}" for v in verdict.violations)
    return LoadTestReport(
        clients=clients,
        spec_count=len(specs),
        cold=cold_delta,
        warm=warm_delta,
        bit_identical=bit_identical,
        conservation_passed=verdict.passed,
        violations=violations,
    )
