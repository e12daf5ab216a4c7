"""serve-mix: ``repro serve`` driven closed-loop by two client threads.

Each pass starts ``repro serve --pool 2`` with an empty cache in its own
process and plays one seeded request stream against it.  Every client
sends its next request only after the previous reply, as sweep drivers
and notebooks do.  Each pass's stream holds:

* a hot set, the 13 kernels x {ooo, vr, dvr} at a short region, with
  Zipf popularity (first touches miss, the rest are cache reads);
* one novel spec per kernel with a fresh data ``seed`` (cache writes,
  graph builds and VR inside the pool), drawn from seeds expected.json
  holds, plus two from a held-out seed that are checked against a
  serial ``run_simulation`` after the pass;
* three novel specs that both clients send at once (coalescing);
* four ``?audit=1`` requests on hot specs, two of them graph kernels.

After the stream the server is stopped.  The resume, six times per pass,
starts a fresh server over the same cache and has one client send each
distinct spec once more; every reply must be a cache hit.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time

import common

NAME = "serve-mix"
MIN_PASSES = 3  # 3 x 381 requests leaves 10 samples beyond p99
TAIL = 99
HOT_REQUESTS = 360
#: Client threads and pool size: nproc on the machine the bounds were
#: set on (2), fixed so that runs on other machines keep the same load.
CLIENTS = 2
POOL = 2
#: Server restarts over the pass's cache, each timed as one resume.  A
#: resume is mostly interpreter start-up (about 0.45 s on a shared 2-vCPU
#: VM), whose time swings by a quarter between launches, so the run's
#: median needs many.
RESUMES = 6
TIMEOUT = 120.0


class Step:
    def __init__(self, spec, audit=False, pair=False, heldout=False):
        self.spec = spec
        self.audit = audit
        self.pair = pair
        self.heldout = heldout
        self.body = json.dumps(spec.to_payload()).encode()
        self.key = common.doc_key(spec)


def pass_stream(seed: int, pass_index: int, smoke: bool):
    """The requests of one pass.

    Which kernels and techniques each kind of request uses depends only
    on the pass index, so every run's first three passes make the same
    mix; the seed picks popularity ranks, data seeds and the order.
    """
    rng = random.Random(f"{seed}:{pass_index}")
    hot = common.serve_hot_specs()
    rng.shuffle(hot)
    graphs, tables = common.GRAPH_KERNELS, common.TABLE_KERNELS
    p = pass_index
    pairs = [graphs[p % 6], tables[(2 * p) % 7], tables[(2 * p + 1) % 7]]
    heldout_kernels = [graphs[(p + 3) % 6], tables[(p + 4) % 7]]
    audited = [graphs[(2 * p) % 6], graphs[(2 * p + 1) % 6], tables[p % 7], tables[(p + 3) % 7]]
    singles = common.ALL_KERNELS
    if smoke:
        hot, singles, pairs, heldout_kernels, audited = hot[:4], tables[:1], [], tables[1:2], tables[2:3]

    def technique(index):
        return common.TECHNIQUES[(index + p) % len(common.TECHNIQUES)]

    harmonic = sum(1.0 / rank for rank in range(1, len(hot) + 1))
    steps = []
    for rank, spec in enumerate(hot, start=1):
        count = 3 if smoke else max(1, round(HOT_REQUESTS / harmonic / rank))
        steps += [Step(spec)] * count
    single_seed = {}
    for index, kernel in enumerate(singles):
        single_seed[kernel] = rng.choice(common.NOVEL_SEEDS)
        steps.append(Step(common.serve_spec(kernel, technique(index), single_seed[kernel])))
    for index, kernel in enumerate(pairs):
        data_seed = rng.choice([s for s in common.NOVEL_SEEDS if s != single_seed[kernel]])
        steps.append(Step(common.serve_spec(kernel, technique(index), data_seed), pair=True))
    heldout = common.HELDOUT_SEED_BASE + rng.randrange(1_000_000)
    for index, kernel in enumerate(heldout_kernels):
        steps.append(Step(common.serve_spec(kernel, technique(index + 1), heldout), heldout=True))
    for index, kernel in enumerate(audited):
        steps.append(Step(common.serve_spec(kernel, technique(index + 2)), audit=True))
    rng.shuffle(steps)
    return steps


def _post(address, step: Step):
    conn = http.client.HTTPConnection(*address, timeout=TIMEOUT)
    try:
        conn.request(
            "POST", "/run?audit=1" if step.audit else "/run", body=step.body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.getheader("X-Repro-Served"), response.read()
    finally:
        conn.close()


def _get_json(address, path):
    conn = http.client.HTTPConnection(*address, timeout=TIMEOUT)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class ClosedLoop:
    """Clients that each wait for a reply before sending again."""

    def __init__(self, address, steps):
        self.address = address
        self.steps = steps
        self.next = 0
        self.pair = None
        self.lock = threading.Lock()
        self.records = []  # (step, status, served, start, end, body)

    def _draw(self, client):
        with self.lock:
            if self.pair is not None:
                step, barrier, taken = self.pair
                taken.add(client)
                if len(taken) == CLIENTS:
                    self.pair = None
                return step, barrier
            if self.next >= len(self.steps):
                return None, None
            step = self.steps[self.next]
            self.next += 1
            barrier = None
            if step.pair:
                barrier = threading.Barrier(CLIENTS, timeout=TIMEOUT)
                self.pair = (step, barrier, {client})
            return step, barrier

    def client(self, client):
        while True:
            step, barrier = self._draw(client)
            if step is None:
                return
            try:
                if barrier is not None:
                    barrier.wait()
                start = time.perf_counter()
                status, served, body = _post(self.address, step)
                end = time.perf_counter()
            except (OSError, http.client.HTTPException, threading.BrokenBarrierError) as exc:
                status, served, body, start, end = None, None, repr(exc).encode(), 0.0, 0.0
            self.records.append((step, status, served, start, end, body))

    def run(self):
        threads = [
            threading.Thread(target=self.client, args=(c,)) for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def _start_server(work, env):
    """Launch ``repro serve``; return it, its address and its set-up time."""
    err_path = work / "serve.err"
    command = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--pool", str(POOL), "--cache", "cache",
    ]
    with open(err_path, "w") as err:
        server = common.Child(command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
    pattern = re.compile(r"serving on http://([\d.]+):(\d+)")
    address = None
    while time.perf_counter() - server.launch < TIMEOUT and not server.poll():
        if address is None:
            match = pattern.search(err_path.read_text())
            if match:
                address = (match.group(1), int(match.group(2)))
        if address is not None:
            try:
                if _get_json(address, "/healthz")[0] == 200:
                    return server, address, time.perf_counter() - server.launch
            except OSError:
                pass
        time.sleep(0.005)
    return server, None, None


def _stop_server(server) -> int:
    if not server.poll():
        server.proc.send_signal(signal.SIGTERM)
    try:
        return server.wait(30)
    finally:
        server.kill()


def _document(step: Step, body: bytes):
    """(stats document, digest) of a 200 body; audits must have passed."""
    payload = json.loads(body)
    if step.audit:
        record = payload.pop("audit", None)
        if not (isinstance(record, dict) and record.get("passed") is True):
            raise ValueError("audit record missing or failed")
        body = common.stats_body(payload)
    return payload, common.body_digest(body)


def _check(ctx, step: Step, status, body, out, served=None) -> None:
    what = f"{'audit ' if step.audit else ''}{common.label(step.spec)}"
    if status != 200:
        ctx.checker.fail(f"{what}: HTTP {status}: {body[:200]!r}")
        return
    try:
        payload, digest = _document(step, body)
    except ValueError as exc:
        ctx.checker.fail(f"{what}: {exc}")
        return
    if step.heldout:
        out["heldout"].setdefault(step.key, (step, []))[1].append((digest, payload["cycles"]))
        return
    if ctx.checker.check(step.key, digest, payload["cycles"], what):
        out["documents"][step.key] = payload
        if served == "miss":
            out["instructions"] += payload["instructions"]


def _check_heldout(ctx, out) -> None:
    """Novel specs outside expected.json: compare with a serial run."""
    from repro import run_simulation, stats_payload

    for step, seen in out.pop("heldout").values():
        result = run_simulation(step.spec, replay="off")
        payload = stats_payload(result)
        digest = common.body_digest(common.stats_body(payload))
        for got in seen:
            ctx.checker.record(
                got == (digest, result.cycles),
                f"held-out {common.label(step.spec)}: differs from a serial run",
            )
        out["documents"][step.key] = payload


def _served(ctx, work, env, out, session) -> bool:
    """Start a server on the pass's cache, run ``session(address)``, stop it."""
    server, address, setup = _start_server(work, env)
    try:
        if address is None:
            return ctx.checker.fail(
                f"repro serve did not start: {(work / 'serve.err').read_text()[-400:]}"
            )
        out["setup"].append(setup)
        session(server, address)
    finally:
        code = _stop_server(server)
        out["rss_mb"] = max(out["rss_mb"], server.rss_mb)
    return ctx.checker.record(code == 0, f"repro serve exited {code}")


def run_pass(ctx, pass_index: int, mode: str = "") -> dict:
    work = ctx.pass_dir(pass_index, mode)
    span_dir = work / "spans"
    env = common.child_env(mode, span_dir)
    steps = pass_stream(ctx.seed, pass_index, ctx.smoke)
    out = {
        "setup": [], "latencies": [], "documents": {}, "span_dir": span_dir,
        "heldout": {}, "instructions": 0, "served": [], "rss_mb": 0.0,
    }

    def stream(server, address):
        loop = ClosedLoop(address, steps)
        loop.run()
        answered = [r for r in loop.records if r[1] is not None]
        out["op_wall"] = max(r[4] for r in answered) - min(r[3] for r in answered)
        out["ops"] = len(loop.records)
        for step, status, served, start, end, body in loop.records:
            _check(ctx, step, status, body, out, served)
            if status == 200:
                out["latencies"].append(end - start)
                out["served"].append(("audit" if step.audit else served, end - start))
        status, health = _get_json(address, "/healthz")
        out["serve"] = health.get("counters", {})
        ctx.checker.record(
            status == 200 and health.get("status") == "ok",
            f"/healthz reports {health.get('status')}",
        )

    distinct = {}
    for step in steps:
        if not step.audit:
            distinct.setdefault(step.key, step)
    resumes = []

    def resume(server, address):
        replies = [(step,) + _post(address, step) for step in distinct.values()]
        resumes.append(time.perf_counter() - server.launch)
        for step, status, served, body in replies:
            if served != "hit":
                ctx.checker.fail(f"resume {common.label(step.spec)}: served {served}, not hit")
            else:
                _check(ctx, step, status, body, out)

    if _served(ctx, work, env, out, stream):
        for _ in range(RESUMES):
            _served(ctx, work, env, out, resume)
    out["resumes"] = resumes
    _check_heldout(ctx, out)
    return out
