"""fig12-campaign: Figure 12's 40 specs through ``repro campaign run``.

Each pass runs ``repro campaign run --workers 2`` with process workers,
a fresh ``--manifest`` and an empty ``--cache``, then the same command
again on that manifest, which resumes with zero re-simulation.  The
seed sets the order the specs are submitted in.  Every outcome is read
back from the campaign's cache and checked.

Every spec is submitted at launch, so a spec's latency is the time from
launch until its line lands in the completion ledger.  Set-up ends when
both workers have connected to the coordinator (its ESTABLISHED sockets
in ``/proc/net/tcp``).  Both are read from outside the program, which
the benchmark does not change.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

import common

NAME = "fig12-campaign"
MIN_PASSES = 3  # 3 x 40 specs leaves 10 samples beyond p90
TAIL = 90
WORKERS = 2
#: The resume is short (about 1 s) and noisy, so each pass times two.
RESUMES = 2
TIMEOUT = 170.0


def pass_specs(seed: int, pass_index: int, smoke: bool):
    """Figure 12's specs in a seeded order that keeps the kernels balanced.

    Each round submits one spec of every kernel, so any prefix of the
    order holds the same mix of heavy (bfs, sssp) and light specs, and
    the time until a given share of specs completes does not depend on
    the seed.
    """
    rng = random.Random(f"{seed}:{pass_index}")
    by_kernel = {}
    for spec in common.fig12_specs():
        by_kernel.setdefault(spec.workload, []).append(spec)
    for specs in by_kernel.values():
        rng.shuffle(specs)
    order = []
    for round_specs in zip(*by_kernel.values()):
        round_specs = list(round_specs)
        rng.shuffle(round_specs)
        order += round_specs
    return order[:6] if smoke else order


def _socket_inodes(pid: int) -> set:
    inodes = set()
    try:
        fds = os.listdir(f"/proc/{pid}/fd")
    except OSError:
        return inodes
    for fd in fds:
        try:
            link = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if link.startswith("socket:["):
            inodes.add(link[8:-1])
    return inodes


def _tcp_sockets():
    """(local port, state, inode) of every TCP socket on the host."""
    rows = []
    for name in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(name) as handle:
                lines = handle.read().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            parts = line.split()
            rows.append((int(parts[1].rsplit(":", 1)[1], 16), parts[3], parts[9]))
    return rows


class _JoinWatch:
    """Has every worker connected to the coordinator process ``pid``?"""

    def __init__(self, pid: int):
        self.pid = pid
        self.port = None

    def joined(self) -> bool:
        rows = _tcp_sockets()
        if self.port is None:
            inodes = _socket_inodes(self.pid)
            ports = [port for port, state, inode in rows if state == "0A" and inode in inodes]
            if not ports:
                return False
            self.port = ports[0]
        connected = sum(1 for port, state, _ in rows if port == self.port and state == "01")
        return connected >= WORKERS


def _fabric_stats(text: str) -> dict:
    for line in text.splitlines():
        if line.startswith("fabric stats"):
            fields = line.split(":", 1)[1].split()
            return {k: float(v) for k, v in (f.split("=", 1) for f in fields)}
    return {}


def _campaign(work, env, tag):
    command = [
        sys.executable, "-m", "repro", "campaign", "run", "specs.json",
        "--workers", str(WORKERS), "--manifest", "manifest", "--cache", "cache",
    ]
    with open(work / f"{tag}.out", "w") as out, open(work / f"{tag}.err", "w") as err:
        return common.Child(command, cwd=work, env=env, stdout=out, stderr=err)


def _watch(child, work):
    """Poll until exit: join time and each ledger line's arrival time."""
    watch = _JoinWatch(child.pid)
    joined = None
    ledger = work / "manifest" / "ledger.jsonl"
    offset, pending, done = 0, b"", []
    while True:
        exited = child.poll()
        now = time.perf_counter()
        if joined is None and not exited and watch.joined():
            joined = now
        if ledger.exists():
            with open(ledger, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            offset += len(chunk)
            pending += chunk
            *lines, pending = pending.split(b"\n")
            done += [now for line in lines if line.strip()]
        if exited:
            return joined, done
        if now - child.launch > TIMEOUT:
            child.kill()
            raise TimeoutError("campaign did not finish")
        time.sleep(0.005 if joined is None else 0.01)


def run_pass(ctx, pass_index: int, mode: str = "") -> dict:
    from repro import stats_payload
    from repro.experiments.cache import ResultCache

    work = ctx.pass_dir(pass_index, mode)
    specs = pass_specs(ctx.seed, pass_index, ctx.smoke)
    (work / "specs.json").write_text(json.dumps([s.to_payload() for s in specs]))
    span_dir = work / "spans"
    env = common.child_env(mode, span_dir)
    out = {"setup": [], "latencies": [], "documents": {}, "span_dir": span_dir}

    first = _campaign(work, env, "first")
    try:
        joined, done = _watch(first, work)
    finally:
        first.kill()
    first_err = (work / "first.err").read_text()
    if first.returncode != 0 or joined is None:
        ctx.checker.fail(f"campaign exited {first.returncode}: {first_err[-400:]}")
        return out
    out["setup"].append(joined - first.launch)
    out["op_wall"] = first.ended - joined
    out["ops"] = len(specs)
    out["latencies"] = [stamp - first.launch for stamp in done]
    out["fabric"] = _fabric_stats(first_err)
    out["campaign_window"] = (joined, first.ended)
    out["workers"] = WORKERS

    resumes, rss = [], [first.rss_mb]
    for _ in range(RESUMES):
        resume = _campaign(work, env, "resume")
        try:
            resume.wait(TIMEOUT)
        finally:
            resume.kill()
        resumes.append(resume.ended - resume.launch)
        rss.append(resume.rss_mb)
        resumed = _fabric_stats((work / "resume.err").read_text())
        ok = resume.returncode == 0 and resumed.get("fabric.dispatched") == 0
        ctx.checker.record(ok, f"campaign resume exited {resume.returncode}, stats {resumed}")
    out["resumes"] = resumes
    out["rss_mb"] = max(rss)
    out["fabric_resume"] = resumed

    cache = ResultCache(work / "cache")
    instructions = 0
    for spec in specs:
        result = cache.get(spec.key())
        if result is None:
            ctx.checker.fail(f"{common.label(spec)}: no result in the campaign cache")
            continue
        payload = stats_payload(result)
        digest = common.body_digest(common.stats_body(payload))
        key = common.doc_key(spec)
        if ctx.checker.check(key, digest, result.cycles, common.label(spec)):
            out["documents"][key] = payload
        instructions += result.instructions
    out["instructions"] = instructions
    return out
