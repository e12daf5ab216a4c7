"""Paths, specs, digests and statistics shared by the benchmark's files."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HOOK = BENCH / "hook"
EXPECTED_PATH = BENCH / "expected.json"

#: The seven kernels whose inputs are tables, not graphs.
TABLE_KERNELS = (
    "camel", "hj2", "hj8", "kangaroo", "nas_cg", "nas_is", "random_access",
)
#: Kernels whose build makes a graph (about 0.2 s each at default size).
GRAPH_KERNELS = ("bc", "bfs", "cc", "pr", "sssp", "graph500")
#: The paper's 13 kernels, in the repo's order.
ALL_KERNELS = (
    "bc", "bfs", "cc", "pr", "sssp", "camel", "graph500",
    "hj2", "hj8", "kangaroo", "nas_cg", "nas_is", "random_access",
)
TECHNIQUES = ("ooo", "vr", "dvr")

MATRIX_INSTRUCTIONS = 15_000
FIG12_INSTRUCTIONS = 10_000
SERVE_INSTRUCTIONS = 5_000
#: Data seeds of the novel serve specs whose outputs expected.json holds.
NOVEL_SEEDS = tuple(range(101, 109))
#: Novel serve specs held out of expected.json use data seeds from here.
HELDOUT_SEED_BASE = 1_000


def require_repro():
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return repro


def child_env(mode: str = "", span_dir: Path = None, hook: bool = True) -> Dict[str, str]:
    """Environment of a program process; ``mode`` is trace or profile.

    With ``hook`` the tracer or profiler starts with every Python process
    (``hook/sitecustomize.py``); without it, only in a process that calls
    ``pb_spans.install()`` itself, after its imports.
    """
    env = dict(os.environ)
    env.pop("PERFBENCH_MODE", None)
    env.pop("PERFBENCH_SPAN_DIR", None)
    env.pop("REPRO_CACHE_DIR", None)
    path = [str(SRC)]
    if mode:
        if hook:
            path.append(str(HOOK))
        env["PERFBENCH_MODE"] = mode
        env["PERFBENCH_SPAN_DIR"] = str(span_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    # The same string hashes, and so the same dict and set layouts, in
    # every run: one less source of run-to-run variation in host time.
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A process the benchmark starts, reaped with its peak resident set.

    ``os.wait4`` reports the largest resident set of the process and of
    every descendant it waited for (campaign workers, a server's pool).
    """

    def __init__(self, command, **popen_kwargs):
        self.launch = time.perf_counter()
        self.proc = subprocess.Popen(command, **popen_kwargs)
        self.pid = self.proc.pid
        self.returncode = None
        self.ended = None
        self.rss_mb = 0.0

    def poll(self) -> bool:
        """Whether the process has exited; reaps it when it has."""
        if self.returncode is None:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                self.ended = time.perf_counter()
                self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rss_mb = usage.ru_maxrss / 1024.0
        return self.returncode is not None

    def wait(self, timeout: float) -> int:
        """Wait for exit; past ``timeout`` seconds kill it and raise."""
        deadline = time.perf_counter() + timeout
        while not self.poll():
            if time.perf_counter() > deadline:
                self.kill()
                raise TimeoutError(f"{self.proc.args} did not exit in {timeout} s")
            time.sleep(0.001)
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:
            self.proc.kill()
            while not self.poll():
                time.sleep(0.001)


# -- specs --------------------------------------------------------------------


def matrix_specs():
    from repro import RunSpec

    return [
        RunSpec(w, technique=t, max_instructions=MATRIX_INSTRUCTIONS)
        for w in TABLE_KERNELS
        for t in TECHNIQUES
    ]


def fig12_specs():
    from repro.experiments.figures import figure_specs

    return figure_specs("figure12", instructions=FIG12_INSTRUCTIONS)


def serve_spec(workload: str, technique: str, seed=None):
    from repro import RunSpec

    return RunSpec(
        workload, technique=technique, max_instructions=SERVE_INSTRUCTIONS, seed=seed
    )


def serve_hot_specs():
    return [serve_spec(w, t) for w in ALL_KERNELS for t in TECHNIQUES]


def serve_novel_specs():
    return [
        serve_spec(w, t, s) for w in ALL_KERNELS for t in TECHNIQUES for s in NOVEL_SEEDS
    ]


# -- identity and digests -------------------------------------------------------


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def doc_key(spec) -> str:
    """Key of a spec in expected.json: a digest of its spec document.

    ``RunSpec.key()`` would embed the code fingerprint, which changes
    with every source edit; the document does not.
    """
    blob = canonical(spec.to_payload()).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def body_digest(body: bytes) -> str:
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def stats_body(payload: Dict) -> bytes:
    """A ``repro.stats/1`` document as ``repro serve`` writes it."""
    return json.dumps(payload, sort_keys=True).encode()


def label(spec) -> str:
    parts = [spec.workload, spec.technique]
    if spec.seed is not None:
        parts.append(f"seed={spec.seed}")
    cfg = spec.config
    if cfg is not None:
        parts.append(f"rob={cfg.core.rob_size}")
    return "/".join(parts)


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict]:
    with open(path) as handle:
        return json.load(handle)["entries"]


class Checker:
    """Counts operations and compares outputs with the expected table."""

    def __init__(self, expected: Dict[str, Dict]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        """Count one operation; ``what`` describes it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def fail(self, what: str) -> bool:
        return self.record(False, what)

    def check(self, key: str, digest: str, cycles: int, what: str) -> bool:
        """One operation's output against the stored digest and cycles."""
        entry = self.expected.get(key)
        if entry is None:
            return self.fail(f"{what}: no expected entry")
        return self.record(
            entry["digest"] == digest and entry["cycles"] == cycles,
            f"{what}: digest/cycles differ from expected.json",
        )


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
