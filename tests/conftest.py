"""Shared fixtures and kernel builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimConfig
from repro.isa import ProgramBuilder
from repro.memory import MemoryImage


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ reference digests from the current run",
    )


@pytest.fixture
def update_goldens(request):
    return request.config.getoption("--update-goldens")


def quick_config(max_instructions: int = 6_000, **overrides) -> SimConfig:
    """A config sized for tests: same structure, short regions."""
    from dataclasses import replace

    return replace(SimConfig(max_instructions=max_instructions), **overrides)


def build_indirect_kernel(n: int = 4096, levels: int = 1, seed: int = 3):
    """``sink = A_levels[... A_1[A_0[i]] ...]`` — the canonical chain.

    Returns (program, memory). Level 0 is the striding load; each
    further level is an indirect load through random indices.
    """
    rng = np.random.default_rng(seed)
    mem = MemoryImage()
    arrays = []
    for level in range(levels + 1):
        data = rng.integers(0, n, n)
        arrays.append(mem.allocate(f"A{level}", data))
    b = ProgramBuilder(f"indirect{levels}")
    for level, seg in enumerate(arrays):
        b.li(f"r{20 + level}", seg.base)
    b.li("r1", 0)      # i
    b.li("r2", n)      # bound
    b.label("loop")
    b.shli("r3", "r1", 3)
    b.add("r3", "r20", "r3")
    b.load("r4", "r3")  # A0[i] — striding
    for level in range(1, levels + 1):
        b.shli("r5", "r4", 3)
        b.add("r5", f"r{20 + level}", "r5")
        b.load("r4", "r5")  # A_level[...]
    b.addi("r1", "r1", 1)
    b.cmp_lt("r6", "r1", "r2")
    b.bnz("r6", "loop")
    b.halt()
    return b.build(), mem


def build_counted_loop(iterations: int):
    """A pure-ALU counted loop (no memory): for i in range(iterations)."""
    b = ProgramBuilder("counted")
    b.li("r1", 0)
    b.li("r2", iterations)
    b.label("loop")
    b.addi("r3", "r1", 7)
    b.addi("r1", "r1", 1)
    b.cmp_lt("r4", "r1", "r2")
    b.bnz("r4", "loop")
    b.halt()
    mem = MemoryImage()
    mem.allocate("PAD", 8)
    return b.build(), mem


def build_nested_loop_kernel(outer: int = 64, inner: int = 8, seed: int = 5):
    """Outer striding load feeding short inner loops (Nested-mode bait).

    ``for o: base=START[o]; n=LEN[o]; for j<n: sink=DATA[IDX[base+j]]``
    """
    rng = np.random.default_rng(seed)
    total = outer * inner
    mem = MemoryImage()
    # Outer iterations visit the inner ranges in a shuffled order (as a
    # BFS worklist would), so runs past a range boundary prefetch data
    # belonging to a *different*, arbitrarily distant outer iteration.
    start = mem.allocate(
        "START", rng.permutation(outer).astype(np.int64) * inner
    )
    length = mem.allocate("LEN", np.full(outer, inner, dtype=np.int64))
    idx = mem.allocate("IDX", rng.integers(0, total, total))
    data = mem.allocate("DATA", rng.integers(0, 1 << 20, total))
    b = ProgramBuilder("nested")
    b.li("r1", start.base)
    b.li("r2", length.base)
    b.li("r3", idx.base)
    b.li("r4", data.base)
    b.li("r5", outer)
    b.li("r6", 0)  # o
    b.label("outer")
    b.shli("r7", "r6", 3)
    b.add("r8", "r1", "r7")
    b.load("r9", "r8")   # base = START[o]  (outer stride)
    b.add("r10", "r2", "r7")
    b.load("r11", "r10")  # n = LEN[o]
    b.add("r11", "r11", "r9")  # end = base + n
    b.mov("r12", "r9")  # j = base
    b.cmp_lt("r13", "r12", "r11")
    b.bez("r13", "inner_done")
    b.label("inner")
    b.shli("r14", "r12", 3)
    b.add("r14", "r3", "r14")
    b.load("r15", "r14")  # v = IDX[j]  (inner stride)
    b.shli("r16", "r15", 3)
    b.add("r16", "r4", "r16")
    b.load("r17", "r16")  # DATA[v]   (indirect, FLR)
    b.addi("r12", "r12", 1)
    b.cmp_lt("r13", "r12", "r11")
    b.bnz("r13", "inner")
    b.label("inner_done")
    b.addi("r6", "r6", 1)
    b.cmp_lt("r18", "r6", "r5")
    b.bnz("r18", "outer")
    b.halt()
    return b.build(), mem


@pytest.fixture
def indirect_kernel():
    return build_indirect_kernel()


@pytest.fixture
def nested_kernel():
    return build_nested_loop_kernel()


@pytest.fixture
def kill_pool_workers(monkeypatch, tmp_path):
    """Arm a real worker death inside a forked worker process.

    ``arm(once=True, victim=None, after=None)`` replaces
    ``batch.run_simulation`` with a wrapper that forked workers inherit,
    the batch pool's and a campaign's alike. The wrapper logs
    ``start``/``done`` lines per workload to the returned log file and
    SIGKILLs the worker running ``victim`` (any workload when ``None``):
    only the first time when ``once``, and only after the log shows
    ``after`` finished when given. It never kills the test process
    itself.
    """
    import os
    import signal
    import time

    from repro.experiments import batch

    real = batch.run_simulation
    test_pid = os.getpid()
    log = tmp_path / "runs.log"
    marker = tmp_path / "killed"

    def note(line):
        with open(log, "a") as handle:
            handle.write(line + "\n")

    def arm(once=True, victim=None, after=None):
        def run_simulation(spec, **runtime):
            assert os.getpid() != test_pid, "the spec ran outside the pool"
            note(f"start {spec.workload}")
            if victim in (None, spec.workload) and not (once and marker.exists()):
                for _ in range(1000 if after else 0):
                    if f"done {after}" in log.read_text():
                        time.sleep(0.2)  # let that result reach the parent
                        break
                    time.sleep(0.01)
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            result = real(spec, **runtime)
            note(f"done {spec.workload}")
            return result

        monkeypatch.setattr(batch, "run_simulation", run_simulation)
        return log

    return arm
