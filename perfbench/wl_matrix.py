"""table-matrix: the seven table kernels x {ooo, vr, dvr}, serially.

Each pass starts ``matrix_pass.py`` in a fresh interpreter with no
result cache, as a ``repro run``/``compare`` user does, and makes one
``run_simulation`` call per spec, in order.  A second fresh interpreter
then runs the same specs against a result cache the first one filled
(the resume).  The seed shuffles the order of the kernels; the three
techniques of a kernel stay together (ooo, vr, dvr) so that every pass
captures one architectural trace per kernel and replays it twice.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import common

NAME = "table-matrix"
MIN_PASSES = 5  # 5 x 21 specs leaves 10 samples beyond p90
TAIL = 90
TIMEOUT = 170.0


def pass_specs(seed: int, pass_index: int, smoke: bool):
    kernels = list(common.TABLE_KERNELS)
    random.Random(f"{seed}:{pass_index}").shuffle(kernels)
    if smoke:
        kernels = kernels[:2]
    by_kernel = {}
    for spec in common.matrix_specs():
        by_kernel.setdefault(spec.workload, []).append(spec)
    return [spec for kernel in kernels for spec in by_kernel[kernel]]


def _child(work, tag, args, env):
    """Run one pass interpreter to its end."""
    with open(work / f"{tag}.err", "w") as err:
        child = common.Child(
            [sys.executable, str(common.BENCH / "matrix_pass.py"), *args],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
    try:
        child.wait(TIMEOUT)
    finally:
        child.kill()
    if child.returncode != 0:
        raise RuntimeError((work / f"{tag}.err").read_text()[-400:])
    return child


def run_pass(ctx, pass_index: int, mode: str = "") -> dict:
    work = ctx.pass_dir(pass_index, mode)
    specs = pass_specs(ctx.seed, pass_index, ctx.smoke)
    specs_path = work / "specs.json"
    specs_path.write_text(json.dumps([s.to_payload() for s in specs]))
    span_dir = work / "spans"
    # The pass interpreter starts its tracer or profiler after its imports,
    # so the profile splits the simulation, not start-up.
    env = common.child_env(mode, span_dir, hook=False)
    out = {"setup": [], "latencies": [], "documents": {}, "span_dir": span_dir, "rss_mb": 0.0}

    store = work / "cache"
    try:
        cold = _child(work, "cold", [str(specs_path), str(work / "cold.json"),
                                     "--fill-cache", str(store)], env)
    except RuntimeError as exc:
        ctx.checker.fail(f"matrix pass failed: {exc}")
        return out
    report = json.loads((work / "cold.json").read_text())
    ops = report["ops"]
    out["setup"].append(report["ready"] - cold.launch)
    for op, spec, doc in zip(ops, specs, report["documents"]):
        if ctx.checker.check(op["key"], op["digest"], op["cycles"], common.label(spec)):
            out["latencies"].append(op["end"] - op["start"])
            out["documents"][op["key"]] = doc
    out["op_wall"] = ops[-1]["end"] - ops[0]["start"]
    out["ops"] = len(ops)
    out["instructions"] = sum(op["instructions"] for op in ops)

    try:
        warm = _child(work, "warm", [str(specs_path), str(work / "warm.json"),
                                     "--cache", str(store)], env)
    except RuntimeError as exc:
        ctx.checker.fail(f"matrix resume failed: {exc}")
        return out
    report = json.loads((work / "warm.json").read_text())
    out["setup"].append(report["ready"] - warm.launch)
    for op, spec in zip(report["ops"], specs):
        ctx.checker.check(op["key"], op["digest"], op["cycles"], "resume " + common.label(spec))
    out["resumes"] = [report["ops"][-1]["end"] - warm.launch]
    out["rss_mb"] = max(cold.rss_mb, warm.rss_mb)
    return out
