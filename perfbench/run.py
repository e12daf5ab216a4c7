"""End-to-end benchmark of the repro simulator, with layer-attributed host time.

Usage::

    python3 perfbench/run.py --workload table-matrix --seed 1 --seconds 20 --trace 0

Workloads (``about.json`` records why each was chosen):

* ``table-matrix``   serial ``run_simulation`` over 7 table kernels x 3 techniques;
* ``fig12-campaign`` ``repro campaign run`` of Figure 12's 40 specs, then its resume;
* ``serve-mix``      ``repro serve`` driven closed-loop by two clients.

``--trace 0`` runs untraced passes for ``--seconds`` (and at least the
workload's minimum number of passes) and reports the end-to-end metrics
of BENCHMARK.json.  ``--trace 1`` runs one untraced, one traced and one
profiled pass and reports the per-layer metrics.  Every output is checked
against ``expected.json``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

All times are host time.  Modelled caches start empty in every run, as in
every ``repro`` run.  The model is unvalidated against hardware (the repo
holds only the paper's Sniper h-means), so no error figure is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import common

WORKLOAD_MODULES = ("wl_matrix", "wl_campaign", "wl_serve")

#: Workload-specific names the report also prints generic metrics under.
ALIASES = {
    "table-matrix": {"op_p50_ms": ("run_p50_s", 1e-3), "op_tail_ms": ("run_p90_s", 1e-3)},
    "fig12-campaign": {},
    "serve-mix": {
        "op_p50_ms": ("req_p50_ms", 1.0),
        "op_tail_ms": ("req_p99_ms", 1.0),
        "ops_per_s": ("req_per_s", 1.0),
    },
}


class Context:
    """State one benchmark run shares across its passes."""

    def __init__(self, seed: int, smoke: bool, checker: common.Checker, work: Path):
        self.seed = seed
        self.smoke = smoke
        self.checker = checker
        self.work = work

    def pass_dir(self, index: int, mode: str) -> Path:
        path = self.work / f"{mode or 'plain'}-{index}"
        path.mkdir(parents=True)
        return path


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def own_rss_mb() -> float:
    """Largest resident set of this process so far (it runs the held-out
    serial checks of serve-mix)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(module, ctx: Context, seconds: float):
    start = time.perf_counter()
    passes = []
    while len(passes) < module.MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(module.run_pass(ctx, len(passes)))
        passes[-1]["rss_mb"] = max(passes[-1].get("rss_mb", 0.0), own_rss_mb())
        if ctx.smoke:
            break
    done = [p for p in passes if p.get("op_wall")]
    latencies = [x for p in passes for x in p["latencies"]]
    setups = [x for p in passes for x in p["setup"]]
    resumes = [x for p in passes for x in p.get("resumes", ())]
    if not (done and latencies and setups and resumes):
        return None, len(passes), {}
    # Rates are pooled over the passes (total work over total time): on a
    # shared host the speed of one pass varies by 20%, and the pooled rate
    # of a run is steadier than the median of a few passes.
    op_seconds = sum(p["op_wall"] for p in done)
    metrics = {
        "setup_s": common.median(setups),
        "sim_kips": sum(p["instructions"] for p in done) / op_seconds / 1e3,
        "op_p50_ms": common.percentile(latencies, 50) * 1e3,
        "op_tail_ms": common.percentile(latencies, module.TAIL) * 1e3,
        "ops_per_s": sum(p["ops"] for p in done) / op_seconds,
        "resume_s": common.median(resumes),
        "peak_rss_mb": common.median([p["rss_mb"] for p in done]),
    }
    counts = {"setup_s": len(setups), "op_p50_ms": len(latencies),
              "op_tail_ms": len(latencies), "resume_s": len(resumes)}
    return metrics, len(passes), counts


def traced_run(module, ctx: Context):
    import layers

    plain = module.run_pass(ctx, 0, "")
    traced = module.run_pass(ctx, 0, "trace")
    profiled = module.run_pass(ctx, 0, "profile")
    if not all(p.get("op_wall") for p in (plain, traced, profiled)):
        return None, 3, {}
    return layers.per_layer(plain, traced, profiled), 3, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one pass over a few specs (the benchmark's self-test)",
    )
    parser.add_argument(
        "--expected", type=Path, default=common.EXPECTED_PATH,
        help="table of expected outputs (default perfbench/expected.json)",
    )
    args = parser.parse_args(argv)

    env = environment()
    common.require_repro()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    modules = {m.NAME: m for m in map(__import__, WORKLOAD_MODULES)}
    if args.workload not in modules:
        parser.error(f"--workload must be one of {sorted(modules)}")
    module = modules[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    checker = common.Checker(common.load_expected(args.expected))
    work = common.ROOT / ".perfbench" / f"run-{os.getpid()}"
    ctx = Context(args.seed, args.smoke, checker, work)
    try:
        if args.trace:
            metrics, passes, counts = traced_run(module, ctx)
        else:
            metrics, passes, counts = timed_run(module, ctx, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    if metrics is None:
        for problem in checker.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        print("perfbench: no pass completed; no result", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={passes}")
    print(f"environment: {json.dumps(env)}")
    print("times are host time; modelled caches start empty in every run;"
          " the model is unvalidated against hardware, so no error figure is given")
    out = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        note = f"  (n={counts[entry['name']]})" if entry["name"] in counts else ""
        print(f"{entry['name']:32s} {value:14.6g} {entry['unit']}{note}")
    if not args.trace:
        for generic, (name, scale) in ALIASES[args.workload].items():
            print(f"{name:32s} {metrics[generic] * scale:14.6g}  (= {generic})")
        rate = checker.failed / checker.attempted if checker.attempted else 1.0
        print(f"{'error_rate':32s} {rate:14.6g} ratio"
              f"  ({checker.failed} of {checker.attempted} operations)")
    for problem in checker.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
