"""Per-layer metrics from a traced pass, a profiled pass and the outputs.

Layers are the repo's modules.  Span self time is a span's duration
minus the time its child spans cover; summed by layer over every traced
process of the pass, plus ``other`` (time in no span: the program's
own glue, the benchmark's loop, and idle waiting), it accounts for the
processes' lifetimes, ``traced_proc_s``.  Profile shares are cProfile
self time grouped by ``repro.<package>``, over every profiled process.
"""

from __future__ import annotations

import json
import os
import pstats
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import common

#: Span name prefixes, one per layer: experiments.runner, experiments.spec,
#: experiments.cache, perf.trace, workloads, core, observability (export)
#: and audit.
SPAN_LAYERS = ("runner", "spec", "cache", "trace", "workloads", "core", "export", "audit")

#: Packages whose profile share is reported; top-level modules of
#: ``repro`` count as ``repro``, code outside it as ``outside``.
PROFILE_GROUPS = (
    "audit", "core", "experiments", "frontend", "isa", "memory", "observability",
    "perf", "prefetch", "runahead", "workloads", "repro", "outside",
)


def load_spans(span_dir: Path) -> List[Dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(span_dir).glob("spans-*.json"))]


def _percentile50_ms(values) -> float:
    return common.percentile(values, 50) * 1e3 if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def span_metrics(traced: Dict, plain: Dict) -> Dict[str, float]:
    procs = load_spans(traced["span_dir"])
    durations = defaultdict(list)
    tags = defaultdict(list)
    self_time = defaultdict(float)
    proc_seconds = 0.0
    spec_ops = set()
    for proc in procs:
        spans = proc["spans"]
        proc_seconds += proc["end"] - proc["start"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, op, tag in spans:
            if end and parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, parent, op, tag) in enumerate(spans):
            if not end:
                continue
            durations[name].append(end - start)
            tags[name].append(tag)
            self_time[name.split(".")[0]] += end - start - covered[index]
            if name.startswith("spec."):
                spec_ops.add((proc["pid"], op))

    m: Dict[str, float] = {}
    for prefix in SPAN_LAYERS:
        m[f"self_s.{prefix}"] = self_time.get(prefix, 0.0)
    m["self_s.other"] = proc_seconds - sum(self_time.values())
    m["traced_proc_s"] = proc_seconds
    m["traced_wall_s"] = traced.get("op_wall", 0.0)
    m["tracing.overhead_ratio"] = (
        traced["op_wall"] / plain["op_wall"] - 1.0
        if traced.get("op_wall") and plain.get("op_wall") else 0.0
    )

    m["spec.key_us"] = self_time.get("spec", 0.0) / len(spec_ops) * 1e6 if spec_ops else 0.0
    m["cache.get_ms"] = _mean(durations["cache.get"]) * 1e3
    m["cache.put_ms"] = _mean(durations["cache.put"]) * 1e3
    gets = tags["cache.get"]
    m["cache.hit_ratio"] = gets.count("hit") / len(gets) if gets else 0.0

    timing_runs = len(durations["core.run"])
    m["trace.replay_ratio"] = tags["trace.load"].count("hit") / timing_runs if timing_runs else 0.0
    trace_io = sum(durations["trace.load"]) + sum(durations["trace.store"])
    m["trace.io_ms"] = trace_io / timing_runs * 1e3 if timing_runs else 0.0

    builds = tags["workloads.build"]
    m["workloads.build_s"] = sum(durations["workloads.build"])
    sim_seconds = sum(durations["runner.run_simulation"])
    m["workloads.build_share"] = m["workloads.build_s"] / sim_seconds if sim_seconds else 0.0
    m["workloads.rebuild_ratio"] = (len(builds) - len(set(builds))) / len(builds) if builds else 0.0

    m["core.run_s"] = sum(durations["core.run"])
    per_technique = defaultdict(lambda: [0.0, 0])
    for seconds, tag in zip(durations["core.run"], tags["core.run"]):
        technique, instructions = tag.split(":")
        per_technique[technique][0] += seconds
        per_technique[technique][1] += int(instructions)
    for technique in common.TECHNIQUES:
        seconds, instructions = per_technique[technique]
        m[f"core.host_us_per_instr.{technique}"] = (
            seconds / instructions * 1e6 if instructions else 0.0
        )

    exports = len(durations["export.stats"])
    stats_dumps = [d for d, t in zip(durations["export.dump"], tags["export.dump"])
                   if t == "repro.stats/1"]
    m["export.stats_ms"] = (
        (sum(durations["export.stats"]) + sum(stats_dumps)) / exports * 1e3 if exports else 0.0
    )
    m["audit.run_s"] = sum(durations["audit.run"])

    window = traced.get("campaign_window")
    m["fabric.worker_busy_share"] = (
        sim_seconds / (traced["workers"] * (window[1] - window[0])) if window else 0.0
    )
    return m


def exact_metrics(documents: Dict[str, Dict]) -> Dict[str, float]:
    """Simulated-machine ratios over the distinct specs a pass ran."""
    totals = defaultdict(float)
    for doc in documents.values():
        totals["instructions"] += doc["instructions"]
        for name, value in doc["counters"].items():
            if name.startswith("mem.prefetch.issued."):
                totals["prefetch_issued"] += value
            elif name in (
                "core.cycles", "core.sched.cycles.skipped", "mem.demand.loads",
                "mem.prefetch.timeliness.Unused", "mem.prefetch.tracked", "vr.engine.slices",
            ):
                totals[name] += value
    kinstr = totals["instructions"] / 1e3
    tracked = totals["mem.prefetch.tracked"]
    return {
        "core.sched.skip_ratio": (
            totals["core.sched.cycles.skipped"] / totals["core.cycles"]
            if totals["core.cycles"] else 0.0
        ),
        "mem.accesses_per_kinstr": (
            (totals["mem.demand.loads"] + totals["prefetch_issued"]) / kinstr if kinstr else 0.0
        ),
        "mem.prefetch.useful_ratio": (
            1.0 - totals["mem.prefetch.timeliness.Unused"] / tracked if tracked else 0.0
        ),
        "vr.engine.slices_per_kinstr": totals["vr.engine.slices"] / kinstr if kinstr else 0.0,
    }


def profile_shares(span_dir: Path) -> Dict[str, float]:
    """cProfile self time per ``repro`` package, as shares of the total."""
    package_root = str((common.SRC / "repro").resolve()) + os.sep
    seconds = defaultdict(float)
    for path in sorted(Path(span_dir).glob("prof-*.pstats")):
        for (filename, _line, _func), row in pstats.Stats(str(path)).stats.items():
            if filename.startswith(package_root):
                rest = filename[len(package_root):]
                group = rest.split(os.sep, 1)[0] if os.sep in rest else "repro"
            else:
                group = "outside"
            seconds[group] += row[2]
    whole = sum(seconds.values())
    return {
        f"{group}.self_share": seconds[group] / whole if whole else 0.0
        for group in PROFILE_GROUPS
    }


def serve_metrics(traced: Dict) -> Dict[str, float]:
    samples = defaultdict(list)
    for kind, seconds in traced.get("served", []):
        samples[kind].append(seconds)
    counters = traced.get("serve", {})
    return {
        "serve.hit_ms": _percentile50_ms(samples["hit"]),
        "serve.miss_ms": _percentile50_ms(samples["miss"]),
        "serve.coalesced_ms": _percentile50_ms(samples["coalesced"]),
        "serve.audit_ms": _percentile50_ms(samples["audit"]),
        "serve.hits": counters.get("serve.cache_hits", 0.0),
        "serve.coalesced": counters.get("serve.coalesced", 0.0),
        "serve.misses": counters.get("serve.misses", 0.0),
        "serve.failures": counters.get("serve.failures", 0.0),
    }


def fabric_metrics(traced: Dict) -> Dict[str, float]:
    first = traced.get("fabric", {})
    resume = traced.get("fabric_resume", {})
    return {
        "fabric.dispatched": first.get("fabric.dispatched", 0.0),
        "fabric.requeued": first.get("fabric.requeued", 0.0),
        "fabric.resumed": resume.get("fabric.resumed", 0.0),
    }


def per_layer(plain: Dict, traced: Dict, profiled: Dict) -> Dict[str, float]:
    metrics = span_metrics(traced, plain)
    metrics.update(exact_metrics(traced["documents"]))
    metrics.update(profile_shares(profiled["span_dir"]))
    metrics.update(serve_metrics(traced))
    metrics.update(fabric_metrics(traced))
    return metrics
