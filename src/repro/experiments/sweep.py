"""Generic parameter sweeps and multi-seed comparisons.

Two building blocks beyond the fixed paper figures:

* :func:`run_sweep` — vary one configuration parameter (addressed by a
  dotted path like ``runahead.dvr_lanes`` or ``core.rob_size``) and
  report IPC/speedup at each point, optionally averaged over several
  workload seeds.
* :func:`compare_techniques` — a workload x technique speedup matrix
  with mean and standard deviation over seeds.

Both return :class:`ExperimentResult` so they print/export like the
paper figures, and both back the ``repro sweep`` / ``repro compare``
CLI commands. Each is a plan like a figure (:func:`sweep_plan`,
:func:`compare_plan`) that :func:`~repro.experiments.batch.run_plan`
runs through one ``run_batch``, so both accept ``jobs`` (process-pool
width) and ``cache`` (a :class:`~repro.experiments.cache.ResultCache`
that re-runs only changed points). Identical specs are deduplicated by
the batch layer — an ``ooo`` baseline swept over ``runahead.*``
parameters, which cannot affect it, simulates once per seed instead of
once per point.
"""

from __future__ import annotations

import statistics
import warnings
from typing import List, Optional, Sequence

from ..config import SimConfig
from .batch import run_plan
from .cache import ResultCache
from .report import ExperimentResult
from .spec import RunSpec, apply_override


def _seed_list(seeds: Optional[Sequence[int]]) -> List[Optional[int]]:
    if not seeds:
        return [None]
    return list(seeds)


def sweep_plan(
    workload: str,
    technique: str,
    parameter: str,
    values: Sequence,
    instructions: int = 8_000,
    seeds: Optional[Sequence[int]] = None,
    baseline_technique: str = "ooo",
    input_name: Optional[str] = None,
):
    """The plan ``(specs, reduce)`` behind :func:`run_sweep`.

    Per value, per seed: one baseline spec and one technique spec, in
    that order. A baseline whose behaviour the swept parameter cannot
    change (the plain ``ooo`` core under a ``runahead.*`` parameter —
    that section only parameterises runahead engines) keeps the
    *unmodified* config, so the batch layer deduplicates it to one run
    per seed.
    """
    seed_list = _seed_list(seeds)
    multi = len(seed_list) > 1
    base_config = SimConfig(max_instructions=instructions)
    baseline_invariant = (
        baseline_technique == "ooo" and parameter.split(".", 1)[0] == "runahead"
    )
    specs: List[RunSpec] = []
    points = []
    for value in values:
        # Validate the path/value eagerly (typos fail before any run);
        # the spec itself carries the override, so resolution knows the
        # parameter was *explicitly* swept — a pinned ablation field
        # raises ConfigError instead of being silently overridden.
        apply_override(base_config, parameter, value)
        sweep_overrides = ((parameter, value),)
        pairs = []
        for seed in seed_list:
            pairs.append((len(specs), len(specs) + 1))
            for tech, overrides in (
                (baseline_technique, () if baseline_invariant else sweep_overrides),
                (technique, sweep_overrides),
            ):
                specs.append(RunSpec(
                    workload, technique=tech, config=base_config, overrides=overrides,
                    input_name=input_name, seed=seed,
                ))
        points.append((value, pairs))

    def reduce(results) -> ExperimentResult:
        rows: List[List] = []
        for value, pairs in points:
            ipcs = [results[run].ipc for _base, run in pairs]
            speedups = [
                results[run].ipc / results[base].ipc for base, run in pairs if results[base].ipc
            ]
            if speedups:
                mean_speedup = statistics.fmean(speedups)
            else:
                mean_speedup = 0.0
                warnings.warn(
                    f"baseline {baseline_technique!r} IPC is 0 for every seed at "
                    f"{parameter}={value!r}; reporting speedup 0.0",
                    RuntimeWarning,
                    stacklevel=3,  # the caller of run_plan
                )
            row: List = [value, statistics.fmean(ipcs), mean_speedup]
            if multi:
                row.append(statistics.stdev(speedups) if len(speedups) > 1 else 0.0)
            rows.append(row)
        headers = [parameter, "ipc", f"speedup_vs_{baseline_technique}"]
        if multi:
            headers.append("speedup_stdev")
        return ExperimentResult(
            "sweep",
            f"{workload}/{technique}: sweep of {parameter}"
            + (f" over {len(seed_list)} seeds" if multi else ""),
            headers,
            rows,
        )

    return specs, reduce


def sweep_specs(
    workload: str,
    technique: str,
    parameter: str,
    values: Sequence,
    instructions: int = 8_000,
    seeds: Optional[Sequence[int]] = None,
    baseline_technique: str = "ooo",
    input_name: Optional[str] = None,
) -> List[RunSpec]:
    """The exact :class:`RunSpec` list :func:`run_sweep` will run."""
    return sweep_plan(
        workload, technique, parameter, values, instructions, seeds, baseline_technique, input_name
    )[0]


def run_sweep(
    workload: str,
    technique: str,
    parameter: str,
    values: Sequence,
    instructions: int = 8_000,
    seeds: Optional[Sequence[int]] = None,
    baseline_technique: str = "ooo",
    input_name: Optional[str] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    audit: bool = False,
) -> ExperimentResult:
    """Sweep one config parameter; rows: value, mean IPC, mean speedup.

    ``audit=True`` runs every point under the ``repro.audit`` invariant
    sanitizer (see ``docs/audit.md``); a broken law fails the sweep.

    A baseline whose behaviour the swept parameter cannot change (the
    plain ``ooo`` core under a ``runahead.*`` parameter) is simulated
    with the *unmodified* config, so the batch layer runs it once per
    seed and every swept point reuses it. A baseline that commits zero
    instructions at some point yields a speedup of 0.0 there, with a
    ``RuntimeWarning`` — the sweep completes instead of crashing.
    """
    plan = sweep_plan(
        workload, technique, parameter, values, instructions, seeds, baseline_technique, input_name
    )
    return run_plan(plan, jobs=jobs, cache=cache, audit=audit)


def compare_plan(
    workloads: Sequence[str],
    techniques: Sequence[str],
    instructions: int = 8_000,
    seeds: Optional[Sequence[int]] = None,
    input_name: Optional[str] = None,
):
    """The plan ``(specs, reduce)`` behind :func:`compare_techniques`.

    Per workload: the ``ooo`` baseline (once per seed), then each
    technique once per seed, in column order.
    """
    seed_list = _seed_list(seeds)
    multi = len(seed_list) > 1
    config = SimConfig(max_instructions=instructions)
    specs: List[RunSpec] = []
    points = []
    for workload in workloads:
        columns = []
        for tech in ["ooo", *techniques]:
            columns.append(range(len(specs), len(specs) + len(seed_list)))
            specs += [
                RunSpec(workload, technique=tech, config=config, input_name=input_name, seed=seed)
                for seed in seed_list
            ]
        points.append((workload, columns))

    def reduce(results) -> ExperimentResult:
        headers = ["workload"]
        for tech in techniques:
            headers.append(tech)
            if multi:
                headers.append(f"{tech}_stdev")
        rows: List[List] = []
        for workload, (bases, *columns) in points:
            row: List = [workload]
            for runs in columns:
                speedups = [
                    results[run].ipc / results[base].ipc if results[base].ipc else 0.0
                    for base, run in zip(bases, runs)
                ]
                row.append(statistics.fmean(speedups))
                if multi:
                    row.append(statistics.stdev(speedups))
            rows.append(row)
        return ExperimentResult(
            "compare",
            "Speedup over OoO" + (f" (mean over {len(seed_list)} seeds)" if multi else ""),
            headers,
            rows,
        )

    return specs, reduce


def compare_specs(
    workloads: Sequence[str],
    techniques: Sequence[str],
    instructions: int = 8_000,
    seeds: Optional[Sequence[int]] = None,
    input_name: Optional[str] = None,
) -> List[RunSpec]:
    """The exact :class:`RunSpec` list :func:`compare_techniques` runs."""
    return compare_plan(workloads, techniques, instructions, seeds, input_name)[0]


def compare_techniques(
    workloads: Sequence[str],
    techniques: Sequence[str],
    instructions: int = 8_000,
    seeds: Optional[Sequence[int]] = None,
    input_name: Optional[str] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    audit: bool = False,
) -> ExperimentResult:
    """Speedup matrix (mean over seeds; +/- stdev columns when >1 seed).

    The per-seed ``ooo`` baseline is one content-addressed spec, so an
    ``"ooo"`` entry in ``techniques`` reuses it instead of simulating a
    second time.
    """
    plan = compare_plan(workloads, techniques, instructions, seeds, input_name)
    return run_plan(plan, jobs=jobs, cache=cache, audit=audit)
