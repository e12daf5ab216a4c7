"""Command-line interface: ``repro`` (or ``python -m repro``).

Examples::

    repro list
    repro run --workload camel --technique dvr -n 20000
    repro figure figure7 -n 10000
    repro table table2
    repro batch specs.json --jobs 8 --cache .repro-cache
    repro campaign run specs.json --workers 4 --manifest camp/ --cache
    repro cache stats --dir .repro-cache
    repro sweep --workload nas_cg --technique dvr \\
          --param runahead.dvr_lanes --values 32 64 --cache

A flag that several subcommands take is defined once, in ``_FLAGS``.
A usage or input error is raised as a ``ReproError`` and leaves through
:func:`main` as one ``error:`` line and exit 2 (docs/README.md lists the
exit codes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import __version__, experiments
from .techniques import technique_names
from .workloads import GRAPH_PROFILES, WORKLOAD_NAMES

# Each subcommand imports what it runs inside its handler, so `repro run`
# never loads the batch pool, the campaign fabric or the HTTP server.
# Figure names are repro.experiments.figure_plan's; table names map to
# their generators in repro.experiments.
_FIGURES = (
    "figure2", "figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
    "lanes", "tlb",
)
_TABLES = {"table1": "table1_rows", "table2": "table2_rows", "hwcost": "hardware_cost_table"}
_TECHNIQUES = technique_names() + ["swpf"]


def _flag(*option_strings: str, **kwargs):
    return option_strings, kwargs


#: Every flag more than one subcommand takes, defined once: its option
#: strings and ``add_argument`` keywords. A subcommand takes entries with
#: :func:`_add`, naming only the keywords it sets differently.
_FLAGS = {
    "workload": _flag("--workload", choices=WORKLOAD_NAMES),
    "workloads": _flag("--workloads", nargs="+", choices=WORKLOAD_NAMES),
    "technique": _flag("--technique", default="ooo", choices=_TECHNIQUES),
    "techniques": _flag("--techniques", nargs="+", choices=_TECHNIQUES),
    "instructions": _flag(
        "-n", "--instructions", type=int, default=8_000,
        help="instructions to simulate per run",
    ),
    "seeds": _flag("--seeds", type=int, default=1, help="workload seeds to average"),
    "format": _flag("--format", choices=["text", "csv", "json"], default="text"),
    "jobs": _flag(
        "--jobs", type=int, default=None, metavar="N",
        help="simulate across N worker processes",
    ),
    "cache": _flag(
        "--cache", nargs="?", const="", default=None, metavar="DIR",
        help="serve results from (and store them into) an on-disk result"
        " cache; DIR defaults to $REPRO_CACHE_DIR or ~/.cache/repro",
    ),
    "resume": _flag(
        "--resume", action="store_true",
        help="re-run only the points missing from the cache (implies --cache)",
    ),
    "audit": _flag(
        "--audit", action="store_true",
        help="run the repro.audit invariant sanitizer on every simulation"
        " (fresh runs only — bypasses the result cache; see docs/audit.md)",
    ),
    "dump_spec": _flag(
        "--dump-spec", action="store_true",
        help="print the canonical resolved repro.spec/1 document(s) this"
        " command would run (consumable by 'repro run --spec' / 'repro"
        " batch --specs') and exit without simulating",
    ),
    "specs": _flag(
        "--specs", metavar="FILE", default=None,
        help="JSON spec file: a list of repro.spec/1 documents, or one",
    ),
    "retries": _flag(
        "--retries", type=int, default=2,
        help="re-dispatches of a spec whose worker died before it fails",
    ),
    "json": _flag("--json", action="store_true", help="print machine-readable JSON"),
    "dir": _flag(
        "--dir", metavar="DIR", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    ),
}


def _add(parser: argparse.ArgumentParser, *names: str, **changes: dict) -> None:
    """Add the shared flags ``names`` to ``parser``, in order; ``changes``
    maps an entry to the keywords this subcommand sets differently."""
    for name in names:
        flags, kwargs = _FLAGS[name]
        parser.add_argument(*flags, **{**kwargs, **changes.get(name, {})})


def _check_bounds(*bounds) -> None:
    """Reject the first ``(flag, value, op, bound)`` whose value fails
    ``value op bound`` (``op`` is ``">="`` or ``">"``; ``None`` passes)."""
    for flag, value, op, bound in bounds:
        if value is not None and not (value >= bound if op == ">=" else value > bound):
            from .errors import ReproError

            raise ReproError(f"{flag} must be {op} {bound}, got {value}")


def _make_cache(args):
    """The ResultCache that --cache/--resume ask for, or None; a subcommand
    without one of those flags leaves it unset."""
    path, resume = getattr(args, "cache", None), getattr(args, "resume", False)
    if path is None and not resume:
        return None
    from .experiments import ResultCache

    return ResultCache(path or None)


def _emit_stats(family: str, snapshot=None) -> None:
    """One stderr line with a whole counter family, ``<family> stats``.
    The ``batch`` family comes from the process-wide registry, with every
    name present (at zero when untouched) so a consumer can grep any."""
    if snapshot is None:
        from .experiments.cache import BATCH_COUNTER_NAMES, BATCH_COUNTERS

        for name in BATCH_COUNTER_NAMES:
            BATCH_COUNTERS.counter(name)
        snapshot = BATCH_COUNTERS.snapshot()
    line = " ".join(f"{k}={v:g}" for k, v in sorted(snapshot.items()))
    print(f"{family + ' stats':13}: {line}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vector Runahead / Decoupled Vector Runahead reproduction",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    text_or_json = {"choices": ["text", "json"]}

    list_p = sub.add_parser("list", help="list workloads, techniques, and experiments")
    _add(list_p, "json")

    run_p = sub.add_parser("run", help="simulate one workload/technique pair")
    _add(run_p, "workload")
    run_p.add_argument(
        "--spec", metavar="FILE", default=None,
        help="run the repro.spec/1 document in FILE instead of describing"
        " the run with flags (mutually exclusive with --workload)",
    )
    _add(run_p, "technique")
    run_p.add_argument("--input", default=None, choices=sorted(GRAPH_PROFILES))
    _add(run_p, "instructions", instructions={"default": 20_000})
    run_p.add_argument(
        "--cpi", action="store_true", help="print the CPI-stack breakdown"
    )
    run_p.add_argument(
        "--counters", action="store_true",
        help="print the full hierarchical counter registry",
    )
    run_p.add_argument(
        "--stats-out", metavar="FILE", default=None,
        help="write a repro.stats/1 JSON stats document",
    )
    run_p.add_argument(
        "--trace", action="store_true",
        help="record the structured event trace (fetch/issue/complete/retire"
        " plus runahead events) and report its digest",
    )
    run_p.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the traced events (implies --trace; .csv for CSV,"
        " anything else JSONL)",
    )
    run_p.add_argument(
        "--trace-capacity", type=int, default=65_536,
        help="event ring-buffer capacity (digest covers all events)",
    )
    _add(run_p, "audit", "dump_spec")

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("name", choices=sorted(_FIGURES))
    _add(
        fig_p, "instructions", "workloads", "format", "jobs", "cache", "resume", "dump_spec",
        instructions={"default": 15_000}, workloads={"nargs": "*", "choices": None},
    )

    tab_p = sub.add_parser("table", help="regenerate a paper table")
    tab_p.add_argument("name", choices=sorted(_TABLES))
    _add(tab_p, "instructions", "format")

    sweep_p = sub.add_parser("sweep", help="sweep one config parameter")
    _add(sweep_p, "workload", "technique",
         workload={"required": True}, technique={"default": "dvr"})
    sweep_p.add_argument(
        "--param", required=True,
        help="dotted config path, e.g. runahead.dvr_lanes or core.rob_size",
    )
    sweep_p.add_argument("--values", nargs="+", required=True)
    _add(sweep_p, "instructions", "seeds", "format", "audit", "jobs", "cache", "resume",
         "dump_spec")

    cmp_p = sub.add_parser("compare", help="workload x technique speedup matrix")
    _add(
        cmp_p, "workloads", "techniques", "instructions", "seeds", "format", "audit",
        "jobs", "cache", "resume", "dump_spec",
        workloads={"required": True},
        techniques={"default": ["pre", "vr", "dvr"], "choices": None},
    )

    batch_p = sub.add_parser(
        "batch",
        help="run a JSON list of simulation specs, fault-tolerantly",
        description="SPECS is a JSON file holding a list of repro.spec/1"
        " documents and/or run_simulation keyword dicts (workload,"
        " technique, max_instructions, input_name, seed, size); an optional"
        " 'overrides' dict of dotted config paths is applied to the spec's"
        " config. One spec failing never sinks the batch: its slot reports"
        " the error and the exit code is 1.",
    )
    batch_p.add_argument(
        "specs", metavar="SPECS", nargs="?", default=None,
        help="path to the JSON spec file",
    )
    _add(batch_p, "specs", "retries", "format", "audit", "jobs", "cache", "resume",
         "dump_spec", specs={"dest": "specs_opt"}, format=text_or_json)

    camp_p = sub.add_parser(
        "campaign",
        help="distributed sweep fabric: coordinator + pull-based workers",
        description="Run a spec list across pull-based workers (see"
        " docs/fabric.md). 'campaign run' starts a coordinator on an"
        " ephemeral localhost port plus N workers; '--manifest DIR' makes"
        " the campaign resumable (with --cache, a killed campaign resumes"
        " with zero re-simulation). 'campaign worker' joins an existing"
        " coordinator; 'campaign status' inspects a manifest's ledger.",
    )
    camp_sub = camp_p.add_subparsers(dest="campaign_command", required=True)
    crun_p = camp_sub.add_parser(
        "run", help="run a spec list across local pull-based workers"
    )
    crun_p.add_argument(
        "specs", metavar="SPECS", nargs="?", default=None,
        help="JSON file holding a list of repro.spec/1 documents; optional"
        " when --manifest DIR already holds a campaign (resume)",
    )
    crun_p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="number of pull-based workers to spawn",
    )
    crun_p.add_argument(
        "--worker-mode", choices=["thread", "process"], default="process",
        help="worker isolation: one forked process each (default) or"
        " in-process threads (shared interpreter)",
    )
    crun_p.add_argument(
        "--manifest", metavar="DIR", default=None,
        help="campaign directory (repro.campaign/1 manifest + completion"
        " ledger); an existing DIR resumes, a fresh one is created",
    )
    _add(crun_p, "cache", "retries")
    crun_p.add_argument("--lease-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="heartbeat deadline before a lease is requeued")
    crun_p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="abort the campaign if not complete in time")
    crun_p.add_argument(
        "--chaos-workers", type=int, default=0, metavar="N",
        help="additionally spawn N fault-injection workers that each pull"
        " one spec and die holding the lease (recovery smoke test)",
    )
    _add(crun_p, "format", "audit", format=text_or_json)
    cworker_p = camp_sub.add_parser(
        "worker", help="join a running coordinator as one pull-based worker"
    )
    cworker_p.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address of a Coordinator started programmatically (its"
        " .address); 'campaign run' connects its own workers",
    )
    cworker_p.add_argument("--poll", type=float, default=0.1, metavar="SECONDS")
    cworker_p.add_argument(
        "--self-destruct", type=int, default=None, metavar="N",
        help="fault injection: drop the connection after pulling the Nth"
        " spec, holding its lease (worker-death testing)",
    )
    cworker_p.add_argument(
        "--hang-after", type=int, default=None, metavar="N",
        help="fault injection: go silent after pulling the Nth spec"
        " (lease-timeout testing)",
    )
    cstatus_p = camp_sub.add_parser(
        "status", help="summarize a campaign manifest's completion ledger"
    )
    cstatus_p.add_argument("manifest", metavar="DIR")
    _add(cstatus_p, "json")

    cache_p = sub.add_parser(
        "cache",
        help="inspect and garbage-collect the on-disk result cache",
        description="The sharded content-addressed result cache (see"
        " docs/experiments.md). 'cache stats' reports entry/byte totals"
        " and the per-shard breakdown; 'cache gc' evicts by age and/or"
        " LRU down to a byte budget.",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cstats_p = cache_sub.add_parser("stats", help="entry count, bytes, per-shard breakdown")
    _add(cstats_p, "dir", "json")
    cgc_p = cache_sub.add_parser("gc", help="evict entries by age and/or LRU byte budget")
    _add(cgc_p, "dir")
    cgc_p.add_argument(
        "--max-bytes", metavar="SIZE", default=None,
        help="evict least-recently-used entries until under SIZE"
        " (suffixes K/M/G, e.g. 256M)",
    )
    cgc_p.add_argument(
        "--max-age", metavar="AGE", default=None,
        help="evict entries older than AGE (suffixes s/m/h/d, e.g. 7d)",
    )
    cgc_p.add_argument("--dry-run", action="store_true",
                       help="report what would be evicted without deleting")

    serve_p = sub.add_parser(
        "serve",
        help="single-flight simulation-as-a-service HTTP front door",
        description="Serve repro.spec/1 documents over HTTP (see"
        " docs/serve.md). POST /run answers from the result cache when"
        " it can, coalesces concurrent identical requests onto one"
        " in-flight simulation, and runs novel specs in a bounded"
        " process pool; GET /healthz and GET /progress/<key> report"
        " the serve.* counter book.",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8787, metavar="N",
                         help="listen port (0 picks an ephemeral port)")
    serve_p.add_argument(
        "--pool", type=int, default=2, metavar="N",
        help="simulation process-pool size (bounds concurrent novel specs)",
    )
    _add(serve_p, "cache")
    serve_p.add_argument(
        "--load-test", metavar="CLIENTSxSPECS", default=None,
        help="do not run a server for clients: start one in-process,"
        " fire CLIENTS concurrent requests per each of SPECS distinct"
        " specs (e.g. 8x3), verify single-flight coalescing, cache"
        " warm-up, bit-identity, and the serve.request-conservation"
        " law, then exit",
    )
    serve_p.add_argument(
        "--max-instructions", type=int, default=3000, metavar="N",
        help="simulated region size for the synthetic --load-test specs",
    )

    audit_p = sub.add_parser(
        "audit",
        help="run the invariant sanitizer over a spec matrix",
        description="Simulates every workload x technique point (or the"
        " specs in --specs FILE) with the repro.audit checks enabled and"
        " reports every broken conservation law. Exit code 1 when any"
        " invariant is violated. See docs/audit.md.",
    )
    _add(
        audit_p, "workloads", "techniques", "instructions", "specs",
        workloads={"default": ["camel", "nas_is"]},
        techniques={"default": ["ooo", "vr", "dvr", "dvr-offload"]},
        instructions={"default": 5_000},
    )
    audit_p.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the repro.audit/1 JSON report to FILE",
    )
    _add(audit_p, "format", format=text_or_json)

    pipe_p = sub.add_parser(
        "pipeview", help="ASCII pipeline timeline of a run's first instructions"
    )
    _add(pipe_p, "workload", "technique",
         workload={"required": True}, technique={"choices": technique_names()})
    pipe_p.add_argument("--rows", type=int, default=40)
    pipe_p.add_argument("--skip", type=int, default=0,
                        help="trace after this many warmup instructions")
    pipe_p.add_argument("--width", type=int, default=100)

    bench_p = sub.add_parser(
        "bench",
        help="measure simulator throughput (instructions simulated per second)",
        description="Times the simulator's hot kernels — the reference"
        " interpreter, the pre-decoded functional stage, the OoO timing loop,"
        " the memory hierarchy with and without translation, the VR vector"
        " engine and batch dispatch — and reports work-units per second plus"
        " throughput relative to reference-interpreter repeats run beside"
        " each kernel's own. See docs/performance.md.",
    )
    bench_p.add_argument(
        "--kernels", default=None, metavar="A,B,...",
        help="comma-separated kernel subset (default: all)",
    )
    bench_p.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply each kernel's work budget (0.1 = quick smoke)",
    )
    bench_p.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    bench_p.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the repro.bench-core/1 payload to FILE",
    )
    bench_p.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare against a committed BENCH_core.json; exit 1 on"
        " regression beyond --tolerance",
    )
    bench_p.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional throughput drop vs the baseline",
    )
    bench_p.add_argument(
        "--absolute", action="store_true",
        help="gate --check on raw per-second throughput instead of the"
        " machine-independent relative metric",
    )

    hw_p = sub.add_parser(
        "hwcost", help="DVR hardware overhead breakdown (paper Section 4.4)"
    )
    hw_p.add_argument("--lanes", type=int, default=None)
    hw_p.add_argument("--stack-depth", type=int, default=None)
    hw_p.add_argument("--detector-entries", type=int, default=None)
    return parser


def _dump_specs_and_exit(specs, single: bool = False) -> int:
    """--dump-spec: print canonical resolved spec documents, run nothing.

    Resolution is strict, so a conflicting override or an unknown
    workload/technique fails here — before anything is simulated or a
    broken spec file is written.
    """
    from .experiments import RunSpec

    payloads = [RunSpec.from_any(s).resolved().to_payload() for s in specs]
    print(json.dumps(payloads[0] if single else payloads, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """The CLI's one exit: 0 on success, 1 when a run, law, conservation
    check or regression gate failed (each handler reports its own), and 2
    for a usage or input error, which every handler raises as a
    :class:`~repro.errors.ReproError` and which is printed here as one
    ``error:`` line."""
    from .errors import ReproError

    args = _build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
    except ReproError as exc:
        # A strict batch failure carries the worker traceback after its
        # summary line; the summary alone is the error.
        print(f"error: {str(exc).partition(chr(10))[0]}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (`repro run ... | head`). As in
        # the Python docs' recipe, point stdout at devnull so the flush at
        # exit cannot raise again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _dispatch(args) -> int:
    if args.command == "list":
        if args.json:
            from .experiments.spec import SPEC_SCHEMA
            from .techniques import technique_pins
            from .workloads.registry import SIZES, workload_accepts_input_name

            print(json.dumps(
                {
                    "spec_schema": SPEC_SCHEMA,
                    "workloads": {
                        name: {"accepts_input_name": workload_accepts_input_name(name)}
                        for name in WORKLOAD_NAMES
                    },
                    "graph_inputs": sorted(GRAPH_PROFILES),
                    "sizes": list(SIZES),
                    "techniques": {
                        name: {"pins": dict(technique_pins(name))}
                        for name in _TECHNIQUES
                    },
                    "figures": sorted(_FIGURES),
                    "tables": sorted(_TABLES),
                },
                indent=2,
            ))
            return 0
        print("workloads: " + " ".join(WORKLOAD_NAMES))
        print("graph inputs: " + " ".join(sorted(GRAPH_PROFILES)))
        print("techniques: " + " ".join(technique_names()))
        print("figures: " + " ".join(sorted(_FIGURES)))
        print("tables: " + " ".join(sorted(_TABLES)))
        return 0
    if args.command == "run":
        return _run_command(args)
    if args.command == "table" and args.name != "table2":
        print(_render(getattr(experiments, _TABLES[args.name])(), args.format))
        return 0
    if args.command in ("figure", "table", "sweep", "compare"):
        return _run_experiment_command(args)
    if args.command == "batch":
        return _run_batch_command(args)
    if args.command == "campaign":
        return _run_campaign_command(args)
    if args.command == "cache":
        return _run_cache_command(args)
    if args.command == "serve":
        return _run_serve_command(args)
    if args.command == "audit":
        return _run_audit_command(args)
    if args.command == "pipeview":
        from .core import OoOCore, pipeview_legend, render_pipeview
        from .techniques import make_technique
        from .workloads import build_workload

        _check_bounds(
            ("--rows", args.rows, ">=", 1),
            ("--width", args.width, ">=", 1),
            ("--skip", args.skip, ">=", 0),
        )
        wl = build_workload(args.workload)
        core = OoOCore(
            wl.program,
            wl.memory,
            technique=make_technique(args.technique),
            workload_name=args.workload,
            trace_limit=args.skip + args.rows,
        )
        core.run(max_instructions=args.skip + args.rows)
        print(pipeview_legend())
        print(render_pipeview(core.trace[args.skip :], max_width=args.width))
        return 0
    if args.command == "bench":
        from .perf.bench import main_bench

        return main_bench(args)
    if args.command == "hwcost":
        from dataclasses import replace as _replace

        from .config import RunaheadConfig
        from .runahead import hardware_cost_report

        cfg = RunaheadConfig()
        if args.lanes is not None:
            cfg = _replace(cfg, dvr_lanes=args.lanes)
        if args.stack_depth is not None:
            cfg = _replace(cfg, reconvergence_stack_depth=args.stack_depth)
        if args.detector_entries is not None:
            cfg = _replace(cfg, stride_detector_entries=args.detector_entries)
        print(hardware_cost_report(cfg))
        return 0
    return 1  # pragma: no cover


def _run_command(args) -> int:
    """``repro run``: one simulation, described by flags or a spec file."""
    from .errors import AuditError, ReproError, check_writable
    from .experiments import RunSpec, run_simulation
    from .observability import Observability, write_stats

    replay = "auto"
    if args.spec is not None:
        if args.workload is not None:
            raise ReproError("--spec and --workload are mutually exclusive")
        from .experiments.spec import load_specs

        entries = load_specs(args.spec)
        if len(entries) != 1:
            raise ReproError(
                f"'repro run --spec' takes exactly one spec; {args.spec!r} holds"
                f" {len(entries)} (use 'repro batch --specs' for lists)"
            )
        spec, runtime = entries[0]
        replay = runtime.get("replay", "auto")
    elif args.workload is None:
        raise ReproError("one of --workload or --spec is required")
    else:
        spec = RunSpec(
            args.workload,
            technique=args.technique,
            max_instructions=args.instructions,
            input_name=args.input,
            trace=bool(args.trace or args.trace_out),
            trace_capacity=args.trace_capacity,
        )
    if args.dump_spec:
        return _dump_specs_and_exit([spec], single=True)
    # Refuse before simulating: an output file that cannot be created
    # or an event ring that cannot hold an event is one error line.
    for path, what in ((args.stats_out, "stats file"), (args.trace_out, "trace file")):
        if path:
            check_writable(path, what)
    obs = None
    if spec.trace or args.trace_out or args.stats_out or args.counters:
        try:
            obs = Observability(
                trace=bool(spec.trace or args.trace_out),
                trace_capacity=spec.trace_capacity,
            )
        except ValueError as exc:  # trace capacity < 1
            raise ReproError(str(exc)) from exc
    try:
        result = run_simulation(spec, observability=obs, replay=replay, audit=args.audit)
    except AuditError as exc:
        print(f"AUDIT FAILED : {exc}", file=sys.stderr)
        return 1
    # Write the files before printing the report, so a reader that
    # closes stdout early cannot cost them.
    written = []
    try:
        if args.trace_out and obs is not None and obs.trace is not None:
            if args.trace_out.endswith(".csv"):
                events = obs.trace.write_csv(args.trace_out)
            else:
                events = obs.trace.write_jsonl(args.trace_out)
            written.append(f"trace file   : {args.trace_out} ({events} events)")
        if args.stats_out:
            write_stats(result, args.stats_out)
            written.append(f"stats file   : {args.stats_out}")
    except OSError as exc:
        raise ReproError(f"cannot write output: {exc}") from exc
    if args.audit and result.audit is not None:
        print(f"audit        : {len(result.audit['checks'])} checks ok")
    print(f"workload     : {result.workload}")
    print(f"technique    : {result.technique}")
    print(f"instructions : {result.instructions}")
    print(f"cycles       : {result.cycles}")
    print(f"IPC          : {result.ipc:.3f}")
    print(f"backend stall: {100 * result.full_rob_stall_fraction:.1f}%")
    print(f"LLC MPKI     : {result.llc_mpki():.1f}")
    print(f"mean MSHRs   : {result.mean_mshr_occupancy:.1f}")
    print(f"branch MPKI  : {1000 * result.branch_mispredictions / max(1, result.instructions):.1f}")
    print(f"demand levels: {result.demand_level_counts}")
    print(f"DRAM sources : {result.dram_by_source}")
    if args.cpi:
        print("CPI stack    :")
        for bucket, value in result.cpi_stack().items():
            if value >= 0.005:
                print(f"  {bucket:16s} {value:6.2f}")
    if result.technique_stats:
        print("technique    :")
        for key, value in sorted(result.technique_stats.items()):
            print(f"  {key} = {value:.0f}")
    if result.trace_digest is not None:
        print(f"trace        : {result.trace_events} events, digest {result.trace_digest}")
    if args.counters:
        print("counters     :")
        for name, value in sorted(result.counters.items()):
            print(f"  {name} = {value:g}")
    for line in written:
        print(line)
    return 0


def _experiment_plan(args):
    """The plan ``(specs, reduce)`` a figure/table2/sweep/compare command runs."""
    if args.command == "figure":
        from .experiments import figure_plan

        return figure_plan(args.name, args.workloads or None, args.instructions)
    if args.command == "table":
        from .experiments.tables import table2_plan

        return table2_plan(args.instructions)
    from .experiments.sweep import compare_plan, sweep_plan

    _check_bounds(("--seeds", args.seeds, ">=", 1))
    seeds = list(range(1, args.seeds + 1)) if args.seeds > 1 else None
    if args.command == "sweep":
        values = [_parse_value(v) for v in args.values]
        return sweep_plan(
            args.workload, args.technique, args.param, values, args.instructions, seeds
        )
    return compare_plan(args.workloads, args.techniques, args.instructions, seeds)


def _run_experiment_command(args) -> int:
    """``repro figure/sweep/compare`` and ``repro table table2``: build the
    plan once, then print its specs (``--dump-spec``) or run and render it.
    A flag the subcommand does not take (``table`` has no --dump-spec,
    --jobs or --cache, ``figure`` no --audit) reads as unset."""
    plan = _experiment_plan(args)
    if getattr(args, "dump_spec", False):
        return _dump_specs_and_exit(plan[0])
    from .experiments import run_plan

    cache = _make_cache(args)
    result = run_plan(
        plan, jobs=getattr(args, "jobs", None), cache=cache,
        audit=getattr(args, "audit", False),
    )
    print(_render(result, args.format))
    if cache is not None:
        _emit_stats("batch")
    return 0


def _print_outcomes(outcomes, fmt: str) -> int:
    """Print a batch's outcomes as JSON or ``ok``/``FAIL`` lines; the failure count."""
    from .experiments import BatchFailure

    failures = sum(isinstance(r, BatchFailure) for r in outcomes)
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in outcomes], indent=2))
        return failures
    for result in outcomes:
        if isinstance(result, BatchFailure):
            print(f"FAIL {result.summary()}")
        else:
            print(
                f"ok   {result.workload}/{result.technique}: "
                f"ipc={result.ipc:.3f} cycles={result.cycles} "
                f"instructions={result.instructions}"
            )
    print(f"{len(outcomes) - failures}/{len(outcomes)} specs succeeded")
    return failures


def _run_batch_command(args) -> int:
    """``repro batch SPECS.json``: fault-tolerant spec-list execution."""
    from .errors import ReproError
    from .experiments.spec import load_specs, read_spec_file

    _check_bounds(("--retries", args.retries, ">=", 0))
    if args.specs is not None and args.specs_opt is not None:
        raise ReproError("pass the spec file once (positionally or via --specs)")
    path = args.specs if args.specs is not None else args.specs_opt
    if path is None:
        raise ReproError("a spec file is required (SPECS or --specs FILE)")
    if args.dump_spec:
        return _dump_specs_and_exit([spec for spec, _runtime in load_specs(path)])
    # Entries go to run_batch unparsed: a malformed entry becomes a
    # BatchFailure in its slot (exit 1) instead of sinking the batch.
    raw = read_spec_file(path)
    from .experiments import run_batch

    cache = _make_cache(args)
    results = run_batch(
        raw, jobs=args.jobs, cache=cache, retries=args.retries, audit=args.audit
    )
    failures = _print_outcomes(results, args.format)
    if cache is not None:
        _emit_stats("batch")
    return 1 if failures else 0


def _run_campaign_command(args) -> int:
    """``repro campaign run/worker/status``: the distributed sweep fabric."""
    from .errors import ReproError
    from .experiments.fabric import CampaignManifest, Worker, parse_address, run_campaign
    from .experiments.spec import read_spec_file

    if args.campaign_command == "worker":
        worker = Worker(
            parse_address(args.connect),
            poll=args.poll,
            self_destruct=args.self_destruct,
            hang_after=args.hang_after,
        )
        sent = worker.run()
        print(
            f"worker {worker.worker_id}: {sent} results sent, "
            f"{worker.completions} simulations",
            file=sys.stderr,
        )
        return 0
    if args.campaign_command == "status":
        status = CampaignManifest.load(args.manifest).status()
        if args.json:
            print(json.dumps(status, indent=2))
        else:
            remaining = status["specs"] - status["ok"] - status["failed"]
            print(f"campaign     : {status['directory']}")
            print(f"digest       : {status['digest']}")
            print(f"specs        : {status['specs']}")
            print(f"completed ok : {status['ok']}")
            print(f"failed       : {status['failed']}")
            print(f"remaining    : {max(0, remaining)}")
        return 0

    # campaign run
    _check_bounds(
        ("--lease-timeout", args.lease_timeout, ">", 0),
        ("--timeout", args.timeout, ">", 0),
        ("--retries", args.retries, ">=", 0),
        ("--chaos-workers", args.chaos_workers, ">=", 0),
    )
    if args.specs is not None:
        specs = read_spec_file(args.specs)
    elif args.manifest is not None and CampaignManifest.exists(args.manifest):
        specs = CampaignManifest.load(args.manifest).specs
    else:
        raise ReproError(
            "a spec file is required (or --manifest DIR holding an existing"
            " campaign to resume)"
        )
    cache = _make_cache(args)
    if args.manifest is not None:
        try:
            os.makedirs(args.manifest, exist_ok=True)
        except OSError as exc:
            raise ReproError(f"cannot create campaign directory {args.manifest!r}: {exc}")
    if args.manifest is not None and cache is None:
        print(
            "warning: --manifest without --cache records completions but"
            " cannot serve their results on resume (completed specs would"
            " re-simulate); pass --cache for zero re-simulation",
            file=sys.stderr,
        )
    campaign = run_campaign(
        specs,
        workers=args.workers,
        cache=cache,
        manifest_dir=args.manifest,
        lease_timeout=args.lease_timeout,
        retries=args.retries,
        timeout=args.timeout,
        worker_mode=args.worker_mode,
        chaos_workers=args.chaos_workers,
        audit=args.audit,
    )
    failures = _print_outcomes(campaign.outcomes, args.format)
    completions = " ".join(
        f"{worker}={count}" for worker, count in sorted(campaign.worker_completions.items())
    )
    if completions and args.format != "json":
        print(f"workers      : {completions}", file=sys.stderr)
    _emit_stats("fabric", campaign.fabric)
    if cache is not None:
        _emit_stats("batch")
    if not campaign.conservation.passed:
        for violation in campaign.conservation.violations:
            print(f"CONSERVATION : {violation}", file=sys.stderr)
        return 1
    return 1 if failures else 0


def _run_serve_command(args) -> int:
    """``repro serve``: the single-flight simulation HTTP front door."""
    import asyncio

    from .errors import ReproError
    from .experiments import RunSpec
    from .experiments.serve import ServerThread, SimulationServer, run_load_test

    if not 0 <= args.port <= 65535:
        raise ReproError(f"--port must be in 0..65535, got {args.port}")
    cache = _make_cache(args)

    if args.load_test is not None:
        clients, sep, spec_count = args.load_test.lower().partition("x")
        if not sep or not clients.isdigit() or not spec_count.isdigit():
            raise ReproError(
                f"--load-test expects CLIENTSxSPECS (e.g. 8x3), got {args.load_test!r}"
            )
        if cache is None:
            # The warm volley proves cache hits, so the self-test always
            # runs against a (private, throwaway) cache.
            import tempfile

            from .experiments import ResultCache

            cache = ResultCache(tempfile.mkdtemp(prefix="repro-serve-"))
        specs = [
            RunSpec("camel", max_instructions=args.max_instructions + 100 * i)
            for i in range(int(spec_count))
        ]
        with ServerThread(
            host=args.host, port=0, pool_size=args.pool, cache=cache
        ) as server:
            report = run_load_test(server.address, specs, clients=int(clients))
            snapshot = server.serve_snapshot()

        def volley(delta):
            return " ".join(f"{k}={v:g}" for k, v in sorted(delta.items()))

        print(f"load test    : {report.clients} clients x {report.spec_count} specs")
        print(f"cold volley  : {volley(report.cold)}")
        print(f"warm volley  : {volley(report.warm)}")
        print(f"bit-identical: {'yes' if report.bit_identical else 'NO'}")
        print(f"conservation : {'ok' if report.conservation_passed else 'BROKEN'}")
        _emit_stats("serve", snapshot)
        if report.violations:
            for violation in report.violations:
                print(f"VIOLATION    : {violation}", file=sys.stderr)
            return 1
        return 0

    server = SimulationServer(
        host=args.host, port=args.port, pool_size=args.pool, cache=cache
    )

    async def _serve() -> None:
        import contextlib
        import signal

        # A daemon must die cleanly on SIGTERM (docker stop, systemd) and on
        # SIGINT even when launched as a background job of a non-interactive
        # shell, which starts children with SIGINT ignored — installing loop
        # handlers covers both; platforms without add_signal_handler fall
        # back to the KeyboardInterrupt path below.
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, OSError):
                pass
        await server.start()
        host, port = server.address
        print(
            f"serving on http://{host}:{port} (POST /run, GET /healthz,"
            " GET /progress/<key>; SIGINT/SIGTERM to stop)",
            file=sys.stderr,
        )
        forever = asyncio.ensure_future(server.serve_forever())
        stopped = asyncio.ensure_future(stop.wait())
        await asyncio.wait({forever, stopped}, return_when=asyncio.FIRST_COMPLETED)
        stopped.cancel()
        forever.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await forever
        await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        raise ReproError(f"cannot listen on {args.host}:{args.port}: {exc}") from exc
    _emit_stats("serve", server.serve_snapshot())
    return 0


def _parse_scaled(text: str, scales: dict, what: str, examples: str) -> float:
    """``256M``/``7d``-style quantity: a finite number with an optional unit suffix."""
    import math

    from .errors import ReproError

    raw = text.strip().lower()
    scale = scales.get(raw[-1:], None)
    if scale is not None:
        raw = raw[:-1]
    try:
        value = float(raw) * (scale or 1)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ReproError(f"bad {what} {text!r} (expected e.g. {examples})")
    return value


def _run_cache_command(args) -> int:
    """``repro cache stats/gc``: result-cache maintenance."""
    from .errors import ReproError
    from .experiments import ResultCache

    if args.cache_command == "stats":
        stats = ResultCache(args.dir or None).stats()
        if args.json:
            print(json.dumps(stats, indent=2))
            return 0
        print(f"cache dir    : {stats['root']}")
        print(f"entries      : {stats['entries']}")
        print(f"bytes        : {stats['bytes']}")
        occupied = {k: v for k, v in stats["shards"].items() if v["entries"]}
        print(f"shards       : {len(occupied)} occupied")
        for shard in sorted(occupied):
            info = occupied[shard]
            print(f"  {shard}: {info['entries']} entries, {info['bytes']} bytes")
        return 0
    # cache gc
    max_bytes = max_age = None
    if args.max_bytes is not None:
        max_bytes = int(_parse_scaled(
            args.max_bytes, {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30},
            "size", "1048576, 256M, 2G",
        ))
    if args.max_age is not None:
        max_age = _parse_scaled(
            args.max_age, {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0},
            "age", "3600, 36h, 7d",
        )
    if max_bytes is None and max_age is None:
        raise ReproError("cache gc needs --max-bytes and/or --max-age")
    report = ResultCache(args.dir or None).gc(
        max_bytes=max_bytes, max_age=max_age, dry_run=args.dry_run
    )
    verb = "would evict" if args.dry_run else "evicted"
    print(
        f"{verb} {report['evicted']} entries ({report['freed_bytes']} bytes), "
        f"kept {report['kept']}, swept {report['tmp_swept']} stale temp files"
    )
    return 0


def _run_audit_command(args) -> int:
    """``repro audit``: sanitizer sweep over a spec matrix."""
    from .audit import audit_specs, format_report, write_report
    from .errors import check_writable
    from .experiments import RunSpec
    from .experiments.spec import load_specs

    if args.out:
        check_writable(args.out, "audit report")
    if args.specs is not None:
        specs = [spec for spec, _runtime in load_specs(args.specs)]
    else:
        specs = [
            RunSpec(workload, technique=tech, max_instructions=args.instructions)
            for workload in args.workloads
            for tech in args.techniques
        ]
    report = audit_specs(
        specs,
        progress=lambda label: print(f"auditing {label}", file=sys.stderr),
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(format_report(report))
    if args.out:
        write_report(report, args.out)
        print(f"report file  : {args.out}", file=sys.stderr)
    return 0 if report.passed else 1


def _parse_value(text: str):
    low = text.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def _render(result, fmt: str) -> str:
    if fmt == "csv":
        return result.to_csv()
    if fmt == "json":
        return result.to_json()
    return result.to_text()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
