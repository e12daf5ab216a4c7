"""Single-run entry point shared by figures, benchmarks, and the CLI."""

from __future__ import annotations

from typing import Optional, Union

# make_technique and build_workload import a technique's class or a
# builder module by name on first use. Every one is imported here, so
# the first run_simulation costs what every later one does.
from .. import prefetch, runahead  # noqa: F401
from ..runahead import emc  # noqa: F401 (the runahead package leaves it out)
from ..config import SimConfig
from ..core.functional import FunctionalCore
from ..core.ooo import OoOCore
from ..errors import AuditError, ReproError
from ..isa.swpf import insert_software_prefetches
from ..observability import Observability
from ..perf.trace import (
    CAPTURE_LIMIT,
    ArchTrace,
    arch_trace_key,
    load_trace,
    store_trace,
)
from ..result import SimulationResult
from ..techniques import make_technique
from ..workloads import build_workload, gap, hpc_db  # noqa: F401
from .cache import BATCH_COUNTERS, active_cache
from .spec import RunSpec

#: Pseudo-technique: the CGO 2017 software-prefetching compiler pass
#: applied to the workload, run on the plain OoO core.
SOFTWARE_PREFETCH = "swpf"


def run_simulation(
    workload: Union[str, RunSpec],
    technique: str = "ooo",
    config: Optional[SimConfig] = None,
    max_instructions: Optional[int] = None,
    input_name: Optional[str] = None,
    size: str = "default",
    seed: Optional[int] = None,
    trace: bool = False,
    trace_capacity: int = 65_536,
    observability: Optional[Observability] = None,
    replay: str = "auto",
    audit: bool = False,
) -> SimulationResult:
    """Simulate one run, described by a :class:`RunSpec` or by kwargs.

    The canonical entry form is a spec::

        run_simulation(RunSpec("camel", "dvr", max_instructions=20_000))

    The keyword form is a thin compatibility shim: the arguments are
    packed into a :class:`RunSpec` and resolved identically (see
    ``docs/spec.md``), so both forms produce the same cache key, the
    same architectural-trace key, and a bit-identical result.

    ``input_name`` selects the Table 2 graph profile for GAP kernels;
    spec resolution drops it for workloads whose builder does not take
    one (the hpc-db set), so byte-identical runs share one identity.
    ``seed`` re-rolls the workload's input data (for multi-seed
    experiments). ``max_instructions`` overrides the config's region
    length. Ablation techniques (``dvr-*``) resolve to declarative pins
    over ``config.runahead``; a conflicting explicit config override
    raises :class:`~repro.errors.ConfigError`.

    ``trace=True`` records the structured event stream (fetch / issue /
    complete / retire plus runahead and vector-dispatch events) into a
    ring buffer of ``trace_capacity`` events; the result then carries a
    stable whole-stream digest (``trace_digest``). Callers that need the
    trace contents or profiling hooks pass a pre-built ``observability``
    facade instead, which takes precedence.

    When a :class:`~repro.experiments.cache.ResultCache` is ambient
    (installed via :func:`~repro.experiments.cache.use_cache`, or by the
    batch runner / CLI ``--cache`` flags) and no live ``observability``
    facade was passed, the run is served from — and stored into — the
    cache, keyed on :meth:`RunSpec.key` (resolved config, workload
    identity, seed, and code fingerprint).

    ``replay`` controls architectural trace sharing (``repro.perf``):
    with the default ``"auto"``, the technique-independent stream the
    first run of a stream projection fills is memoised, and every later
    run of the same stream in this process replays its columns (the
    memo lives in process memory only) — so comparing four techniques
    over one workload executes the program functionally once, not four
    times. Replay is exact: the same columns, the same memory-image
    evolution (each store is applied at its instruction's turn either
    way), identical trace digests. ``replay="off"`` always executes
    functionally and memoises nothing. Neither ``replay`` nor
    ``observability`` participates in run identity (replayed and fresh
    runs are bit-identical by construction).

    ``audit=True`` evaluates every registered invariant check
    (``repro.audit``) against the finished run: the structured record
    lands on ``result.audit`` and any broken law raises
    :class:`~repro.errors.AuditError`. Audited runs bypass the ambient
    result cache, so they always simulate; a replayed stream is audited
    like a fresh one (``functional.equivalence`` compares the stream's
    end state with a fresh re-execution). Like
    ``observability``/``replay``, ``audit`` is runtime plumbing and
    never enters run identity.
    """
    if isinstance(workload, RunSpec):
        if (
            technique != "ooo"
            or config is not None
            or max_instructions is not None
            or input_name is not None
            or size != "default"
            or seed is not None
            or trace
            or trace_capacity != 65_536
        ):
            raise ReproError(
                "run_simulation(spec) takes only observability/replay/audit "
                "as extra arguments; fold everything else into the RunSpec"
            )
        spec = workload
    else:
        spec = RunSpec(
            workload=workload,
            technique=technique,
            config=config,
            max_instructions=max_instructions,
            input_name=input_name,
            size=size,
            seed=seed,
            trace=trace,
            trace_capacity=trace_capacity,
        )
    return _run_resolved(spec.resolved(), observability, replay, audit)


def _run_resolved(
    spec: RunSpec,
    observability: Optional[Observability],
    replay: str,
    audit: bool = False,
) -> SimulationResult:
    """Execute one canonically resolved spec."""
    if replay not in ("auto", "off"):
        raise ReproError(f"replay must be 'auto' or 'off', got {replay!r}")
    cfg = spec.config

    # An audited run must actually simulate, so it bypasses the cache.
    cache = active_cache() if observability is None and not audit else None
    cache_key: Optional[str] = None
    if cache is not None:
        cache_key = spec.key()
        cached = cache.get(cache_key)
        if cached is not None:
            return cached

    kwargs = {"size": spec.size}
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    if spec.input_name is not None:
        kwargs["input_name"] = spec.input_name
    wl = build_workload(spec.workload, **kwargs)
    program = wl.program
    if spec.technique == SOFTWARE_PREFETCH:
        # A compiler transformation, not a hardware technique: insert
        # look-ahead prefetches and run on the plain OoO core.
        program = insert_software_prefetches(program)
        core_technique = make_technique("ooo", cfg)
    else:
        core_technique = make_technique(spec.technique, cfg)
    obs = observability
    if obs is None and spec.trace:
        obs = Observability(trace=True, trace_capacity=spec.trace_capacity)

    # Architectural trace sharing: replay a memoised stream, or (first
    # run of this stream) hand the core an empty one to fill as it runs
    # and memoise it afterwards. Without either the core fills a
    # private stream and drops each chunk once consumed.
    stream: Optional[ArchTrace] = None
    capture_key: Optional[tuple] = None
    if replay != "off":
        stream_key = arch_trace_key(spec.stream_projection())
        stream = load_trace(stream_key)
        if stream is not None:
            BATCH_COUNTERS.inc("batch.trace.replays")
        elif cfg.max_instructions <= CAPTURE_LIMIT:
            stream = ArchTrace()
            capture_key = stream_key

    core = OoOCore(
        program,
        wl.memory,
        cfg,
        technique=core_technique,
        workload_name=(
            wl.name if spec.input_name is None else f"{wl.name}_{spec.input_name}"
        ),
        observability=obs,
        stream=stream,
    )
    BATCH_COUNTERS.inc("batch.sim.runs")
    result = core.run()
    BATCH_COUNTERS.inc("batch.sim.completions")
    if capture_key is not None:
        store_trace(capture_key, stream)
        BATCH_COUNTERS.inc("batch.trace.captures")
    if spec.technique == SOFTWARE_PREFETCH:
        result.technique = SOFTWARE_PREFETCH
    if audit:
        from ..audit import audit_timing_run

        def rebuild() -> FunctionalCore:
            fresh = build_workload(spec.workload, **kwargs)
            fresh_program = fresh.program
            if spec.technique == SOFTWARE_PREFETCH:
                fresh_program = insert_software_prefetches(fresh_program)
            return FunctionalCore(fresh_program, fresh.memory)

        record = audit_timing_run(core, result, rebuild=rebuild)
        result.audit = record.to_payload()
        if not record.passed:
            raise AuditError(
                f"audit failed for {record.label}: "
                + "; ".join(record.violations),
                record,
            )
    if cache is not None and cache_key is not None:
        cache.put(cache_key, result)
    return result
