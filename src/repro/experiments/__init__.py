"""Experiment harness: one generator per paper table/figure.

Every generator returns an :class:`ExperimentResult` whose rows are the
series the paper plots; ``to_text()`` renders the table the benchmark
harness prints. Each experiment is a plan (its spec list plus a reducer
over the results), and :func:`run_plan` runs one; see DESIGN.md for the
experiment index.

Execution plumbing lives in :mod:`repro.experiments.batch` (the
fault-tolerant parallel runner) and :mod:`repro.experiments.cache`
(the content-addressed on-disk result cache); see
``docs/experiments.md`` for the operator's guide.
"""

from .. import _lazy_exports

# Public names resolve from their modules on first access (see
# ``repro._lazy_exports``): a caller of ``run_simulation`` never loads
# the batch pool, the campaign fabric or the HTTP server.
_EXPORTS = {
    ".batch": (
        "BatchFailure", "batch_failures", "run_batch", "run_plan", "speedup_matrix", "successful",
    ),
    ".cache": ("BATCH_COUNTERS", "ResultCache", "reset_batch_counters", "use_cache"),
    ".fabric": (
        "CAMPAIGN_SCHEMA", "FABRIC_COUNTER_NAMES", "CampaignManifest", "CampaignResult",
        "Coordinator", "Worker", "run_campaign",
    ),
    ".figures": (
        "figure2", "figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
        "figure_lanes", "figure_tlb", "figure_plan", "figure_specs",
    ),
    ".report": ("ExperimentResult", "format_table", "harmonic_mean"),
    ".runner": ("run_simulation",),
    ".serve": (
        "SERVE_COUNTER_NAMES", "LoadTestReport", "ServerThread", "SimulationServer",
        "run_load_test",
    ),
    ".spec": (
        "RUNTIME_KEYS", "SPEC_SCHEMA", "RunSpec", "apply_override", "coerce_bool",
        "dump_specs", "load_specs", "parse_spec_entry", "specs_digest", "split_run_kwargs",
    ),
    ".sweep": ("compare_specs", "compare_techniques", "run_sweep", "sweep_specs"),
    ".tables": ("hardware_cost_table", "table1_rows", "table2_rows"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())

__all__ = [
    "BATCH_COUNTERS",
    "BatchFailure",
    "CAMPAIGN_SCHEMA",
    "CampaignManifest",
    "CampaignResult",
    "Coordinator",
    "ExperimentResult",
    "FABRIC_COUNTER_NAMES",
    "LoadTestReport",
    "SERVE_COUNTER_NAMES",
    "ServerThread",
    "SimulationServer",
    "Worker",
    "RUNTIME_KEYS",
    "ResultCache",
    "RunSpec",
    "SPEC_SCHEMA",
    "batch_failures",
    "dump_specs",
    "load_specs",
    "parse_spec_entry",
    "specs_digest",
    "split_run_kwargs",
    "figure2",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure_lanes",
    "figure_tlb",
    "figure_plan",
    "figure_specs",
    "format_table",
    "harmonic_mean",
    "reset_batch_counters",
    "run_batch",
    "run_plan",
    "run_campaign",
    "run_load_test",
    "run_simulation",
    "speedup_matrix",
    "successful",
    "run_sweep",
    "sweep_specs",
    "compare_techniques",
    "compare_specs",
    "apply_override",
    "coerce_bool",
    "use_cache",
    "hardware_cost_table",
    "table1_rows",
    "table2_rows",
]
