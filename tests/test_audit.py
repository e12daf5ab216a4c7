"""Tests for the ``repro.audit`` invariant sanitizer.

Three layers: the check registry on real finished runs (a seed matrix
must audit clean), reintroduced historical bugs that each check must
catch, and the report/CLI plumbing around them.
"""

import json

import pytest

from repro.audit import (
    AUDIT_SCHEMA,
    CHECKS,
    AuditContext,
    AuditError,
    AuditReport,
    CheckResult,
    RunAudit,
    audit_specs,
    audit_timing_run,
    check_batch_counters,
    format_report,
    run_checks,
)
from repro.config import SimConfig
from repro.core import FunctionalCore, OoOCore
from repro.experiments import RunSpec, run_batch, run_simulation
from repro.experiments.batch import BatchFailure
from repro.experiments.cache import BATCH_COUNTERS, ResultCache, use_cache
from repro.isa.predecode import K_BEZ, K_BNZ, K_STORE
from repro.memory.hierarchy import MemoryHierarchy
from repro.perf.trace import arch_trace_key, clear_trace_memo, load_trace
from repro.techniques import make_technique
from repro.workloads import build_workload

EXPECTED_CHECKS = [
    "counters.demand-levels",
    "counters.level-identities",
    "counters.timeliness",
    "counters.prefetch-outcomes",
    "mshr.merges",
    "mshr.occupancy",
    "mshr.reclamation",
    "cache.inclusion",
    "core.conservation",
    "sched.retire-order",
    "sched.skip-accounting",
    "vector.lane-conservation",
    "vector.copy-conservation",
    "tlb.lookup-conservation",
    "tlb.walk-conservation",
    "functional.equivalence",
]


def _run_core(workload="camel", technique="ooo", n=1500, warmup=0):
    """One finished timing run with its rebuild closure, audit-style."""
    wl = build_workload(workload)
    cfg = SimConfig(max_instructions=n, warmup_instructions=warmup)
    core = OoOCore(
        wl.program, wl.memory, cfg, technique=make_technique(technique, cfg)
    )
    result = core.run()

    def rebuild():
        fresh = build_workload(workload)
        return FunctionalCore(fresh.program, fresh.memory)

    return core, result, rebuild


class TestRegistry:
    def test_registered_checks_and_order(self):
        assert list(CHECKS) == EXPECTED_CHECKS

    def test_unknown_check_name_rejected(self):
        ctx = AuditContext(core=None, result=None)
        with pytest.raises(KeyError):
            run_checks(ctx, names=["no.such.check"])

    def test_check_exception_becomes_violation(self):
        # A None core makes every check blow up; the runner must report
        # that as a violation rather than crash or silently pass.
        ctx = AuditContext(core=None, result=None)
        record = run_checks(ctx, names=["counters.demand-levels"], label="x")
        assert not record.passed
        assert "check raised" in record.checks[0].violations[0]


class TestSeedMatrix:
    """The repo's own model must audit clean across the technique matrix."""

    @pytest.mark.parametrize(
        "workload,technique",
        [
            ("camel", "ooo"),
            ("camel", "vr"),
            ("camel", "dvr"),
            ("camel", "dvr-offload"),
            ("nas_is", "ooo"),
            ("nas_is", "dvr"),
        ],
    )
    def test_audited_run_is_clean(self, workload, technique):
        spec = RunSpec(workload, technique=technique, max_instructions=1500)
        result = run_simulation(spec, audit=True)
        assert result.audit is not None
        assert result.audit["passed"] is True
        assert [c["name"] for c in result.audit["checks"]] == EXPECTED_CHECKS

    def test_swpf_pseudo_technique_audits_clean(self):
        # The rebuild closure must re-apply the compiler transform, or
        # the equivalence check replays the untransformed program.
        spec = RunSpec("camel", technique="swpf", max_instructions=1500)
        result = run_simulation(spec, audit=True)
        assert result.audit["passed"] is True


class TestBugReintroduction:
    """Each fixed bug, put back, must fail its check."""

    def test_counting_lookup_inflates_merges(self, monkeypatch):
        def buggy(self, addr, cycle):
            line = self.line_of(addr)
            if self.l1.contains(line, cycle):
                return False
            return self.mshrs.lookup(line, cycle) is None  # old side effect

        monkeypatch.setattr(MemoryHierarchy, "load_needs_mshr", buggy)
        # Classic runahead still schedules its prefetches through the
        # unfused load_needs_mshr query — the path this bug lived in.
        spec = RunSpec("camel", technique="runahead", max_instructions=3000)
        with pytest.raises(AuditError) as excinfo:
            run_simulation(spec, audit=True)
        record = excinfo.value.record
        assert record is not None
        failed = {c.name for c in record.checks if not c.passed}
        assert "mshr.merges" in failed

    def test_missing_victim_invalidation_breaks_inclusion(self, monkeypatch):
        monkeypatch.setattr(
            MemoryHierarchy,
            "_fill_l3",
            lambda self, line, ready: self.l3.fill(line, ready),
        )
        monkeypatch.setattr(
            MemoryHierarchy,
            "_fill_l2",
            lambda self, line, ready: self.l2.fill(line, ready),
        )
        # Caches small enough that the run actually evicts from L2/L3.
        spec = RunSpec(
            "camel",
            technique="dvr",
            max_instructions=4000,
            overrides=(
                ("memory.l3.size_bytes", 8192),
                ("memory.l3.assoc", 2),
                ("memory.l2.size_bytes", 4096),
                ("memory.l2.assoc", 2),
            ),
        )
        with pytest.raises(AuditError) as excinfo:
            run_simulation(spec, audit=True)
        failed = {c.name for c in excinfo.value.record.checks if not c.passed}
        assert "cache.inclusion" in failed

    def test_dead_purge_leaves_zombie_entries(self):
        core, result, _ = _run_core(n=800)
        h = core.hierarchy
        record = audit_timing_run(core, result)
        assert record.passed
        h.mshrs._purge = lambda cycle: None  # reclamation stops working
        h.access(0x900000, cycle=result.cycles)  # leaves a miss in flight
        record = audit_timing_run(core, result)
        failed = {c.name for c in record.checks if not c.passed}
        assert "mshr.reclamation" in failed

    def test_equivalence_catches_register_divergence(self):
        core, result, rebuild = _run_core()
        assert audit_timing_run(core, result, rebuild=rebuild).passed
        core.stream.regs[3] += 1
        record = audit_timing_run(core, result, rebuild=rebuild)
        failed = {c.name for c in record.checks if not c.passed}
        assert "functional.equivalence" in failed

    def test_equivalence_catches_memory_divergence(self):
        core, result, rebuild = _run_core()
        base = core.memory_image
        addr = base._segments[0].base
        base.write_word(addr, base.read_word(addr) + 1)
        record = audit_timing_run(core, result, rebuild=rebuild)
        failed = {c.name for c in record.checks if not c.passed}
        assert "functional.equivalence" in failed

    def test_corrupted_prefetch_outcomes_caught(self):
        core, result, _ = _run_core(technique="dvr", n=2000)
        assert audit_timing_run(core, result).passed
        outcomes = core.hierarchy.stats.prefetch_outcomes
        outcomes["runahead.DRAM"] = outcomes.get("runahead.DRAM", 0) + 1
        record = audit_timing_run(core, result)
        failed = {c.name for c in record.checks if not c.passed}
        assert "counters.prefetch-outcomes" in failed

    def test_corrupted_published_outcomes_of_a_warmed_run_caught(self):
        # The raw books still balance: only the published ROI books lie.
        core, result, _ = _run_core(technique="dvr", n=4000, warmup=2000)
        assert core.warmup_base is not None
        assert audit_timing_run(core, result).passed
        name = next(
            key for key in result.counters if key.startswith("mem.prefetch.outcome.runahead.")
        )
        result.counters[name] += 1
        record = audit_timing_run(core, result)
        failed = {c.name for c in record.checks if not c.passed}
        assert failed == {"counters.prefetch-outcomes"}

    def test_corrupted_timeliness_caught(self):
        core, result, _ = _run_core(technique="dvr", n=2000)
        stats = core.hierarchy.stats
        stats.timeliness["L1"] = stats.timeliness.get("L1", 0) + 1
        record = audit_timing_run(core, result)
        failed = {c.name for c in record.checks if not c.passed}
        assert "counters.timeliness" in failed


class TestRunnerIntegration:
    def test_audited_run_bypasses_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("camel", technique="ooo", max_instructions=1200)
        with use_cache(cache):
            result = run_simulation(spec, audit=True)
        # Laws are checked against live runs, never stored payloads —
        # and an audited result is never written back either.
        assert result.audit["passed"] is True
        assert len(cache) == 0
        with use_cache(cache):
            run_simulation(spec)
        assert len(cache) == 1

    def test_unaudited_run_carries_no_audit_payload(self):
        result = run_simulation(
            RunSpec("camel", technique="ooo", max_instructions=800)
        )
        assert result.audit is None

    def test_batch_audit_failure_is_isolated(self, monkeypatch):
        def buggy(self, addr, cycle):
            line = self.line_of(addr)
            if self.l1.contains(line, cycle):
                return False
            return self.mshrs.lookup(line, cycle) is None

        monkeypatch.setattr(MemoryHierarchy, "load_needs_mshr", buggy)
        specs = [RunSpec("camel", technique="runahead", max_instructions=3000)]
        results = run_batch(specs, audit=True)
        assert isinstance(results[0], BatchFailure)
        assert results[0].error_type == "AuditError"

    def test_audited_replayed_run_checks_equivalence(self, monkeypatch):
        """A replayed stream is audited like a fresh one: the equivalence
        check re-executes the whole stream and every law holds."""
        clear_trace_memo()
        spec = RunSpec("nas_is", technique="dvr", max_instructions=3000)
        fresh = run_simulation(spec, audit=True)  # fills and memoises
        replays = BATCH_COUNTERS.snapshot().get("batch.trace.replays", 0)
        steps = []
        reference_step = FunctionalCore.step_reference

        def counting_step(core):
            steps.append(1)
            return reference_step(core)

        monkeypatch.setattr(FunctionalCore, "step_reference", counting_step)
        replayed = run_simulation(spec, audit=True)
        clear_trace_memo()
        assert BATCH_COUNTERS.snapshot().get("batch.trace.replays", 0) == replays + 1
        assert replayed.audit["passed"] is True
        assert len(steps) == 3000
        assert replayed.to_dict() == fresh.to_dict()

    def test_tampered_memoised_store_fails_equivalence(self):
        """One stored word altered in a memoised stream is caught."""
        clear_trace_memo()
        spec = RunSpec("nas_is", technique="ooo", max_instructions=3000)
        try:
            run_simulation(spec)  # fills and memoises the stream
            stream = load_trace(arch_trace_key(spec))
            kinds = build_workload("nas_is").program.decoded().kinds
            for pcs, values, *_ in reversed(stream.chunks):
                stores = [j for j, pc in enumerate(pcs) if kinds[pc] == K_STORE]
                if stores:
                    values[stores[-1]] += 1  # the stream's last store
                    break
            else:
                pytest.fail("the stream has no store to alter")
            with pytest.raises(AuditError) as excinfo:
                run_simulation(spec, audit=True)
        finally:
            clear_trace_memo()
        failed = {c.name for c in excinfo.value.record.checks if not c.passed}
        assert "functional.equivalence" in failed

    def test_tampered_memoised_mispredict_fails_equivalence(self):
        """One mispredict flag flipped in a memoised stream's front-end
        column is caught."""
        clear_trace_memo()
        spec = RunSpec("nas_is", technique="ooo", max_instructions=3000)
        try:
            run_simulation(spec)  # fills the stream and its front-end column
            stream = load_trace(arch_trace_key(spec))
            kinds = build_workload("nas_is").program.decoded().kinds
            (frontend,) = stream.frontends.values()
            codes, _ = frontend.columns[-1]
            pcs = stream.chunks[-1][0]
            branch = next(j for j, pc in enumerate(pcs) if kinds[pc] in (K_BNZ, K_BEZ))
            codes[branch] ^= 1
            with pytest.raises(AuditError) as excinfo:
                run_simulation(spec, audit=True)
        finally:
            clear_trace_memo()
        failed = {
            c.name: c.violations for c in excinfo.value.record.checks if not c.passed
        }
        assert list(failed) == ["functional.equivalence"]
        (violation,) = failed["functional.equivalence"]
        assert violation.startswith("core.branch.mispredictions ")

    def test_batch_audit_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [RunSpec("camel", technique="ooo", max_instructions=1200)]
        results = run_batch(specs, cache=cache, audit=True)
        assert not isinstance(results[0], BatchFailure)
        assert len(cache) == 0


class TestAuditSpecs:
    def test_clean_matrix_report(self):
        specs = [
            RunSpec("camel", technique=t, max_instructions=1200)
            for t in ("ooo", "vr")
        ]
        labels = []
        report = audit_specs(specs, progress=labels.append)
        assert labels == ["camel/ooo", "camel/vr"]
        assert report.passed
        assert report.batch is not None and report.batch.passed
        payload = report.to_payload()
        assert payload["schema"] == AUDIT_SCHEMA
        assert payload["summary"]["runs"] == 2
        assert payload["summary"]["violations"] == 0
        assert json.loads(report.to_json()) == payload

    def test_run_errors_are_isolated(self):
        specs = [
            RunSpec("no-such-workload", max_instructions=100),
            RunSpec("camel", technique="ooo", max_instructions=800),
        ]
        report = audit_specs(specs)
        assert not report.passed
        assert report.runs[0].error is not None
        assert report.runs[1].passed


class TestBatchCounterCheck:
    def test_serial_law_holds(self):
        result = check_batch_counters(
            {"batch.sim.runs": 3, "batch.sim.completions": 3}, serial=True
        )
        assert result.passed

    def test_lost_completion_detected(self):
        result = check_batch_counters(
            {"batch.sim.runs": 3, "batch.sim.completions": 2}, serial=True
        )
        assert not result.passed

    def test_excess_completions_detected(self):
        result = check_batch_counters(
            {"batch.sim.runs": 1, "batch.sim.completions": 2}
        )
        assert not result.passed

    def test_spec_accounting(self):
        snapshot = {
            "batch.specs": 4,
            "batch.sim.runs": 2,
            "batch.sim.completions": 2,
            "batch.cache.hits": 1,
            "batch.dedup.reused": 1,
            "batch.failures": 0,
        }
        assert check_batch_counters(snapshot, serial=True).passed
        snapshot["batch.dedup.reused"] = 0
        assert not check_batch_counters(snapshot, serial=True).passed


class TestReport:
    def test_payload_and_formatting(self):
        report = AuditReport(
            runs=[
                RunAudit(
                    label="a/ooo",
                    checks=[
                        CheckResult("x"),
                        CheckResult("y", violations=["broken"]),
                    ],
                ),
                RunAudit(label="b/dvr", error="boom"),
            ],
            batch=CheckResult("batch.conservation"),
        )
        assert not report.passed
        payload = report.to_payload()
        assert payload["schema"] == AUDIT_SCHEMA
        assert payload["summary"] == {"runs": 2, "checks": 3, "violations": 2}
        assert payload["runs"][0]["checks"][1]["violations"] == ["broken"]
        assert payload["runs"][1]["error"] == "boom"
        text = format_report(report)
        assert "FAIL a/ooo" in text
        assert "run-error: boom" in text
        assert text.splitlines()[-1] == "audit: 2 runs, 2 violations"


class TestCli:
    def test_audit_command_clean_matrix(self, capsys):
        from repro.cli import main

        code = main(
            [
                "audit",
                "--workloads",
                "camel",
                "--techniques",
                "ooo",
                "-n",
                "800",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == AUDIT_SCHEMA
        assert payload["passed"] is True

    def test_run_audit_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--workload",
                "camel",
                "--technique",
                "vr",
                "-n",
                "800",
                "--audit",
            ]
        )
        assert code == 0
        assert "audit" in capsys.readouterr().out
