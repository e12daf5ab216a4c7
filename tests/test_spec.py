"""Spec-layer tests: serialization round-trip, key stability (golden
fixtures), resolution/normalization semantics, config-pin precedence,
end-to-end spec-vs-kwargs bit-identity, and the CLI spec plumbing.

Golden keys pin a constant fingerprint (real keys embed the package
code fingerprint, which changes on any source edit); regenerate after
an intentional schema/normalization change with::

    PYTHONPATH=src python -m pytest tests/test_spec.py --update-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import SimConfig
from repro.errors import ConfigError, ReproError, WorkloadError
from repro.experiments import (
    RunSpec,
    apply_override,
    run_batch,
    run_simulation,
    run_sweep,
)
from repro.experiments.cache import BATCH_COUNTERS, reset_batch_counters
from repro.perf.trace import arch_trace_key

GOLDEN_PATH = Path(__file__).parent / "golden" / "spec_keys.json"

#: Pinned in place of the live code fingerprint so golden keys (and the
#: hypothesis property) survive source edits.
FINGERPRINT = "spec-test-fingerprint"


# ---------------------------------------------------------------------------
# Hypothesis round-trip: RunSpec -> JSON -> RunSpec -> identical key.

_OVERRIDE_VALUES = {
    "runahead.dvr_lanes": st.integers(min_value=1, max_value=256),
    "runahead.nested_threshold": st.integers(min_value=1, max_value=128),
    "core.rob_size": st.integers(min_value=16, max_value=512),
    "stride_prefetcher_enabled": st.booleans(),
}


def _overrides():
    return st.dictionaries(
        st.sampled_from(sorted(_OVERRIDE_VALUES)), st.none(), max_size=2
    ).flatmap(
        lambda paths: st.tuples(
            *(
                st.tuples(st.just(p), _OVERRIDE_VALUES[p])
                for p in sorted(paths)
            )
        )
    )


_SPECS = st.builds(
    RunSpec,
    workload=st.sampled_from(["camel", "bfs", "nas_is", "not_a_workload"]),
    technique=st.sampled_from(["ooo", "vr", "dvr", "dvr-offload", "swpf", "bogus"]),
    overrides=_overrides(),
    max_instructions=st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
    input_name=st.one_of(st.none(), st.sampled_from(["KR", "UR", "WB"])),
    size=st.sampled_from(["default", "tiny"]),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
    trace=st.booleans(),
    trace_capacity=st.integers(min_value=1, max_value=1 << 20),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=_SPECS)
    def test_json_round_trip_preserves_spec_and_key(self, spec):
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.key(FINGERPRINT) == spec.key(FINGERPRINT)

    @settings(max_examples=30, deadline=None)
    @given(spec=_SPECS)
    def test_resolution_is_idempotent_and_key_stable(self, spec):
        resolved = spec.resolved(strict=False)
        assert resolved.resolved(strict=False) == resolved
        # Keying always goes through the resolved form, so the raw and
        # resolved spec share one content address.
        assert resolved.key(FINGERPRINT) == spec.key(FINGERPRINT)
        # A resolved spec still round-trips (config fully materialized).
        assert RunSpec.from_json(resolved.to_json()) == resolved

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec.from_payload(
                {"schema": "repro.spec/1", "workload": "camel", "warp": 9}
            )

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec.from_payload({"schema": "repro.spec/2", "workload": "camel"})

    def test_config_typo_rejected(self):
        payload = RunSpec("camel", config=SimConfig()).to_payload()
        payload["config"]["runahead"]["dvr_lanez"] = 1
        del payload["config"]["runahead"]["dvr_lanes"]
        with pytest.raises(ConfigError):
            RunSpec.from_payload(payload)


# ---------------------------------------------------------------------------
# Golden key-stability fixtures.

GOLDEN_SPECS = {
    "camel/ooo/defaults": RunSpec("camel"),
    "bfs/dvr/input+seed": RunSpec(
        "bfs", technique="dvr", max_instructions=5_000, input_name="KR", seed=7
    ),
    "camel/dvr-offload/override": RunSpec(
        "camel",
        technique="dvr-offload",
        overrides=(("runahead.dvr_lanes", 32),),
    ),
    "nas_is/vr/traced": RunSpec(
        "nas_is", technique="vr", trace=True, trace_capacity=1_024
    ),
    "camel/ooo/input-dropped": RunSpec("camel", input_name="KR"),
}


def test_golden_spec_keys(update_goldens):
    keys = {name: spec.key(FINGERPRINT) for name, spec in GOLDEN_SPECS.items()}
    if update_goldens:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n")
        return
    assert GOLDEN_PATH.exists(), "no golden keys; run with --update-goldens"
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert keys == goldens, (
        "spec keys drifted from tests/golden/spec_keys.json — this "
        "invalidates every existing result cache. If intentional, bump "
        "SPEC_SCHEMA and regenerate with --update-goldens."
    )


# ---------------------------------------------------------------------------
# Normalization semantics.

class TestNormalization:
    def test_max_instructions_folds_into_config(self):
        a = RunSpec("camel", max_instructions=800)
        b = RunSpec("camel", config=SimConfig(max_instructions=800))
        assert a.key(FINGERPRINT) == b.key(FINGERPRINT)

    def test_overrides_fold_into_config(self):
        a = RunSpec("camel", overrides=(("runahead.dvr_lanes", 32),))
        b = RunSpec("camel", config=apply_override(SimConfig(), "runahead.dvr_lanes", 32))
        assert a.key(FINGERPRINT) == b.key(FINGERPRINT)

    def test_ablation_pins_normalize_into_key(self):
        pinned = apply_override(
            apply_override(SimConfig(), "runahead.discovery_enabled", False),
            "runahead.nested_enabled",
            False,
        )
        a = RunSpec("camel", technique="dvr-offload")
        b = RunSpec("camel", technique="dvr-offload", config=pinned)
        assert a.key(FINGERPRINT) == b.key(FINGERPRINT)
        # ...and the pins are what distinguishes dvr-offload from dvr.
        assert a.key(FINGERPRINT) != RunSpec("camel", technique="dvr").key(FINGERPRINT)

    def test_trace_capacity_ignored_when_trace_off(self):
        a = RunSpec("camel", trace_capacity=64)
        b = RunSpec("camel", trace_capacity=1 << 20)
        assert a.key(FINGERPRINT) == b.key(FINGERPRINT)
        assert a.key(FINGERPRINT) != RunSpec("camel", trace=True).key(FINGERPRINT)

    def test_tlb_defaults_fold_out_of_the_key(self):
        # The TLB axis postdates repro.spec/1: a spec that spells out
        # the default-off TLB must key identically to one that never
        # mentions it, or every pre-TLB cache entry and golden key
        # would be orphaned.
        plain = RunSpec("camel", technique="dvr", max_instructions=800)
        explicit = RunSpec(
            "camel",
            technique="dvr",
            max_instructions=800,
            overrides=(
                ("memory.tlb.enable", "false"),
                ("runahead.tlb_policy", "walk"),
            ),
        )
        assert explicit.key(FINGERPRINT) == plain.key(FINGERPRINT)
        assert "tlb" not in plain.resolved().config.to_dict()["memory"]
        # Non-default values must key differently...
        enabled = RunSpec(
            "camel",
            technique="dvr",
            max_instructions=800,
            overrides=(("memory.tlb.enable", "true"),),
        )
        assert enabled.key(FINGERPRINT) != plain.key(FINGERPRINT)
        # ...including the speculative-walk policy knob.
        drop = RunSpec(
            "camel",
            technique="dvr",
            max_instructions=800,
            overrides=(("runahead.tlb_policy", "drop"),),
        )
        assert drop.key(FINGERPRINT) != plain.key(FINGERPRINT)

    def test_retired_vector_engine_stays_in_the_wire_format(self):
        # Rule 7: the retired knob is still written, in its old slot,
        # so every key and saved document that embeds it survives.
        runahead = SimConfig().to_dict()["runahead"]
        names = list(runahead)
        assert runahead["vector_engine"] == "slice"
        assert names.index("vector_engine") == names.index("subthread_issue_width") + 1
        assert names.index("vector_chaining") == names.index("vector_engine") + 1
        # A document written while the field existed round-trips exactly
        # (other values are rejected: test_vector_slice_engine.py).
        legacy = json.loads(json.dumps(SimConfig(max_instructions=900).to_dict()))
        assert SimConfig.from_dict(legacy).to_dict() == legacy

    def test_arch_trace_key_is_technique_independent(self):
        base = arch_trace_key(RunSpec("camel", max_instructions=800).stream_projection())
        dvr = arch_trace_key(
            RunSpec("camel", technique="dvr", max_instructions=800).stream_projection()
        )
        assert base == dvr
        # swpf rewrites the program: different stream.
        swpf = arch_trace_key(
            RunSpec("camel", technique="swpf", max_instructions=800).stream_projection()
        )
        assert swpf != base
        # The step limit bounds the captured stream: different key.
        longer = arch_trace_key(
            RunSpec("camel", max_instructions=900).stream_projection()
        )
        assert longer != base


# ---------------------------------------------------------------------------
# Config-pin precedence (the sweep-vs-ablation bug).

class TestPinPrecedence:
    def test_sweeping_pinned_field_under_ablation_raises(self):
        # Pre-refactor this was silently ignored (constructor kwargs
        # beat RunaheadConfig); now config is authoritative and the
        # contradiction is a hard error.
        with pytest.raises(ReproError, match="pins"):
            run_sweep(
                "camel",
                "dvr-offload",
                "runahead.discovery_enabled",
                [True, False],
                instructions=400,
            )

    def test_sweeping_pinned_field_to_pinned_value_is_fine(self):
        result = run_sweep(
            "camel",
            "dvr-noreconv",
            "runahead.reconvergence_enabled",
            [False],
            instructions=400,
        )
        assert len(result.rows) == 1

    def test_sweeping_free_field_under_ablation_is_fine(self):
        result = run_sweep(
            "camel", "dvr-offload", "runahead.dvr_lanes", [16], instructions=400
        )
        assert len(result.rows) == 1


class TestStrictNames:
    """Strict resolution looks names up; keying (non-strict) stays total."""

    def test_unknown_workload_raises_the_registry_error(self):
        with pytest.raises(WorkloadError, match="unknown workload 'nonesuch'"):
            RunSpec("nonesuch").resolved()

    def test_unknown_technique_raises_the_registry_error(self):
        with pytest.raises(ConfigError, match="unknown technique 'bogus'"):
            RunSpec("camel", technique="bogus").resolved()

    def test_software_prefetch_pseudo_technique_resolves(self):
        assert RunSpec("camel", technique="swpf").resolved().technique == "swpf"

    def test_keying_stays_total(self):
        for spec in (RunSpec("nonesuch"), RunSpec("camel", technique="bogus")):
            assert spec.resolved(strict=False).workload == spec.workload
            assert spec.key()

    def test_strict_batch_runs_nothing_before_failing(self):
        reset_batch_counters()
        specs = [RunSpec("camel", max_instructions=400),
                 RunSpec("camel", technique="bogus", max_instructions=400)]
        with pytest.raises(ConfigError, match="unknown technique 'bogus'"):
            run_batch(specs, strict=True)
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0
        # Non-strict batches still isolate the bad spec.
        results = run_batch(specs)
        assert results[1].error_type == "ConfigError"
        assert BATCH_COUNTERS.get("batch.sim.runs") == 1


# ---------------------------------------------------------------------------
# End-to-end: spec-driven run is bit-identical to the kwargs path.

@pytest.mark.parametrize("technique", ["ooo", "vr", "dvr", "dvr-offload"])
def test_spec_run_bit_identical_to_kwargs_run(technique):
    kwargs_result = run_simulation(
        "camel", technique, max_instructions=800, trace=True
    )
    spec_result = run_simulation(
        RunSpec("camel", technique=technique, max_instructions=800, trace=True)
    )
    assert kwargs_result.trace_digest is not None
    assert spec_result.to_dict() == kwargs_result.to_dict()
    assert spec_result.trace_digest == kwargs_result.trace_digest


# ---------------------------------------------------------------------------
# CLI plumbing: --dump-spec -> --spec round trip, spec-file batches.

class TestCLISpecs:
    def _dump(self, capsys, argv):
        assert main(argv + ["--dump-spec"]) == 0
        return capsys.readouterr().out

    def test_run_dump_spec_round_trip(self, tmp_path, capsys):
        dumped = self._dump(
            capsys,
            ["run", "--workload", "nas_is", "--technique", "dvr", "-n", "600"],
        )
        payload = json.loads(dumped)
        assert payload["schema"] == "repro.spec/1"
        assert payload["config"]["max_instructions"] == 600
        path = tmp_path / "spec.json"
        path.write_text(dumped)

        assert main(["run", "--spec", str(path)]) == 0
        from_spec = capsys.readouterr().out
        assert main(
            ["run", "--workload", "nas_is", "--technique", "dvr", "-n", "600"]
        ) == 0
        from_kwargs = capsys.readouterr().out
        assert from_spec == from_kwargs

    def test_dump_spec_is_reparseable_and_key_stable(self, capsys):
        dumped = self._dump(
            capsys,
            ["run", "--workload", "camel", "--technique", "dvr-offload", "-n", "600"],
        )
        restored = RunSpec.from_json(dumped)
        assert restored.key(FINGERPRINT) == RunSpec(
            "camel", technique="dvr-offload", max_instructions=600
        ).key(FINGERPRINT)

    def test_batch_accepts_dumped_specs(self, tmp_path, capsys):
        dumped = self._dump(
            capsys, ["compare", "--workloads", "nas_is", "--techniques", "dvr",
                     "--instructions", "600"]
        )
        path = tmp_path / "specs.json"
        path.write_text(dumped)
        assert main(["batch", "--specs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2/2 specs succeeded" in out

    def test_sweep_dump_spec_carries_overrides(self, capsys):
        dumped = self._dump(
            capsys,
            ["sweep", "--workload", "nas_is", "--technique", "dvr",
             "--param", "runahead.dvr_lanes", "--values", "16", "32",
             "--instructions", "600"],
        )
        specs = json.loads(dumped)
        assert len(specs) == 4  # (baseline + dvr) x 2 values
        lanes = {s["config"]["runahead"]["dvr_lanes"] for s in specs
                 if s.get("technique") == "dvr"}
        assert lanes == {16, 32}

    def test_conflicting_sweep_dump_fails_eagerly(self, capsys):
        # The ConfigError ends the command before any document is
        # printed: one error line and exit 2.
        assert main(
            ["sweep", "--workload", "camel", "--technique", "dvr-offload",
             "--param", "runahead.nested_enabled", "--values", "true",
             "--dump-spec"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: technique 'dvr-offload' pins")
        assert captured.err.count("\n") == 1

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec_schema"] == "repro.spec/1"
        assert payload["workloads"]["camel"]["accepts_input_name"] is False
        assert payload["workloads"]["bfs"]["accepts_input_name"] is True
        assert payload["techniques"]["dvr-offload"]["pins"] == {
            "discovery_enabled": False,
            "nested_enabled": False,
        }
        assert "default" in payload["sizes"]
        assert "figure7" in payload["figures"]
