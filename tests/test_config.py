"""Configuration object tests."""

import dataclasses
import json

import pytest

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    RunaheadConfig,
    SimConfig,
    _plain_dict,
)
from repro.errors import ConfigError
from repro.experiments.batch import run_batch
from repro.experiments.cache import BATCH_COUNTERS, reset_batch_counters
from repro.experiments.spec import RunSpec, apply_override


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(32 * 1024, 8, latency=4)
        assert cfg.num_sets == 64

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(0, 8, latency=4)

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(1000, 3, latency=4)


class TestCoreConfig:
    def test_paper_defaults_match_table1(self):
        cfg = CoreConfig()
        assert cfg.width == 5
        assert cfg.rob_size == 350
        assert cfg.iq_size == 128
        assert cfg.lq_size == 128
        assert cfg.sq_size == 72
        assert cfg.frontend_stages == 15
        assert cfg.int_div_latency == 18
        assert cfg.fp_mul_latency == 5

    def test_with_rob_keeps_queues(self):
        cfg = CoreConfig().with_rob(512)
        assert cfg.rob_size == 512
        assert cfg.iq_size == 128

    def test_with_scaled_backend(self):
        cfg = CoreConfig().with_scaled_backend(700)
        assert cfg.rob_size == 700
        assert cfg.iq_size == 256
        assert cfg.lq_size == 256
        assert cfg.sq_size == 144

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigError):
            CoreConfig(width=0)

    def test_rejects_bad_queue(self):
        with pytest.raises(ConfigError):
            CoreConfig(iq_size=0)


class TestMemoryConfig:
    def test_paper_sizes(self):
        cfg = MemoryConfig.paper()
        assert cfg.l1d.size_bytes == 32 * 1024
        assert cfg.l2.size_bytes == 256 * 1024
        assert cfg.l3.size_bytes == 8 * 1024 * 1024
        assert cfg.l1d_mshrs == 24
        assert cfg.dram_latency == 200

    def test_scaled_llc_smaller(self):
        assert MemoryConfig.scaled().l3.size_bytes < MemoryConfig.paper().l3.size_bytes

    def test_scaled_keeps_l1(self):
        assert MemoryConfig.scaled().l1d.size_bytes == 32 * 1024

    def test_cache_line_size_must_match_the_hierarchy(self):
        # The hierarchy numbers lines with memory.line_bytes, each cache
        # sizes its sets with its own: a mismatch would silently double
        # (or halve) every level's capacity.
        with pytest.raises(
            ConfigError,
            match=r"memory\.l1d\.line_bytes \(64\) must equal memory\.line_bytes \(128\)",
        ):
            apply_override(SimConfig(), "memory.line_bytes", 128)
        with pytest.raises(ConfigError, match=r"memory\.l3\.line_bytes \(128\)"):
            apply_override(SimConfig(), "memory.l3.line_bytes", 128)
        wide = [CacheConfig(size, 8, latency=4, line_bytes=128)
                for size in (32 * 1024, 128 * 1024, 512 * 1024)]
        cfg = MemoryConfig(*wide, line_bytes=128)
        assert cfg.l1d.num_sets == 32  # 32 KiB: 8-way sets of 128 B lines


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.stride_prefetcher_enabled
        assert cfg.runahead.dvr_lanes == 128
        assert cfg.runahead.vector_width == 8
        assert cfg.runahead.nested_threshold == 64
        assert cfg.runahead.instruction_timeout == 200

    def test_with_helpers_are_pure(self):
        cfg = SimConfig()
        other = cfg.with_max_instructions(5)
        assert cfg.max_instructions != 5
        assert other.max_instructions == 5
        assert cfg.with_core(CoreConfig(width=4)).core.width == 4
        assert cfg.with_runahead(RunaheadConfig(dvr_lanes=32)).runahead.dvr_lanes == 32

    def test_paper_and_scaled_constructors(self):
        assert SimConfig.paper().memory.l3.size_bytes == 8 * 1024 * 1024
        assert SimConfig.scaled().memory.l3.size_bytes == 512 * 1024

    def test_branch_config_defaults(self):
        cfg = BranchPredictorConfig()
        assert cfg.num_tagged_tables == 4
        assert cfg.min_history < cfg.max_history

    @pytest.mark.parametrize("cfg", [
        SimConfig(),
        SimConfig.paper(max_instructions=900),
        apply_override(SimConfig(), "memory.tlb.enable", True),
        apply_override(SimConfig(), "runahead.tlb_policy", "drop"),
    ])
    def test_field_walk_is_asdict(self, cfg):
        # to_dict, and so every spec key, reads the walk: it must be
        # asdict exactly, key order included.
        walked, reference = _plain_dict(cfg), dataclasses.asdict(cfg)
        assert json.dumps(walked) == json.dumps(reference)
        assert walked["memory"] is not _plain_dict(cfg)["memory"]


class TestRetiredBranchField:
    """``branch.mispredict_penalty_extra`` is retired like
    ``runahead.vector_engine`` (docs/spec.md rule 7)."""

    FIELD = "mispredict_penalty_extra"

    def test_stays_in_the_wire_format_as_branch_last_entry(self):
        branch = SimConfig().to_dict()["branch"]
        assert list(branch)[-1] == self.FIELD and branch[self.FIELD] == 0
        assert list(branch)[:-1] == [
            "bimodal_bits", "num_tagged_tables", "tagged_entries_bits",
            "tag_bits", "min_history", "max_history",
        ]
        legacy = json.loads(json.dumps(SimConfig(max_instructions=900).to_dict()))
        assert SimConfig.from_dict(legacy).to_dict() == legacy

    @pytest.mark.parametrize("value", [50, 1, -1, "0", 0.0, False, None])
    def test_other_values_are_rejected(self, value):
        doc = SimConfig().to_dict()
        doc["branch"][self.FIELD] = value
        with pytest.raises(ConfigError, match="retired"):
            SimConfig.from_dict(doc)

    @pytest.mark.parametrize("value", [0, 50])
    def test_every_override_is_rejected(self, value):
        with pytest.raises(ConfigError, match=f"branch.{self.FIELD}"):
            apply_override(SimConfig(), f"branch.{self.FIELD}", value)

    def test_a_strict_batch_fails_before_simulating(self):
        reset_batch_counters()
        spec = RunSpec("bfs", max_instructions=3000,
                       overrides=((f"branch.{self.FIELD}", 50),))
        with pytest.raises(ConfigError, match=f"branch.{self.FIELD}"):
            run_batch([spec], strict=True)
        assert BATCH_COUNTERS.get("batch.sim.runs", 0) == 0
        assert BATCH_COUNTERS.get("batch.batches", 0) == 0
