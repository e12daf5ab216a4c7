"""Workload construction and functional-correctness tests.

Each kernel is validated two ways: it builds and runs through the
timing core, and (at tiny sizes) it runs functionally to completion and
produces the algorithmically expected memory contents.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import FunctionalCore, OoOCore
from repro.errors import WorkloadError
from repro.experiments import RunSpec, run_simulation
from repro.isa.semantics import hash64
from repro.observability.export import stats_payload
from repro.workloads import (
    GAP_WORKLOADS,
    HPC_DB_WORKLOADS,
    WORKLOAD_NAMES,
    build_workload,
)
from repro.workloads.gap import _graph_input
from repro.workloads.graphs import add_weights

from conftest import quick_config


class TestRegistry:
    def test_names_cover_paper_suite(self):
        assert len(WORKLOAD_NAMES) == 13
        assert set(GAP_WORKLOADS) == {"bc", "bfs", "cc", "pr", "sssp"}
        assert "graph500" in HPC_DB_WORKLOADS

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            build_workload("quake3")

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_builds_and_simulates(self, name):
        wl = build_workload(name, size="tiny")
        result = OoOCore(
            wl.program, wl.memory, quick_config(max_instructions=2000), workload_name=name
        ).run()
        assert result.instructions > 100
        assert result.demand_loads > 0

    @pytest.mark.parametrize("name", ["bfs", "cc", "pr"])
    def test_gap_input_selection(self, name):
        wl = build_workload(name, input_name="UR", size="tiny")
        assert wl.meta["input"] == "UR"

    def test_fresh_rebuild(self):
        wl = build_workload("camel", size="tiny")
        again = wl.fresh()
        assert again.name == wl.name
        assert again.memory is not wl.memory

    @pytest.mark.parametrize("name, size", [("camel", "Tiny"), ("camel", "huge"),
                                            ("bfs", "TINY"), ("bfs", None)])
    def test_unknown_size_rejected(self, name, size):
        with pytest.raises(WorkloadError, match=r"'default', 'tiny'"):
            build_workload(name, size=size)

    def test_unknown_size_rejected_through_a_spec(self):
        with pytest.raises(WorkloadError, match="size"):
            run_simulation(RunSpec("camel", size="huge", max_instructions=500))

    @pytest.mark.parametrize("name", ["bfs", "camel"])
    @pytest.mark.parametrize("seed", [[1, 2], -1, 5.0, "5"])
    def test_malformed_seed_rejected(self, name, seed):
        with pytest.raises(WorkloadError, match="seed"):
            build_workload(name, size="tiny", seed=seed)

    @pytest.mark.parametrize("size", ["default", "tiny"])
    def test_unknown_input_rejected_at_every_size(self, size):
        with pytest.raises(WorkloadError, match="bogus"):
            build_workload("bfs", input_name="bogus", size=size)


class TestGraphInputMemo:
    """The per-process graph memo cannot carry state between builds."""

    def test_entries_are_read_only(self):
        graph, frontier, depth = _graph_input("KR", "tiny", None)
        for array in (graph.row_offsets, graph.col_indices, frontier, depth):
            with pytest.raises(ValueError):
                array[0] = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.weights = np.ones(graph.num_edges, dtype=np.int64)

    def test_add_weights_leaves_its_argument_alone(self):
        graph = _graph_input("KR", "tiny", None)[0]
        weighted = add_weights(graph)
        assert graph.weights is None
        assert weighted.weights is not None
        assert weighted.col_indices is graph.col_indices

    def test_a_run_cannot_change_the_next_build(self):
        digest = build_workload("bfs", size="tiny").memory.digest()
        hits = _graph_input.cache_info().hits
        # The run writes VISITED and OUTWL into its own image.
        run_simulation("bfs", "dvr", size="tiny", max_instructions=3000, replay="off")
        wl = build_workload("bfs", size="tiny")
        assert wl.memory.digest() == digest
        assert _graph_input.cache_info().hits > hits
        # Nor can a write to a built image's copy of the CSR.
        wl.memory.segment("COL").data[:] = 0
        assert build_workload("bfs", size="tiny").memory.digest() == digest

    # KR's own seed is 11 at default size; tiny inputs default to
    # sum(map(ord, "KR")) == 157.
    @pytest.mark.parametrize("size,own_seed", [("default", 11), ("tiny", 157)])
    def test_default_seed_shares_the_profile_seed_entry(self, size, own_seed):
        _graph_input.cache_clear()
        implicit = build_workload("bfs", size=size, seed=None)
        explicit = build_workload("bfs", size=size, seed=own_seed)
        info = _graph_input.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for name in ("ROW", "COL"):
            assert np.array_equal(
                implicit.memory.segment(name).data, explicit.memory.segment(name).data
            )

    @pytest.mark.parametrize("order", [("sssp", "bfs"), ("bfs", "sssp")], ids="-".join)
    def test_shared_graph_runs_match_cold_runs(self, order):
        def run(name):
            result = run_simulation(
                name, "dvr", size="tiny", max_instructions=2000, replay="off"
            )
            return json.dumps(stats_payload(result), indent=2, sort_keys=True)

        _graph_input.cache_clear()
        shared = [run(name) for name in order]
        cold = []
        for name in order:
            _graph_input.cache_clear()
            cold.append(run(name))
        assert shared == cold


class TestFunctionalCorrectness:
    def test_camel_counts_conserved(self):
        wl = build_workload("camel", size="tiny")
        n = wl.meta["n"]
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        counts = wl.memory.segment("C").data
        assert int(counts.sum()) == n  # one increment per iteration

    def test_camel_matches_reference(self):
        wl = build_workload("camel", size="tiny")
        n = wl.meta["n"]
        mask = n - 1
        a = wl.memory.segment("A").data.copy()
        b = wl.memory.segment("B").data.copy()
        expected = np.zeros(n, dtype=np.int64)
        for i in range(n):
            h1 = hash64(int(a[i])) & mask
            h2 = hash64(int(b[h1])) & mask
            expected[h2] += 1
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        assert np.array_equal(wl.memory.segment("C").data, expected)

    def test_nas_is_histogram(self):
        wl = build_workload("nas_is", size="tiny")
        keys = wl.memory.segment("K").data.copy()
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        expected = np.bincount(keys, minlength=len(keys))
        assert np.array_equal(wl.memory.segment("CNT").data, expected)

    def test_random_access_xor(self):
        wl = build_workload("random_access", size="tiny")
        idx = wl.memory.segment("R").data.copy()
        table_before = wl.memory.segment("T").data.copy()
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        table_after = wl.memory.segment("T").data
        expected = table_before.copy()
        for i in idx:
            expected[i] ^= i
        assert np.array_equal(table_after, expected)

    def test_hashjoin_sum_matches_reference(self):
        wl = build_workload("hj2", size="tiny")
        n = wl.meta["n"]
        mask = n - 1
        keys = wl.memory.segment("K").data.copy()
        table = wl.memory.segment("HT").data.copy()
        expected = 0
        for key in keys:
            v = int(key)
            for _ in range(2):
                v = int(table[hash64(v) & mask])
            expected += v
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        assert int(wl.memory.segment("OUT").data[0]) == expected

    def test_kangaroo_increments(self):
        wl = build_workload("kangaroo", size="tiny")
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        assert int(wl.memory.segment("D").data.sum()) == wl.meta["n"]

    def test_nas_cg_spmv_matches_numpy(self):
        wl = build_workload("nas_cg", size="tiny")
        rows = wl.meta["rows"]
        row = wl.memory.segment("ROW").data.copy()
        col = wl.memory.segment("COL").data.copy()
        val = wl.memory.segment("VAL").data.copy()
        x = wl.memory.segment("X").data.copy()
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        y = wl.memory.segment("Y").data
        for r in (0, rows // 2, rows - 1):
            s, e = row[r], row[r + 1]
            assert y[r] == pytest.approx(float(np.dot(val[s:e], x[col[s:e]])))

    def test_bfs_expands_frontier_correctly(self):
        wl = build_workload("bfs", size="tiny")
        frontier = wl.memory.segment("WL").data.copy()
        visited_before = wl.memory.segment("VISITED").data.copy()
        row = wl.memory.segment("ROW").data.copy()
        col = wl.memory.segment("COL").data.copy()
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        visited_after = wl.memory.segment("VISITED").data
        # Every neighbour of the frontier is now visited.
        for u in frontier:
            for v in col[row[u] : row[u + 1]]:
                assert visited_after[v] == 1
        # Nothing was ever un-visited.
        assert np.all(visited_after >= visited_before)

    def test_graph500_sets_parents(self):
        wl = build_workload("graph500", size="tiny")
        parent_before = wl.memory.segment("PARENT").data.copy()
        frontier = wl.memory.segment("WL").data.copy()
        row = wl.memory.segment("ROW").data.copy()
        col = wl.memory.segment("COL").data.copy()
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        parent_after = wl.memory.segment("PARENT").data
        frontier_set = set(int(u) for u in frontier)
        for v in range(len(parent_after)):
            if parent_before[v] == -1 and parent_after[v] != -1:
                assert int(parent_after[v]) in frontier_set

    def test_cc_labels_shrink(self):
        wl = build_workload("cc", size="tiny")
        before = wl.memory.segment("COMP").data.copy()
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        after = wl.memory.segment("COMP").data
        assert np.all(after <= before)

    def test_sssp_relaxes_distances(self):
        wl = build_workload("sssp", size="tiny")
        before = wl.memory.segment("DIST").data.copy()
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        after = wl.memory.segment("DIST").data
        assert np.all(after <= before)
        assert np.any(after < before)

    def test_pr_accumulates_contributions(self):
        wl = build_workload("pr", size="tiny")
        row = wl.memory.segment("ROW").data.copy()
        col = wl.memory.segment("COL").data.copy()
        contrib = wl.memory.segment("CONTRIB").data.copy()
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        rank = wl.memory.segment("RANK").data
        for u in (0, len(rank) // 2):
            expected = float(contrib[col[row[u] : row[u + 1]]].sum())
            assert rank[u] == pytest.approx(expected)

    def test_bc_accumulates_sigma(self):
        wl = build_workload("bc", size="tiny")
        before = wl.memory.segment("SIGMA").data.copy()
        FunctionalCore(wl.program, wl.memory).run_to_completion()
        after = wl.memory.segment("SIGMA").data
        assert np.all(after >= before)


class TestWorkloadShapes:
    @pytest.mark.parametrize("name", ["camel", "hj8", "kangaroo"])
    def test_multi_level_chains_are_memory_bound(self, name):
        wl = build_workload(name)
        result = OoOCore(wl.program, wl.memory, quick_config(4000)).run()
        assert result.llc_mpki() > 30

    def test_nas_cg_has_short_inner_loops(self):
        wl = build_workload("nas_cg")
        assert wl.meta["row_len"] < 64  # below the nested threshold

    def test_gap_meta_reports_graph(self):
        wl = build_workload("bfs")
        assert wl.meta["nodes"] > 0 and wl.meta["edges"] > 0
        assert wl.meta["frontier"] > 0
