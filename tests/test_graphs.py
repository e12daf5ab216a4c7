"""Tests for the graph generators and Table 2 input profiles."""

from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.graphs import (
    GRAPH_PROFILES,
    Graph,
    add_weights,
    bfs_frontier,
    make_graph,
    rmat_graph,
    uniform_random_graph,
)


class TestCSRInvariants:
    @pytest.mark.parametrize("profile", sorted(GRAPH_PROFILES))
    def test_profiles_validate(self, profile):
        graph = make_graph(profile)
        graph.validate()  # raises on inconsistency
        assert graph.num_edges == GRAPH_PROFILES[profile]["n"] * GRAPH_PROFILES[profile]["avg_degree"]

    def test_unknown_profile(self):
        with pytest.raises(WorkloadError):
            make_graph("NOPE")

    def test_degrees_sum_to_edges(self):
        graph = uniform_random_graph(1024, 8, seed=4)
        assert int(graph.degrees().sum()) == graph.num_edges

    def test_degree_accessor(self):
        graph = uniform_random_graph(256, 4, seed=5)
        for node in (0, 17, 255):
            assert graph.degree(node) == graph.degrees()[node]

    def test_degree_widens_a_narrow_id(self):
        # n - 1 is uint16's last value: unwidened, ``node + 1`` wraps to 0.
        graph = uniform_random_graph(1 << 16, 1, seed=3)
        last = graph.col_indices.dtype.type(graph.num_nodes - 1)
        assert graph.degree(last) == graph.degrees()[-1]

    def test_validate_rejects_bad_offsets(self):
        graph = uniform_random_graph(64, 2, seed=1)
        graph = replace(graph, row_offsets=graph.row_offsets[:-1])
        with pytest.raises(WorkloadError):
            graph.validate()

    def test_validate_rejects_out_of_range_indices(self):
        graph = uniform_random_graph(64, 2, seed=1)
        graph.col_indices[0] = 64
        with pytest.raises(WorkloadError):
            graph.validate()

    def test_rmat_requires_power_of_two(self):
        with pytest.raises(WorkloadError):
            rmat_graph(100, 4)
        with pytest.raises(WorkloadError):
            rmat_graph(0, 4)

    @given(
        n_log=st.integers(4, 9),
        degree=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_generators_always_valid(self, n_log, degree, seed):
        n = 1 << n_log
        for graph in (
            uniform_random_graph(n, degree, seed),
            rmat_graph(n, degree, seed),
        ):
            graph.validate()
            assert graph.num_nodes == n
            assert graph.num_edges == n * degree


class TestDegreeDistributionShapes:
    def test_rmat_is_more_skewed_than_uniform(self):
        """Power-law (KR/TW) vs uniform (UR): the paper's key contrast."""
        rmat = rmat_graph(1 << 12, 16, seed=7)
        uniform = uniform_random_graph(1 << 12, 16, seed=7)
        assert rmat.degrees().max() > 4 * uniform.degrees().max()

    def test_ur_profile_uniform_small_degrees(self):
        graph = make_graph("UR")
        degrees = graph.degrees()
        # "vertices are uniformly smaller than the 128-edge-element target"
        assert np.percentile(degrees, 99) < 128

    def test_kr_profile_has_huge_vertices(self):
        graph = make_graph("KR")
        assert graph.degrees().max() >= 128

    def test_seed_reproducibility(self):
        a = make_graph("KR")
        b = make_graph("KR")
        assert np.array_equal(a.col_indices, b.col_indices)

    def test_seed_override_changes_graph(self):
        a = make_graph("UR")
        b = make_graph("UR", seed=999)
        assert not np.array_equal(a.col_indices, b.col_indices)


class TestWeightsAndFrontier:
    def test_add_weights(self):
        graph = add_weights(uniform_random_graph(256, 4, seed=2))
        assert graph.weights is not None
        assert len(graph.weights) == graph.num_edges
        assert graph.weights.min() >= 1

    def test_bfs_depths_match_networkx(self):
        graph = uniform_random_graph(128, 4, seed=11)
        _, depth = bfs_frontier(graph, source=0)
        g = nx.DiGraph()
        g.add_nodes_from(range(graph.num_nodes))
        for u in range(graph.num_nodes):
            s, e = graph.row_offsets[u], graph.row_offsets[u + 1]
            for v in graph.col_indices[s:e]:
                g.add_edge(u, int(v))
        expected = nx.single_source_shortest_path_length(g, 0)
        for node in range(graph.num_nodes):
            if node in expected:
                assert depth[node] == expected[node]
            else:
                assert depth[node] == -1

    def test_frontier_is_one_bfs_level(self):
        graph = uniform_random_graph(512, 6, seed=12)
        frontier, depth = bfs_frontier(graph)
        levels = {int(depth[v]) for v in frontier}
        assert len(levels) == 1

    def test_frontier_is_widest_level(self):
        graph = uniform_random_graph(512, 6, seed=13)
        frontier, depth = bfs_frontier(graph)
        counts = np.bincount(depth[depth >= 0])
        assert len(frontier) == counts.max()
