"""Differential tests: the vectorised graph set-up vs the loop oracles.

``tests/oracles/graphs.py`` keeps the per-edge BFS, the RMAT bit loop
and the int64-argsort CSR builder that ``repro.workloads.graphs``
replaced. Every array must match exactly, and so must the frontier's
order: it lays out the GAP kernels' ``WL`` segment. The product keeps
node ids in the narrowest unsigned dtype that holds them, where the
oracle's are int64; every other array is int64 on both sides.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads.gap import _graph_input
from repro.workloads.graphs import (
    GRAPH_PROFILES,
    _csr_from_edges,
    bfs_frontier,
    rmat_graph,
)

from oracles import graphs as oracle


def assert_same_input(new_graph, new_bfs, ref_graph, ref_bfs):
    n = new_graph.num_nodes
    assert n == ref_graph.num_nodes
    assert new_graph.col_indices.dtype == np.min_scalar_type(max(n - 1, 0))
    assert np.array_equal(new_graph.col_indices, ref_graph.col_indices)
    assert len(new_bfs) == len(ref_bfs)
    for a, b in zip((new_graph.row_offsets, *new_bfs), (ref_graph.row_offsets, *ref_bfs)):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


@st.composite
def edge_lists(draw):
    """A node count, an edge list and a BFS source: any shape goes."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=4 * n)), draw(node)


@given(case=edge_lists())
@example(case=(1, [], 0))  # n = 1, no edges
@example(case=(1, [(0, 0), (0, 0)], 0))  # n = 1, duplicate self-loops
@example(case=(4, [(1, 2), (2, 3)], 0))  # zero-degree source
@example(case=(6, [(0, 1), (1, 0), (3, 4), (4, 5)], 3))  # two parts
@example(case=(5, [(0, 2), (0, 2), (2, 2), (0, 1), (1, 2)], 0))  # dups, loop
@settings(max_examples=60, deadline=None)
def test_small_graphs_match_oracle(case):
    n, edges, source = case
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    graph = _csr_from_edges("g", n, src, dst)
    ref = oracle.csr_from_edges("g", n, src, dst)
    assert_same_input(
        graph, bfs_frontier(graph, source), ref, oracle.bfs_frontier(ref, source)
    )


def test_wide_node_ids_keep_the_stable_order():
    # Above 65,536 nodes the ids widen past 16 bits, to uint32.
    rng = np.random.default_rng(3)
    n = (1 << 16) + 5
    src = rng.integers(0, n, 4000, dtype=np.int64)
    dst = rng.integers(0, n, 4000, dtype=np.int64)
    src[:2] = n - 1
    graph = _csr_from_edges("g", n, src, dst)
    ref = oracle.csr_from_edges("g", n, src, dst)
    assert_same_input(graph, (), ref, ())


@given(
    n_log=st.integers(0, 9),
    degree=st.integers(1, 8),
    seed=st.integers(0, 1000),
    a=st.sampled_from([0.25, 0.55, 0.57, 0.65, 0.97]),
)
@settings(max_examples=25, deadline=None)
def test_rmat_matches_oracle(n_log, degree, seed, a):
    b = (1.0 - a) / 3.0
    graph = rmat_graph(1 << n_log, degree, seed=seed, a=a, b=b, c=b)
    ref = oracle.rmat_graph(1 << n_log, degree, seed=seed, a=a, b=b, c=b)
    assert_same_input(graph, bfs_frontier(graph), ref, oracle.bfs_frontier(ref))


@pytest.mark.parametrize("seed", [2, 8])
def test_last_uint16_id_does_not_wrap(seed):
    # At 2**16 nodes the ids are uint16 and n - 1 is the dtype's last
    # value: an unwidened ``id + 1`` wraps to 0. Two edge blocks each.
    graph = rmat_graph(1 << 16, 2, seed=seed)
    ref = oracle.rmat_graph(1 << 16, 2, seed=seed)
    hub = int(np.argmax(ref.degrees()))
    bfs, ref_bfs = bfs_frontier(graph, hub), oracle.bfs_frontier(ref, hub)
    assert graph.col_indices.dtype == np.uint16
    assert ref_bfs[1][-1] > 0  # the last id is in a level that expands
    assert_same_input(graph, bfs, ref, ref_bfs)


def test_rmat_blocks_end_on_a_partial_block():
    # 81,920 edges: one full block of draws and a quarter of one.
    graph = rmat_graph(1 << 14, 5, seed=2)
    ref = oracle.rmat_graph(1 << 14, 5, seed=2)
    assert_same_input(graph, bfs_frontier(graph), ref, oracle.bfs_frontier(ref))


@pytest.mark.parametrize("seed", [None, 1, 101, 1000])
@pytest.mark.parametrize("size", ["default", "tiny"])
@pytest.mark.parametrize("profile", sorted(GRAPH_PROFILES))
def test_profile_inputs_match_oracle(profile, size, seed):
    graph, frontier, depth = _graph_input(profile, size, seed)
    ref, ref_frontier, ref_depth = oracle.graph_input(profile, size, seed)
    assert graph.name == profile
    assert_same_input(graph, (frontier, depth), ref, (ref_frontier, ref_depth))
