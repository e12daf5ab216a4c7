"""The loop versions of the graph set-up, kept as differential oracles.

``repro.workloads.graphs`` builds RMAT bits in place in narrow node
ids, sorts them into CSR and runs a level-synchronous BFS over whole
frontiers. These are the versions it was rewritten from: RMAT bits
shifted into fresh int64 arrays, an int64 argsort, and a queue-order
BFS that visits one edge at a time. ``tests/test_graph_oracles.py``
checks the product against them array for array, frontier order
included; only the product's node ids are narrower than int64.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.workloads.graphs import GRAPH_PROFILES, Graph


def csr_from_edges(name: str, n: int, src: np.ndarray, dst: np.ndarray) -> Graph:
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = dst[order]
    counts = np.bincount(src, minlength=n)
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_offsets[1:])
    return Graph(name, n, row_offsets, dst.astype(np.int64))


def rmat_graph(
    n: int,
    avg_degree: int,
    seed: int = 1,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> Graph:
    rng = np.random.default_rng(seed)
    m = n * avg_degree
    levels = int(np.log2(n))
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(levels):
        r = rng.random(m)
        src_bit = (r >= a + b).astype(np.int64)
        dst_bit = (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    perm = rng.permutation(n)
    return csr_from_edges("rmat", n, perm[src], perm[dst])


def uniform_random_graph(n: int, avg_degree: int, seed: int = 1) -> Graph:
    rng = np.random.default_rng(seed)
    m = n * avg_degree
    src = rng.integers(0, n, m, dtype=np.int64)
    dst = rng.integers(0, n, m, dtype=np.int64)
    return csr_from_edges("uniform", n, src, dst)


def bfs_frontier(graph: Graph, source: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    depth = np.full(graph.num_nodes, -1, dtype=np.int64)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    best = frontier
    level = 0
    while len(frontier):
        if len(frontier) > len(best):
            best = frontier
        next_nodes = []
        for u in frontier:
            s, e = graph.row_offsets[u], graph.row_offsets[u + 1]
            for v in graph.col_indices[s:e]:
                if depth[v] < 0:
                    depth[v] = level + 1
                    next_nodes.append(v)
        frontier = np.array(next_nodes, dtype=np.int64)
        level += 1
    return best, depth


def graph_input(profile: str, size: str, seed: Optional[int] = None):
    """``(graph, frontier, depth)`` of one GAP input, built the loop way."""
    spec = dict(GRAPH_PROFILES[profile])
    if size == "tiny":
        n, avg_degree = 1 << 10, 8
        seed = seed if seed is not None else sum(map(ord, profile))
        kind = "uniform" if profile == "UR" else "rmat"
        a, b = 0.57, 0.19
    else:
        n, avg_degree, kind = spec["n"], spec["avg_degree"], spec["kind"]
        seed = seed if seed is not None else spec["seed"]
        if kind == "rmat":
            b = (1.0 - spec["a"]) / 3.0
            a = 1.0 - 3 * b
    if kind == "rmat":
        graph = rmat_graph(n, avg_degree, seed=seed, a=a, b=b, c=b)
    else:
        graph = uniform_random_graph(n, avg_degree, seed=seed)
    return (graph, *bfs_frontier(graph))
