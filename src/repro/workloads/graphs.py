"""CSR graphs and the Table 2 input profiles.

The paper's GAP inputs (Kron, LiveJournal, Orkut, Twitter, Urand; Table
2) are multi-GB crawls we cannot ship; we substitute synthetic graphs
with matching *degree-distribution shape* at a scale proportional to the
scaled cache hierarchy (DESIGN.md, "Substitutions"):

* ``KR``, ``TW``, ``ORK``, ``LJN`` — RMAT/Kronecker power-law graphs
  (few huge vertices, long inner loops — DVR's friendly case);
* ``UR`` — uniform random (Erdos-Renyi-style), whose uniformly small
  vertices are the paper's hard case that Nested mode targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from .profiles import GRAPH_PROFILES, graph_profile  # noqa: F401 (re-exported)


@dataclass(frozen=True)
class Graph:
    """Compressed sparse row representation.

    Frozen because GAP builds share one instance per input (see
    ``repro.workloads.gap``); derive variants with ``dataclasses.replace``.
    """

    name: str
    num_nodes: int
    row_offsets: np.ndarray  # int64, length n+1
    col_indices: np.ndarray  # id_dtype(n), length m
    weights: Optional[np.ndarray] = None  # int64, length m

    @property
    def num_edges(self) -> int:
        return len(self.col_indices)

    def degree(self, node: int) -> int:
        node = int(node)  # a narrow id's ``node + 1`` would wrap
        return int(self.row_offsets[node + 1] - self.row_offsets[node])

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def validate(self) -> None:
        if len(self.row_offsets) != self.num_nodes + 1:
            raise WorkloadError("row_offsets has wrong length")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != self.num_edges:
            raise WorkloadError("row_offsets endpoints are inconsistent")
        if np.any(np.diff(self.row_offsets) < 0):
            raise WorkloadError("row_offsets is not monotone")
        if self.num_edges and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.num_nodes
        ):
            raise WorkloadError("col_indices out of range")


def id_dtype(num_nodes: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every node id of a graph.

    ``col_indices`` keeps its ids in it: uint16 up to 65,536 nodes,
    which covers every Table 2 profile. Widen an id (``int(v)`` or
    ``astype(np.int64)``) before arithmetic on it: at the dtype's last
    id, ``v + 1`` wraps to 0.
    """
    return np.min_scalar_type(max(num_nodes - 1, 0))


def _csr_from_edges(name: str, n: int, src: np.ndarray, dst: np.ndarray) -> Graph:
    # Up to 65,536 nodes the ids are 16 bits, which numpy radix-sorts.
    # The sort is stable, so the edge order equals an int64 argsort's.
    ids = id_dtype(n)
    src = src.astype(ids, copy=False)
    # Count before sorting: bincount's intp copy of ``src`` is freed
    # before the sort allocates ``order``.
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_offsets[1:])
    order = np.argsort(src, kind="stable")
    return Graph(name, n, row_offsets, dst.astype(ids, copy=False)[order])


def uniform_random_graph(n: int, avg_degree: int, seed: int = 1) -> Graph:
    """Erdos-Renyi-style: every vertex has a small, uniform degree."""
    rng = np.random.default_rng(seed)
    m = n * avg_degree
    ids = id_dtype(n)
    # The input is defined by int64 draws; each is narrowed as it lands.
    src = rng.integers(0, n, m, dtype=np.int64).astype(ids)
    dst = rng.integers(0, n, m, dtype=np.int64).astype(ids)
    return _csr_from_edges("uniform", n, src, dst)


#: Edges per block of ``rmat_graph``'s bit loop: 512 KiB of draws.
_RMAT_BLOCK = 1 << 16


def _rmat_edges(rng, n: int, m: int, a: float, b: float, c: float):
    """``m`` unpermuted RMAT edges ``(src, dst)``, one bit per level.

    Each level draws its m numbers block by block into one reused
    buffer, the same stream as one draw of m, and forms both bits in
    reused masks: a block's working set stays in cache.
    """
    ids = id_dtype(n)
    src = np.zeros(m, dtype=ids)
    dst = np.zeros(m, dtype=ids)
    draws = np.empty(min(m, _RMAT_BLOCK))
    masks = np.empty((3, len(draws)), dtype=bool)
    for _ in range(int(np.log2(n))):
        for start in range(0, m, _RMAT_BLOCK):
            src_part = src[start:start + _RMAT_BLOCK]
            dst_part = dst[start:start + _RMAT_BLOCK]
            k = len(src_part)
            r = draws[:k]
            src_bit, dst_bit, mask = masks[:, :k]
            rng.random(out=r)
            np.greater_equal(r, a + b, out=src_bit)
            # dst's bit: a <= r < a + b, or r >= a + b + c.
            np.greater_equal(r, a, out=dst_bit)
            dst_bit &= np.logical_not(src_bit, out=mask)
            dst_bit |= np.greater_equal(r, a + b + c, out=mask)
            src_part <<= 1
            src_part |= src_bit
            dst_part <<= 1
            dst_part |= dst_bit
    return src, dst


def rmat_graph(
    n: int,
    avg_degree: int,
    seed: int = 1,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> Graph:
    """Recursive-matrix (Kronecker-like) power-law graph generator."""
    if n < 1 or n & (n - 1):
        raise WorkloadError("rmat_graph needs a power-of-two node count")
    rng = np.random.default_rng(seed)
    src, dst = _rmat_edges(rng, n, n * avg_degree, a, b, c)
    # Permute IDs so high-degree vertices are scattered (as in GAP).
    # Rebinding frees each unpermuted array before the CSR sort runs.
    perm = rng.permutation(n).astype(src.dtype)
    src = perm[src]
    dst = perm[dst]
    return _csr_from_edges("rmat", n, src, dst)


def add_weights(graph: Graph, seed: int = 7, max_weight: int = 64) -> Graph:
    """A copy of ``graph`` with random edge weights; ``graph`` is untouched."""
    rng = np.random.default_rng(seed)
    return replace(
        graph, weights=rng.integers(1, max_weight, graph.num_edges, dtype=np.int64)
    )


def bfs_frontier(graph: Graph, source: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Run BFS functionally; return (largest frontier, depth array).

    The GAP kernels operate on a frontier worklist; using the widest BFS
    level gives a realistic mid-traversal snapshot. Each level is built
    in the order a queue-based BFS discovers it (the first level that
    reaches the widest size wins), because that order lays out the
    kernels' worklist. ``frontier`` and ``depth`` are int64 whatever
    ``col_indices``' dtype.
    """
    row, col = graph.row_offsets, graph.col_indices
    depth = np.full(graph.num_nodes, -1, dtype=np.int64)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    best = frontier
    level = 0
    while len(frontier):
        if len(frontier) > len(best):
            best = frontier
        # Every frontier node's neighbour list, concatenated in visiting order.
        starts = row[frontier]
        lengths = row[frontier + 1] - starts
        firsts = np.cumsum(lengths) - lengths
        neighbours = col[np.repeat(starts - firsts, lengths) + np.arange(lengths.sum())]
        neighbours = neighbours[depth[neighbours] < 0]
        # Keep each newly reached node once, at its first discovery.
        # The ids stay narrow through the sort; the level is widened,
        # since ``frontier + 1`` above would wrap at the dtype's last id.
        _, first = np.unique(neighbours, return_index=True)
        frontier = neighbours[np.sort(first)].astype(np.int64)
        level += 1
        depth[frontier] = level
    return best, depth


# -- Table 2 profiles ----------------------------------------------------------


def make_graph(profile: str, seed: Optional[int] = None) -> Graph:
    """Build one of the named Table 2 stand-in inputs."""
    spec = dict(graph_profile(profile))
    kind = spec.pop("kind")
    if seed is not None:
        spec["seed"] = seed
    if kind == "rmat":
        b = c = (1.0 - spec.pop("a")) / 3.0
        graph = rmat_graph(
            spec["n"], spec["avg_degree"], seed=spec["seed"], a=1.0 - 3 * b, b=b, c=c
        )
    else:
        graph = uniform_random_graph(spec["n"], spec["avg_degree"], seed=spec["seed"])
    graph = replace(graph, name=profile)
    graph.validate()
    return graph
