"""GAP benchmark kernels (bc, bfs, cc, pr, sssp) plus Graph500 BFS.

Each kernel is the memory-access-critical inner phase of the GAP
reference implementation, hand-lowered to our ISA over CSR graphs:

* ``bfs`` — Algorithm 1 of the paper: frontier worklist (outer striding
  load), neighbor walk (inner striding load), data-dependent visited
  branch — the canonical two-level nested shape with divergence.
* ``graph500`` — the same top-down step with a parent array (Graph500
  BFS semantics).
* ``bc`` — frontier pass accumulating path counts, with loads on the
  divergent path (broad divergence, paper Section 3 insight #5).
* ``cc`` — label propagation over every vertex (Shiloach-Vishkin hook).
* ``pr`` — PageRank gather using float contributions.
* ``sssp`` — Bellman-Ford-style edge relaxation over a frontier with
  edge weights.

Frontier-based kernels start from the widest BFS level of the input so
the simulated region is a realistic mid-traversal snapshot.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..isa.program import ProgramBuilder
from ..memory.memory_image import MemoryImage
from .base import Workload
from .graphs import (
    Graph,
    add_weights,
    bfs_frontier,
    make_graph,
    rmat_graph,
    uniform_random_graph,
)
from .profiles import GRAPH_PROFILES, graph_profile

_DEFAULT_INPUT = "KR"

GraphInput = Tuple[Graph, np.ndarray, np.ndarray]


def _input_key(input_name: Optional[str], size: str, seed: Optional[int]) -> Tuple[str, str, int]:
    profile = input_name or _DEFAULT_INPUT
    graph_profile(profile)  # unknown names raise before the size branch
    # Key the memos on the seed the graph is built from, so ``None`` and
    # the profile's own seed share one entry.
    return profile, size, _input_seed(profile, size, seed)


def shared_input(
    input_name: Optional[str] = None, size: str = "default", seed: Optional[int] = None
) -> GraphInput:
    """``(graph, frontier, depth)`` of one GAP input, from the process memo.

    Every caller gets the same read-only arrays (see :func:`_graph_input`).
    """
    return _graph_input(*_input_key(input_name, size, seed))


def _input_seed(profile: str, size: str, seed: Optional[int]) -> int:
    """The data seed an input is built from: ``seed`` or the profile's own."""
    if seed is not None:
        return seed
    return sum(map(ord, profile)) if size == "tiny" else graph_profile(profile)["seed"]


@functools.lru_cache(maxsize=len(GRAPH_PROFILES))
def _graph_input(profile: str, size: str, seed: Optional[int]) -> GraphInput:
    """``(graph, frontier, depth)``: one input and its widest BFS level.

    Built once per process per key and shared by all six GAP builders,
    so every array is read-only and :class:`Graph` is frozen: a stray
    write raises instead of leaking into the next build. Each image's
    ``ROW``, ``COL``, ``WL`` and ``DEPTH`` segments borrow these arrays
    as they are (``MemoryImage.allocate`` copies no read-only integer
    array), and a store to one raises; what a kernel stores to is built
    fresh per image.
    """
    seed = _input_seed(profile, size, seed)
    if size == "tiny":
        # A small but well-connected stand-in (truncating a large graph
        # would leave a near-empty BFS frontier).
        if profile == "UR":
            graph = uniform_random_graph(1 << 10, 8, seed=seed)
        else:
            graph = rmat_graph(1 << 10, 8, seed=seed)
        graph = replace(graph, name=profile)
        graph.validate()
    else:
        graph = make_graph(profile, seed=seed)
    frontier, depth = bfs_frontier(graph)
    for array in (graph.row_offsets, graph.col_indices, frontier, depth):
        array.flags.writeable = False
    return graph, frontier, depth


@functools.lru_cache(maxsize=len(GRAPH_PROFILES))
def _edge_weights(profile: str, size: str, seed: Optional[int]) -> np.ndarray:
    """sssp's edge weights for one input, drawn once per process per key.

    ``add_weights`` draws them as int64 from its own fixed seed; each
    lies in [1, 64), so the memo keeps them as read-only uint8, which
    each build's ``WEIGHT`` segment borrows and reads as int64 words.
    """
    weights = add_weights(_graph_input(profile, size, seed)[0]).weights.astype(np.uint8)
    weights.flags.writeable = False
    return weights


def _load_graph_csr(mem: MemoryImage, graph: Graph):
    row = mem.allocate("ROW", graph.row_offsets)
    col = mem.allocate("COL", graph.col_indices)
    return row, col


def _emit_indexed_load(b: ProgramBuilder, dst: str, base: str, idx: str, tmp: str) -> None:
    b.shli(tmp, idx, 3)
    b.add(tmp, base, tmp)
    b.load(dst, tmp)


def build_bfs(input_name: Optional[str] = None, size: str = "default", seed: Optional[int] = None) -> Workload:
    graph, frontier, depth = shared_input(input_name, size, seed)
    level = int(depth[frontier[0]]) if len(frontier) else 0
    visited = (depth >= 0) & (depth <= level)

    mem = MemoryImage()
    _load_graph_csr(mem, graph)
    mem.allocate("WL", frontier)
    vis = mem.allocate("VISITED", visited.astype(np.int64))
    out = mem.allocate("OUTWL", max(1, graph.num_edges))

    b = ProgramBuilder("bfs")
    b.li("r1", mem.segment("WL").base)
    b.li("r2", mem.segment("ROW").base)
    b.li("r3", mem.segment("COL").base)
    b.li("r4", vis.base)
    b.li("r5", out.base)
    b.li("r6", len(frontier))  # worklist size
    b.li("r7", 0)   # wi
    b.li("r8", 0)   # out count
    b.label("outer")
    _emit_indexed_load(b, "r10", "r1", "r7", "r9")  # u = WL[wi]   (outer stride)
    _emit_indexed_load(b, "r12", "r2", "r10", "r11")  # s = ROW[u]
    b.load("r13", "r11", 8)  # e = ROW[u+1]
    b.mov("r14", "r12")  # j = s
    b.cmp_lt("r15", "r14", "r13")
    b.bez("r15", "inner_done")
    b.label("inner")
    _emit_indexed_load(b, "r17", "r3", "r14", "r16")  # v = COL[j]  (inner stride)
    b.shli("r18", "r17", 3)
    b.add("r18", "r4", "r18")
    b.load("r19", "r18")  # visited[v]                  (indirect, FLR)
    b.bnz("r19", "skip")
    b.li("r20", 1)
    b.store("r20", "r18")  # visited[v] = 1
    b.shli("r21", "r8", 3)
    b.add("r21", "r5", "r21")
    b.store("r17", "r21")  # OUTWL[cnt] = v
    b.addi("r8", "r8", 1)
    b.label("skip")
    b.addi("r14", "r14", 1)
    b.cmp_lt("r15", "r14", "r13")
    b.bnz("r15", "inner")
    b.label("inner_done")
    b.addi("r7", "r7", 1)
    b.cmp_lt("r22", "r7", "r6")
    b.bnz("r22", "outer")
    return Workload(
        "bfs",
        b.build(),
        mem,
        meta={
            "input": graph.name,
            "frontier": len(frontier),
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "build_args": {"input_name": graph.name, "size": size, "seed": seed},
        },
    )


def build_graph500(input_name: Optional[str] = None, size: str = "default", seed: Optional[int] = None) -> Workload:
    graph, frontier, depth = shared_input(input_name, size, seed)
    level = int(depth[frontier[0]]) if len(frontier) else 0
    parent = np.where((depth >= 0) & (depth <= level), np.int64(1), np.int64(-1))

    mem = MemoryImage()
    _load_graph_csr(mem, graph)
    wl = mem.allocate("WL", frontier)
    par = mem.allocate("PARENT", parent)
    out = mem.allocate("OUTWL", max(1, graph.num_edges))

    b = ProgramBuilder("graph500")
    b.li("r1", wl.base)
    b.li("r2", mem.segment("ROW").base)
    b.li("r3", mem.segment("COL").base)
    b.li("r4", par.base)
    b.li("r5", out.base)
    b.li("r6", len(frontier))
    b.li("r7", 0)
    b.li("r8", 0)
    b.li("r23", -1)  # the "unvisited" sentinel
    b.label("outer")
    _emit_indexed_load(b, "r10", "r1", "r7", "r9")  # u = WL[wi]
    _emit_indexed_load(b, "r12", "r2", "r10", "r11")  # s = ROW[u]
    b.load("r13", "r11", 8)
    b.mov("r14", "r12")
    b.cmp_lt("r15", "r14", "r13")
    b.bez("r15", "inner_done")
    b.label("inner")
    _emit_indexed_load(b, "r17", "r3", "r14", "r16")  # v = COL[j]
    b.shli("r18", "r17", 3)
    b.add("r18", "r4", "r18")
    b.load("r19", "r18")  # parent[v]
    b.cmp_eq("r20", "r19", "r23")  # parent[v] == -1 ?
    b.bez("r20", "skip")
    b.store("r10", "r18")  # parent[v] = u
    b.shli("r21", "r8", 3)
    b.add("r21", "r5", "r21")
    b.store("r17", "r21")
    b.addi("r8", "r8", 1)
    b.label("skip")
    b.addi("r14", "r14", 1)
    b.cmp_lt("r15", "r14", "r13")
    b.bnz("r15", "inner")
    b.label("inner_done")
    b.addi("r7", "r7", 1)
    b.cmp_lt("r22", "r7", "r6")
    b.bnz("r22", "outer")
    return Workload(
        "graph500",
        b.build(),
        mem,
        meta={
            "input": graph.name,
            "frontier": len(frontier),
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "build_args": {"input_name": graph.name, "size": size, "seed": seed},
        },
    )


def build_bc(input_name: Optional[str] = None, size: str = "default", seed: Optional[int] = None) -> Workload:
    graph, frontier, depth = shared_input(input_name, size, seed)
    level = int(depth[frontier[0]]) if len(frontier) else 0
    rng = np.random.default_rng(31)
    sigma = rng.integers(1, 16, graph.num_nodes)

    mem = MemoryImage()
    _load_graph_csr(mem, graph)
    wl = mem.allocate("WL", frontier)
    dep = mem.allocate("DEPTH", depth)
    sig = mem.allocate("SIGMA", sigma)

    b = ProgramBuilder("bc")
    b.li("r1", wl.base)
    b.li("r2", mem.segment("ROW").base)
    b.li("r3", mem.segment("COL").base)
    b.li("r4", dep.base)
    b.li("r5", sig.base)
    b.li("r6", len(frontier))
    b.li("r7", 0)
    b.li("r23", level + 1)  # the next BFS level
    b.label("outer")
    _emit_indexed_load(b, "r10", "r1", "r7", "r9")   # u = WL[wi]
    _emit_indexed_load(b, "r24", "r5", "r10", "r9")  # su = SIGMA[u]
    _emit_indexed_load(b, "r12", "r2", "r10", "r11")  # s = ROW[u]
    b.load("r13", "r11", 8)
    b.mov("r14", "r12")
    b.cmp_lt("r15", "r14", "r13")
    b.bez("r15", "inner_done")
    b.label("inner")
    _emit_indexed_load(b, "r17", "r3", "r14", "r16")  # v = COL[j]
    _emit_indexed_load(b, "r19", "r4", "r17", "r18")  # dv = DEPTH[v]
    b.cmp_eq("r20", "r19", "r23")  # dv == level + 1 ?
    b.bez("r20", "skip")
    # Divergent path with its own loads: sigma[v] += sigma[u].
    b.shli("r21", "r17", 3)
    b.add("r21", "r5", "r21")
    b.load("r22", "r21")  # sigma[v]
    b.add("r22", "r22", "r24")
    b.store("r22", "r21")
    b.label("skip")
    b.addi("r14", "r14", 1)
    b.cmp_lt("r15", "r14", "r13")
    b.bnz("r15", "inner")
    b.label("inner_done")
    b.addi("r7", "r7", 1)
    b.cmp_lt("r25", "r7", "r6")
    b.bnz("r25", "outer")
    return Workload(
        "bc",
        b.build(),
        mem,
        meta={
            "input": graph.name,
            "frontier": len(frontier),
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "build_args": {"input_name": graph.name, "size": size, "seed": seed},
        },
    )


def build_cc(input_name: Optional[str] = None, size: str = "default", seed: Optional[int] = None) -> Workload:
    graph = shared_input(input_name, size, seed)[0]
    comp = np.arange(graph.num_nodes, dtype=np.int64)

    mem = MemoryImage()
    _load_graph_csr(mem, graph)
    cmp_seg = mem.allocate("COMP", comp)

    b = ProgramBuilder("cc")
    b.li("r1", mem.segment("ROW").base)
    b.li("r2", mem.segment("COL").base)
    b.li("r3", cmp_seg.base)
    b.li("r4", graph.num_nodes)
    b.li("r5", 0)  # u
    b.label("outer")
    _emit_indexed_load(b, "r7", "r1", "r5", "r6")  # s = ROW[u]
    b.load("r8", "r6", 8)                          # e = ROW[u+1]
    _emit_indexed_load(b, "r10", "r3", "r5", "r9")  # cu = COMP[u]
    b.mov("r11", "r7")
    b.cmp_lt("r12", "r11", "r8")
    b.bez("r12", "inner_done")
    b.label("inner")
    _emit_indexed_load(b, "r14", "r2", "r11", "r13")  # v = COL[j]  (inner stride)
    _emit_indexed_load(b, "r16", "r3", "r14", "r15")  # cv = COMP[v] (indirect)
    b.cmp_lt("r17", "r16", "r10")
    b.bez("r17", "no_hook")
    b.mov("r10", "r16")  # cu = min(cu, cv)
    b.label("no_hook")
    b.addi("r11", "r11", 1)
    b.cmp_lt("r12", "r11", "r8")
    b.bnz("r12", "inner")
    b.label("inner_done")
    b.shli("r18", "r5", 3)
    b.add("r18", "r3", "r18")
    b.store("r10", "r18")  # COMP[u] = cu
    b.addi("r5", "r5", 1)
    b.cmp_lt("r19", "r5", "r4")
    b.bnz("r19", "outer")
    return Workload(
        "cc",
        b.build(),
        mem,
        meta={
            "input": graph.name,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "build_args": {"input_name": graph.name, "size": size, "seed": seed},
        },
    )


def build_pr(input_name: Optional[str] = None, size: str = "default", seed: Optional[int] = None) -> Workload:
    graph = shared_input(input_name, size, seed)[0]
    degrees = np.maximum(1, graph.degrees())
    rng = np.random.default_rng(33)
    rank = rng.random(graph.num_nodes)
    contrib = rank / degrees

    mem = MemoryImage()
    _load_graph_csr(mem, graph)
    con = mem.allocate("CONTRIB", contrib, dtype=np.float64)
    new_rank = mem.allocate("RANK", graph.num_nodes, dtype=np.float64)

    b = ProgramBuilder("pr")
    b.li("r1", mem.segment("ROW").base)
    b.li("r2", mem.segment("COL").base)
    b.li("r3", con.base)
    b.li("r4", new_rank.base)
    b.li("r5", graph.num_nodes)
    b.li("r6", 0)  # u
    b.label("outer")
    _emit_indexed_load(b, "r8", "r1", "r6", "r7")  # s = ROW[u]
    b.load("r9", "r7", 8)
    b.li("r10", 0)  # sum
    b.mov("r11", "r8")
    b.cmp_lt("r12", "r11", "r9")
    b.bez("r12", "inner_done")
    b.label("inner")
    _emit_indexed_load(b, "r14", "r2", "r11", "r13")  # v = COL[j]
    _emit_indexed_load(b, "r16", "r3", "r14", "r15")  # c = CONTRIB[v] (indirect float)
    b.fadd("r10", "r10", "r16")
    b.addi("r11", "r11", 1)
    b.cmp_lt("r12", "r11", "r9")
    b.bnz("r12", "inner")
    b.label("inner_done")
    b.shli("r17", "r6", 3)
    b.add("r17", "r4", "r17")
    b.store("r10", "r17")  # RANK[u] = sum (damping applied offline)
    b.addi("r6", "r6", 1)
    b.cmp_lt("r18", "r6", "r5")
    b.bnz("r18", "outer")
    return Workload(
        "pr",
        b.build(),
        mem,
        meta={
            "input": graph.name,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "build_args": {"input_name": graph.name, "size": size, "seed": seed},
        },
    )


def build_sssp(input_name: Optional[str] = None, size: str = "default", seed: Optional[int] = None) -> Workload:
    key = _input_key(input_name, size, seed)
    graph, frontier, depth = _graph_input(*key)
    dist = np.where(depth >= 0, depth * 32, np.int64(1 << 40))

    mem = MemoryImage()
    _load_graph_csr(mem, graph)
    wl = mem.allocate("WL", frontier)
    wt = mem.allocate("WEIGHT", _edge_weights(*key))
    ds = mem.allocate("DIST", dist)

    b = ProgramBuilder("sssp")
    b.li("r1", wl.base)
    b.li("r2", mem.segment("ROW").base)
    b.li("r3", mem.segment("COL").base)
    b.li("r4", wt.base)
    b.li("r5", ds.base)
    b.li("r6", len(frontier))
    b.li("r7", 0)  # wi
    b.label("outer")
    _emit_indexed_load(b, "r10", "r1", "r7", "r9")   # u = WL[wi]
    _emit_indexed_load(b, "r24", "r5", "r10", "r9")  # du = DIST[u]
    _emit_indexed_load(b, "r12", "r2", "r10", "r11")  # s = ROW[u]
    b.load("r13", "r11", 8)
    b.mov("r14", "r12")
    b.cmp_lt("r15", "r14", "r13")
    b.bez("r15", "inner_done")
    b.label("inner")
    _emit_indexed_load(b, "r17", "r3", "r14", "r16")  # v = COL[j]
    _emit_indexed_load(b, "r19", "r4", "r14", "r18")  # w = WEIGHT[j]
    b.add("r20", "r24", "r19")  # nd = du + w
    b.shli("r21", "r17", 3)
    b.add("r21", "r5", "r21")
    b.load("r22", "r21")  # dv = DIST[v] (indirect)
    b.cmp_lt("r23", "r20", "r22")
    b.bez("r23", "skip")
    b.store("r20", "r21")  # DIST[v] = nd
    b.label("skip")
    b.addi("r14", "r14", 1)
    b.cmp_lt("r15", "r14", "r13")
    b.bnz("r15", "inner")
    b.label("inner_done")
    b.addi("r7", "r7", 1)
    b.cmp_lt("r25", "r7", "r6")
    b.bnz("r25", "outer")
    return Workload(
        "sssp",
        b.build(),
        mem,
        meta={
            "input": graph.name,
            "frontier": len(frontier),
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "build_args": {"input_name": graph.name, "size": size, "seed": seed},
        },
    )


def gap_builders() -> Dict[str, object]:
    return {
        "bc": build_bc,
        "bfs": build_bfs,
        "cc": build_cc,
        "graph500": build_graph500,
        "pr": build_pr,
        "sssp": build_sssp,
    }
