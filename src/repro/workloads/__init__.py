"""The paper's benchmark suite, hand-lowered to the repro ISA.

GAP kernels (bc, bfs, cc, pr, sssp) run over CSR graphs built by the
generators in :mod:`repro.workloads.graphs`; the hpc-db set (camel,
graph500, hj2, hj8, kangaroo, nas_cg, nas_is, random_access) builds its
own synthetic inputs. Use :func:`build_workload` to construct any of
them by name.

Names resolve from their modules on first access (see
``repro._lazy_exports``), so reading the name tables loads no builder
and no numpy.
"""

from .. import _lazy_exports

_EXPORTS = {
    ".base": ("Workload",),
    ".graphs": ("Graph", "make_graph"),
    ".profiles": ("GRAPH_PROFILES",),
    ".registry": ("GAP_WORKLOADS", "HPC_DB_WORKLOADS", "WORKLOAD_NAMES", "build_workload"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())

__all__ = [
    "GAP_WORKLOADS",
    "GRAPH_PROFILES",
    "Graph",
    "HPC_DB_WORKLOADS",
    "WORKLOAD_NAMES",
    "Workload",
    "build_workload",
    "make_graph",
]
