"""Name-based workload construction.

Names, input sizes and which workloads take an input name are tables
here, so spec keys, the CLI parser and ``repro list`` import no
builder; a builder module (and numpy with it) loads on the first build
that needs it.
"""

from __future__ import annotations

import functools
import importlib
import numbers
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Tuple

from ..errors import WorkloadError

if TYPE_CHECKING:
    from .base import Workload

GAP_WORKLOADS: List[str] = ["bc", "bfs", "cc", "pr", "sssp"]
HPC_DB_WORKLOADS: List[str] = [
    "camel",
    "graph500",
    "hj2",
    "hj8",
    "kangaroo",
    "nas_cg",
    "nas_is",
    "random_access",
]
#: The paper's 13 benchmarks (Section 5).
WORKLOAD_NAMES: List[str] = GAP_WORKLOADS + HPC_DB_WORKLOADS
#: Input sizes every builder takes ("tiny" is for fast tests).
SIZES: Tuple[str, ...] = ("default", "tiny")
#: The workloads whose builder takes ``input_name`` (a Table 2 graph
#: profile): the GAP kernels and graph500, which runs over GAP's inputs.
INPUT_NAME_WORKLOADS: FrozenSet[str] = frozenset(GAP_WORKLOADS + ["graph500"])

#: Each workload's builder, or the name of the module whose builder
#: table (``gap_builders``, ``hpc_db_builders``) holds it.
_BUILDERS: Dict[str, object] = {
    name: "gap" if name in INPUT_NAME_WORKLOADS else "hpc_db" for name in WORKLOAD_NAMES
}


@functools.lru_cache(maxsize=None)
def _module_builders(module: str) -> Dict[str, object]:
    """``module``'s builder table, imported on its first build."""
    return getattr(importlib.import_module(f".{module}", __package__), f"{module}_builders")()


def require_workload(name: str) -> None:
    """:class:`WorkloadError` unless ``name`` is registered (no builder loads)."""
    if name not in _BUILDERS:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {sorted(_BUILDERS)}"
        )


def workload_builder(name: str):
    """The builder registered under ``name``; :class:`WorkloadError` if unknown."""
    require_workload(name)
    builder = _BUILDERS[name]
    if isinstance(builder, str):
        builder = _module_builders(builder)[name]
    return builder


def build_workload(name: str, **kwargs) -> Workload:
    """Construct a fresh workload (program + initialised memory) by name.

    Graph kernels accept ``input_name`` (one of the Table 2 profiles:
    KR, LJN, ORK, TW, UR) and every workload accepts ``size`` (one of
    :data:`SIZES`) and a non-negative integer data ``seed``.
    """
    builder = workload_builder(name)
    size = kwargs.get("size", "default")
    if size not in SIZES:
        raise WorkloadError(f"unknown size {size!r}; choose from {list(SIZES)}")
    seed = kwargs.get("seed")
    if seed is not None and not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise WorkloadError(f"seed must be a non-negative integer, got {seed!r}")
    return builder(**kwargs)


def workload_accepts_input_name(name: str) -> bool:
    """Whether ``name``'s builder takes an ``input_name`` keyword.

    Read from :data:`INPUT_NAME_WORKLOADS`, so spec resolution never
    imports a builder; ``tests/test_name_tables.py`` holds the table to
    each builder's signature. Unknown names raise :class:`WorkloadError`.
    """
    require_workload(name)
    return name in INPUT_NAME_WORKLOADS
