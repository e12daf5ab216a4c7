"""Name-based workload construction."""

from __future__ import annotations

import inspect
import numbers
from typing import Dict, List, Tuple

from ..errors import WorkloadError
from .base import Workload
from .gap import gap_builders
from .hpc_db import hpc_db_builders

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

_BUILDERS: Dict[str, object] = {}
_BUILDERS.update(hpc_db_builders())
_BUILDERS.update(gap_builders())


def workload_builder(name: str):
    """The builder registered under ``name``; :class:`WorkloadError` if unknown."""
    try:
        return _BUILDERS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {sorted(_BUILDERS)}"
        ) from None


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

    Decided from the builder's signature (``functools.partial`` wrappers
    resolve to the underlying function), so dispatch never needs to
    probe by raising/catching ``TypeError`` — a genuine ``TypeError``
    from inside workload construction must propagate, not be retried.
    """
    builder = workload_builder(name)
    try:
        parameters = inspect.signature(builder).parameters
    except (TypeError, ValueError):  # exotic callables: assume not
        return False
    return "input_name" in parameters
