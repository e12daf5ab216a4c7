"""The Table 2 graph inputs, by name: the generator settings of each.

A table without numpy, so a caller that only names an input (the CLI
parser, ``repro list``) loads no graph code;
:func:`repro.workloads.graphs.make_graph` builds from it.
"""

from __future__ import annotations

from typing import Dict

from ..errors import WorkloadError

# name -> generator kind and its arguments. Sizes scale with the scaled
# cache hierarchy so working set >> LLC (see DESIGN.md).
GRAPH_PROFILES: Dict[str, Dict] = {
    "KR": {"kind": "rmat", "n": 1 << 15, "avg_degree": 16, "a": 0.57, "seed": 11},
    "LJN": {"kind": "rmat", "n": 1 << 13, "avg_degree": 14, "a": 0.57, "seed": 12},
    "ORK": {"kind": "rmat", "n": 1 << 12, "avg_degree": 32, "a": 0.55, "seed": 13},
    "TW": {"kind": "rmat", "n": 1 << 14, "avg_degree": 24, "a": 0.65, "seed": 14},
    "UR": {"kind": "uniform", "n": 1 << 15, "avg_degree": 8, "seed": 15},
}


def graph_profile(profile: str) -> Dict:
    """The generator settings of a Table 2 input; unknown names raise."""
    try:
        return GRAPH_PROFILES[profile]
    except KeyError:
        raise WorkloadError(
            f"unknown graph profile {profile!r}; choose from {sorted(GRAPH_PROFILES)}"
        ) from None
