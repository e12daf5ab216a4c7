"""Core models: functional interpreter and the out-of-order timing core."""

from .dyninstr import DynInstr
from .functional import FunctionalCore
from .ooo import OoOCore, SimulationResult
from .pipeview import pipeview_legend, render_pipeview

__all__ = [
    "DynInstr",
    "FunctionalCore",
    "OoOCore",
    "SimulationResult",
    "pipeview_legend",
    "render_pipeview",
]
