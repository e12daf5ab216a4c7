"""repro — Vector Runahead / Decoupled Vector Runahead, reproduced.

An execution-driven out-of-order timing simulator in pure Python with
the full runahead technique family from the Vector Runahead line of
work (Naithani et al., ISCA 2021 / MICRO 2023):

* classic runahead, Precise Runahead (PRE), the Indirect Memory
  Prefetcher (IMP), Vector Runahead (VR), Decoupled Vector Runahead
  (DVR, with Discovery / Nested Discovery modes), and an Oracle bound;
* the paper's 13 benchmarks over synthetic Table 2 graph inputs;
* one experiment generator per evaluation table and figure.

Quickstart::

    from repro import run_simulation
    result = run_simulation("camel", "dvr", max_instructions=20_000)
    print(result.ipc, result.technique_stats)

The public names below are imported from their modules on first access
(PEP 562), so ``import repro`` loads only what the caller goes on to use.
"""

import importlib

__version__ = "1.0.0"


def _lazy_exports(package, exports, namespace):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each module (relative to ``package``) to the public
    names it defines. A name is imported from its module on first access
    and then kept in ``namespace``; any other name is tried as a
    submodule, so ``import repro; repro.experiments.run_batch`` works.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name in origin:
            value = getattr(importlib.import_module(origin[name], package), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


#: Each public name, under the module that defines it.
_EXPORTS = {
    ".config": (
        "BranchPredictorConfig", "CacheConfig", "CoreConfig", "MemoryConfig",
        "RunaheadConfig", "SimConfig",
    ),
    ".core.dyninstr": ("DynInstr",),
    ".core.functional": ("FunctionalCore",),
    ".core.ooo": ("OoOCore",),
    ".errors": ("ReproError",),
    ".experiments.runner": ("run_simulation",),
    ".experiments.spec": ("RunSpec",),
    ".isa.instructions": ("Instruction", "Opcode"),
    ".isa.program": ("Program", "ProgramBuilder"),
    ".memory.hierarchy": ("MemoryHierarchy",),
    ".memory.memory_image": ("MemoryImage",),
    ".observability.counters": ("CounterRegistry",),
    ".observability.export": ("STATS_SCHEMA", "stats_payload", "validate_stats", "write_stats"),
    ".observability.probes": ("Observability",),
    ".observability.trace": ("EventTrace",),
    ".result": ("SimulationResult",),
    ".techniques": ("make_technique", "technique_names"),
    ".workloads.base": ("Workload",),
    ".workloads.graphs": ("make_graph",),
    ".workloads.registry": ("WORKLOAD_NAMES", "build_workload"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, globals())

__all__ = [
    "BranchPredictorConfig",
    "CacheConfig",
    "CoreConfig",
    "CounterRegistry",
    "DynInstr",
    "EventTrace",
    "Observability",
    "STATS_SCHEMA",
    "FunctionalCore",
    "Instruction",
    "MemoryConfig",
    "MemoryHierarchy",
    "MemoryImage",
    "Opcode",
    "OoOCore",
    "Program",
    "ProgramBuilder",
    "ReproError",
    "RunSpec",
    "RunaheadConfig",
    "SimConfig",
    "SimulationResult",
    "WORKLOAD_NAMES",
    "Workload",
    "build_workload",
    "make_graph",
    "make_technique",
    "run_simulation",
    "stats_payload",
    "technique_names",
    "validate_stats",
    "write_stats",
    "__version__",
]
