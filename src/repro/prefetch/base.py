"""The hook interface every technique (prefetcher or runahead) implements.

The timing core drives techniques through these callbacks:

* :meth:`on_commit` — every retired instruction, in order, with its
  commit cycle. DVR's stride detector and Discovery Mode live here.
* :meth:`on_demand_load` — every demand load with its service level
  (used by table-based prefetchers such as the stride prefetcher / IMP).
* :meth:`on_full_rob_stall` — a dispatch stall caused by a full ROB whose
  head is a cache-missing load; the trigger condition for classic
  runahead, PRE and Vector Runahead.
* :meth:`advance_to` — lets a decoupled engine (DVR subthread) make
  progress up to the given cycle; called before each demand access.
* :attr:`commit_blocked_until` — Vector Runahead's delayed termination:
  the core may not commit past this cycle while runahead completes.

:meth:`Technique.attach` binds the run's parts a technique reads
(``config``, ``program``, ``memory_image``, ``hierarchy`` and the event
trace), never the core itself: the core owns its technique, so a
back-reference would make every finished run a reference cycle that only
the cyclic garbage collector can free. With no reference pointing back
up, reference counting frees a run as soon as its caller drops the core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..config import RunaheadConfig, SimConfig
    from ..core.dyninstr import DynInstr
    from ..core.ooo import OoOCore
    from ..isa.program import Program
    from ..memory.hierarchy import AccessResult, MemoryHierarchy
    from ..memory.memory_image import MemoryImage
    from ..observability.counters import CounterRegistry
    from ..observability.trace import EventTrace


class Technique:
    """Base class: a no-op technique (the plain OoO baseline)."""

    name = "base"
    #: True when the memory hierarchy should run in ideal (oracle) mode.
    wants_ideal_memory = False
    #: Declarative :class:`~repro.config.RunaheadConfig` field pins.
    #: Ablation variants (``dvr-offload``, ...) are the plain technique
    #: plus pins; :meth:`resolved_runahead` folds them into the run's
    #: config, so the config — never a constructor argument — is the
    #: single source of truth for technique behaviour.
    config_pins: Mapping[str, object] = {}

    def __init__(self) -> None:
        # Bound by attach().
        self.config: Optional["SimConfig"] = None
        self.program: Optional["Program"] = None
        self.memory_image: Optional["MemoryImage"] = None
        self.hierarchy: Optional["MemoryHierarchy"] = None
        self.commit_blocked_until = 0
        #: Classic runahead's exit flush: fetch may not resume before this.
        self.fetch_blocked_until = 0
        #: Bound to the core's event trace at attach() when tracing is on.
        self._trace: Optional["EventTrace"] = None

    def attach(self, core: "OoOCore") -> None:
        """Called once by the core before simulation starts.

        Binds the core's parts, not the core (see the module docstring).
        An override calls ``super().attach(core)`` and must not store
        ``core``.
        """
        self.config = core.config
        self.program = core.program
        self.memory_image = core.memory_image
        self.hierarchy = core.hierarchy
        obs = getattr(core, "observability", None)
        self._trace = obs.trace if obs is not None else None

    def resolved_runahead(self, runahead: "RunaheadConfig") -> "RunaheadConfig":
        """``runahead`` with this technique's pins applied.

        Raises :class:`~repro.errors.ConfigError` when an explicitly
        overridden field contradicts a pin (see
        :func:`repro.config.pin_runahead_config`).
        """
        from ..config import pin_runahead_config

        return pin_runahead_config(runahead, self.config_pins, technique=self.name)

    def emit_event(self, cycle: int, kind: str, pc: int = 0, info: int = 0) -> None:
        """Record a runahead event (no-op unless tracing is enabled)."""
        if self._trace is not None:
            self._trace.emit(cycle, kind, pc, info)

    def publish_counters(self, registry: "CounterRegistry") -> None:
        """Register this technique's statistics under ``runahead.<name>.*``.

        The whole family (runahead engines, prefetchers, the oracle)
        shares the ``runahead`` namespace; the baseline has no stats and
        publishes nothing.
        """
        for key, value in self.stats().items():
            registry.set(f"runahead.{self.name}.{key}", value)

    # -- hooks (default: do nothing) ----------------------------------------

    def on_commit(self, dyn: "DynInstr", cycle: int, complete: int = 0) -> None:
        pass

    def on_demand_load(self, dyn: "DynInstr", cycle: int, result: "AccessResult") -> None:
        pass

    def on_full_rob_stall(self, start: int, end: int, head: "DynInstr") -> None:
        pass

    def advance_to(self, cycle: int) -> None:
        pass

    def finalize(self, cycle: int) -> None:
        pass

    def stats(self) -> Dict[str, float]:
        return {}


class NullTechnique(Technique):
    """The out-of-order baseline: no runahead, no extra prefetching."""

    name = "ooo"
