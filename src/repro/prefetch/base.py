"""The hook interface every technique (prefetcher or runahead) implements.

The timing core drives techniques through these callbacks, each with
plain values (the kernel reads the architectural stream's columns;
no per-instruction record object exists):

* :meth:`on_commit` ``(pc, value, addr, next_pc, cycle, complete)`` —
  every retired instruction, in order, with its commit and
  execute-complete cycles. ``value`` is the destination value (a
  load's loaded word), None when the instruction writes no register
  (stores included); ``addr`` is a memory op's byte address, else
  None. DVR's stride detector and Discovery Mode live here.
* :meth:`on_demand_load` ``(pc, addr, value, cycle)`` — every demand
  load, at the cycle its access starts (used by table-based
  prefetchers such as IMP).
* :meth:`on_full_rob_stall` ``(start, end, head_pc)`` — a dispatch
  stall caused by a full ROB whose head is a cache-missing load; the
  trigger condition for classic runahead, PRE and Vector Runahead.
  ``head_pc`` is the would-be ROB head's pc.
* :meth:`advance_to` ``(cycle)`` — lets a decoupled engine (DVR
  subthread) make progress up to the given cycle; called before each
  demand access.
* :attr:`commit_blocked_until` — Vector Runahead's delayed termination:
  the core may not commit past this cycle while runahead completes.

The kernel calls each of the four hooks only when the technique's
class overrides it (:func:`kernel_hooks`, decided once per run): the
plain baseline overrides none of them and pays no call per instruction.
A hook bound on an instance rather than defined on the class is not
seen.

:meth:`Technique.attach` binds the run's parts a technique reads
(``config``, ``program`` and its pre-decoded lowering ``decoded``,
``memory_image``, ``hierarchy`` and the event trace), never the core
itself: the core owns its technique, so a back-reference would make
every finished run a reference cycle that only the cyclic garbage
collector can free. With no reference pointing back up, reference
counting frees a run as soon as its caller drops the core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..config import RunaheadConfig, SimConfig
    from ..core.ooo import OoOCore
    from ..isa.predecode import DecodedProgram
    from ..isa.program import Program
    from ..memory.hierarchy import MemoryHierarchy
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
        #: The program's per-pc lowering (``rd``, ``kinds``, ``instrs``,
        #: ...): hooks get a pc and index these.
        self.decoded: Optional["DecodedProgram"] = None
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
        self.decoded = core.decoded
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

    # -- hooks (default: do nothing, and the kernel skips them) ---------------

    def on_commit(
        self, pc: int, value, addr: Optional[int], next_pc: int, cycle: int, complete: int
    ) -> None:
        pass

    def on_demand_load(self, pc: int, addr: int, value, cycle: int) -> None:
        pass

    def on_full_rob_stall(self, start: int, end: int, head_pc: int) -> None:
        pass

    def advance_to(self, cycle: int) -> None:
        pass

    def finalize(self, cycle: int) -> None:
        pass

    def stats(self) -> Dict[str, float]:
        return {}


#: The per-instruction hooks :func:`kernel_hooks` resolves.
_KERNEL_HOOKS = ("on_commit", "on_demand_load", "on_full_rob_stall", "advance_to")


def kernel_hooks(technique: Technique) -> Dict[str, Optional[Callable]]:
    """Hook name -> ``technique``'s bound hook, or None where its class
    keeps :class:`Technique`'s no-op (the kernel then skips the call)."""
    cls = type(technique)
    return {
        name: (
            None
            if getattr(cls, name) is getattr(Technique, name)
            else getattr(technique, name)
        )
        for name in _KERNEL_HOOKS
    }


class NullTechnique(Technique):
    """The out-of-order baseline: no runahead, no extra prefetching."""

    name = "ooo"
