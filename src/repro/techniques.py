"""Registry of evaluated techniques (paper Section 6's comparison set).

Names map to registry entries so the experiment harness and CLI can
construct a fresh technique per run::

    technique = make_technique("dvr")

Available names: ``ooo``, ``runahead``, ``pre``, ``imp``, ``vr``,
``dvr``, ``oracle``, plus the Figure 8 ablation configurations
``dvr-offload`` (no Discovery, no Nested) and ``dvr-discovery``
(Discovery but no Nested), and ``dvr-noreconv`` (divergent lanes are
invalidated instead of stacked).

Ablation names are *declarative config transforms*: an entry carries a
set of :class:`~repro.config.RunaheadConfig` field pins that resolution
folds into the run's config (:func:`technique_runahead_config`), so the
resolved config — never a constructor argument — is the single source
of truth for technique behaviour. Pinning only rewrites fields the user
left at their defaults; an explicit contradictory override raises
:class:`~repro.errors.ConfigError` instead of being silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from .config import RunaheadConfig, SimConfig, pin_runahead_config
from .errors import ConfigError
from .prefetch.base import NullTechnique, Technique
from .prefetch.imp import IndirectMemoryPrefetcher
from .prefetch.oracle import OracleTechnique
from .runahead.classic import ClassicRunahead
from .runahead.continuous import ContinuousRunahead
from .runahead.emc import EnhancedMemoryController
from .runahead.dvr import DecoupledVectorRunahead
from .runahead.pre import PreciseRunahead
from .runahead.vr import VectorRunahead


@dataclass(frozen=True)
class TechniqueEntry:
    """One registry row: a factory plus declarative config pins."""

    factory: Callable[[], Technique]
    pins: Mapping[str, object] = field(default_factory=dict)


_REGISTRY: Dict[str, TechniqueEntry] = {
    "ooo": TechniqueEntry(NullTechnique),
    "runahead": TechniqueEntry(ClassicRunahead),
    "continuous": TechniqueEntry(ContinuousRunahead),
    "emc": TechniqueEntry(EnhancedMemoryController),
    "pre": TechniqueEntry(PreciseRunahead),
    "imp": TechniqueEntry(IndirectMemoryPrefetcher),
    "vr": TechniqueEntry(VectorRunahead),
    "dvr": TechniqueEntry(DecoupledVectorRunahead),
    "oracle": TechniqueEntry(OracleTechnique),
    "dvr-offload": TechniqueEntry(
        lambda: DecoupledVectorRunahead(name="dvr-offload"),
        pins={"discovery_enabled": False, "nested_enabled": False},
    ),
    "dvr-discovery": TechniqueEntry(
        lambda: DecoupledVectorRunahead(name="dvr-discovery"),
        pins={"nested_enabled": False},
    ),
    "dvr-noreconv": TechniqueEntry(
        lambda: DecoupledVectorRunahead(name="dvr-noreconv"),
        pins={"reconvergence_enabled": False},
    ),
}


def technique_names() -> List[str]:
    return sorted(_REGISTRY)


def technique_entry(name: str) -> TechniqueEntry:
    """The registry entry of ``name``; :class:`ConfigError` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown technique {name!r}; choose from {technique_names()}"
        ) from None


def technique_pins(name: str) -> Mapping[str, object]:
    """The declarative ``RunaheadConfig`` pins of ``name`` (maybe empty).

    Unknown names return no pins: spec keying must stay total so a
    misspelled technique fails at run time (as a batch-isolated error),
    not while content-addressing the spec.
    """
    entry = _REGISTRY.get(name)
    return entry.pins if entry is not None else {}


def technique_runahead_config(
    name: str,
    runahead: RunaheadConfig,
    explicit: frozenset = frozenset(),
) -> RunaheadConfig:
    """``runahead`` with ``name``'s pins folded in (config stays boss).

    Raises :class:`ConfigError` when an explicitly overridden field
    contradicts a pin — e.g. sweeping ``runahead.nested_enabled=True``
    under ``dvr-offload``. ``explicit`` names ``RunaheadConfig`` fields
    the caller set via spec ``overrides`` (a contradiction there is
    flagged even when the swept value equals the dataclass default).
    """
    return pin_runahead_config(
        runahead, technique_pins(name), technique=name, explicit=explicit
    )


def make_technique(name: str, config: Optional[SimConfig] = None) -> Technique:
    """Construct a fresh technique purely from the (resolved) config.

    Passing ``config`` validates the technique's pins against it eagerly
    (so a contradictory override fails before any simulation work);
    behaviour flags themselves are read from the attached core's config
    at :meth:`~repro.prefetch.base.Technique.attach` time, through the
    same pin resolution.
    """
    entry = technique_entry(name)
    if config is not None:
        technique_runahead_config(name, config.runahead)
    technique = entry.factory()
    if entry.pins:
        technique.config_pins = dict(entry.pins)
    return technique
