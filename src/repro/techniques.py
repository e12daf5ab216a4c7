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

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from .config import RunaheadConfig, SimConfig, pin_runahead_config
from .errors import ConfigError

if TYPE_CHECKING:
    from .prefetch.base import Technique


@dataclass(frozen=True)
class TechniqueEntry:
    """One registry row: where the technique's class lives, plus its
    declarative config pins.

    The class is imported only when :func:`make_technique` builds one, so
    reading names and pins (spec keys, the CLI parser) loads no model code.
    An entry with pins is an ablation of its class, built under its own
    registry name.
    """

    module: str  #: defining module, relative to the ``repro`` package
    cls: str
    pins: Mapping[str, object] = field(default_factory=dict)


_REGISTRY: Dict[str, TechniqueEntry] = {
    "ooo": TechniqueEntry("prefetch.base", "NullTechnique"),
    "runahead": TechniqueEntry("runahead.classic", "ClassicRunahead"),
    "continuous": TechniqueEntry("runahead.continuous", "ContinuousRunahead"),
    "emc": TechniqueEntry("runahead.emc", "EnhancedMemoryController"),
    "pre": TechniqueEntry("runahead.pre", "PreciseRunahead"),
    "imp": TechniqueEntry("prefetch.imp", "IndirectMemoryPrefetcher"),
    "vr": TechniqueEntry("runahead.vr", "VectorRunahead"),
    "dvr": TechniqueEntry("runahead.dvr", "DecoupledVectorRunahead"),
    "oracle": TechniqueEntry("prefetch.oracle", "OracleTechnique"),
    "dvr-offload": TechniqueEntry(
        "runahead.dvr", "DecoupledVectorRunahead",
        pins={"discovery_enabled": False, "nested_enabled": False},
    ),
    "dvr-discovery": TechniqueEntry(
        "runahead.dvr", "DecoupledVectorRunahead",
        pins={"nested_enabled": False},
    ),
    "dvr-noreconv": TechniqueEntry(
        "runahead.dvr", "DecoupledVectorRunahead",
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
    cls = getattr(importlib.import_module(f".{entry.module}", __package__), entry.cls)
    if not entry.pins:
        return cls()
    technique = cls(name=name)
    technique.config_pins = dict(entry.pins)
    return technique
