"""Simulation configuration objects.

Two canonical configurations are provided:

* :meth:`SimConfig.paper` — the Table 1 baseline from the paper
  (5-wide, 350-entry ROB, 32KB/256KB/8MB caches, 24 MSHRs, 50ns DRAM).
* :meth:`SimConfig.scaled` — the same core with a proportionally scaled
  cache hierarchy, used by the experiment harness so that MB-scale
  synthetic inputs sit in the same working-set:LLC regime as the paper's
  multi-GB inputs (see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from typing import Dict, Mapping, Tuple

from .errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency of one cache level."""

    size_bytes: int
    assoc: int
    latency: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.latency < 0:
            raise ConfigError(f"invalid cache config: {self}")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.assoc}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class TLBConfig:
    """Two-level TLB hierarchy plus a timed radix page-table walker.

    Disabled by default: the untranslated hierarchy is bit-identical to
    the pre-TLB model, so every existing golden stays valid. When
    enabled, each hierarchy access first translates its address — an
    L1-TLB hit is free (looked up in parallel with the L1-D), an L2-TLB
    hit costs ``l2_latency``, and a full miss triggers a
    ``walk_levels``-deep page-table walk whose per-level loads go
    through the cache hierarchy like any other memory access (they hit,
    miss, and occupy MSHRs). ``walk_latency`` is the walker's compute
    cost per level on top of each level's memory access.
    """

    enable: bool = False
    l1_entries: int = 64
    l1_assoc: int = 4
    l2_entries: int = 1024
    l2_assoc: int = 8
    l2_latency: int = 8
    page_bytes: int = 4096
    walk_levels: int = 4
    walk_latency: int = 2

    def __post_init__(self) -> None:
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigError(
                f"tlb.page_bytes must be a positive power of two, "
                f"got {self.page_bytes}"
            )
        for label, entries, assoc in (
            ("l1", self.l1_entries, self.l1_assoc),
            ("l2", self.l2_entries, self.l2_assoc),
        ):
            if entries <= 0 or assoc <= 0 or entries % assoc != 0:
                raise ConfigError(
                    f"tlb {label} geometry invalid: {entries} entries do not "
                    f"divide into {assoc}-way sets"
                )
        if self.walk_levels < 1:
            raise ConfigError(
                f"tlb.walk_levels must be >= 1, got {self.walk_levels}"
            )
        if self.walk_latency < 0 or self.l2_latency < 0:
            raise ConfigError(f"tlb latencies must be >= 0: {self}")


@dataclass(frozen=True)
class MemoryConfig:
    """The full memory hierarchy: three cache levels plus DRAM.

    ``dram_bytes_per_cycle`` encodes channel bandwidth (51.2 GB/s at
    4 GHz = 12.8 B/cycle); each line transfer occupies the channel for
    ``line/bw`` cycles, giving the paper's request-based contention model.
    """

    l1d: CacheConfig
    l2: CacheConfig
    l3: CacheConfig
    l1d_mshrs: int = 24
    dram_latency: int = 200  # 50 ns at 4 GHz
    dram_bytes_per_cycle: float = 12.8
    line_bytes: int = 64
    # Virtual-memory axis (PR 9): off by default, so the untranslated
    # hierarchy stays bit-identical to the pre-TLB goldens.
    tlb: TLBConfig = field(default_factory=TLBConfig)

    def __post_init__(self) -> None:
        # The hierarchy numbers lines with ``line_bytes`` while each
        # cache sizes its sets with its own: they must agree, or a level
        # silently holds more (or fewer) bytes than it is configured to.
        for label in ("l1d", "l2", "l3"):
            level = getattr(self, label)
            if level.line_bytes != self.line_bytes:
                raise ConfigError(
                    f"memory.{label}.line_bytes ({level.line_bytes}) must equal "
                    f"memory.line_bytes ({self.line_bytes})"
                )

    @staticmethod
    def paper() -> "MemoryConfig":
        return MemoryConfig(
            l1d=CacheConfig(32 * 1024, 8, latency=4),
            l2=CacheConfig(256 * 1024, 8, latency=8),
            l3=CacheConfig(8 * 1024 * 1024, 16, latency=30),
        )

    @staticmethod
    def scaled() -> "MemoryConfig":
        """Paper hierarchy scaled down ~16x (see DESIGN.md).

        Only the shared LLC is scaled (16x) — that is what sets the
        working-set:cache ratio. The L1-D keeps its 32KB paper size so a
        full 128-lane DVR prefetch window fits, as it does on the paper's
        configuration; the L2 is halved. DRAM bandwidth is scaled *up*
        4x: our hand-lowered kernels issue roughly 4x more indirect
        accesses per instruction than compiled GAP/HPC code, so matching
        the paper's latency-bound baseline regime (~10-20% channel
        utilisation) requires proportionally more bytes per cycle.
        Latency — the phenomenon runahead attacks — is kept at the
        paper's 200 cycles.
        """
        return MemoryConfig(
            l1d=CacheConfig(32 * 1024, 8, latency=4),
            l2=CacheConfig(128 * 1024, 8, latency=8),
            l3=CacheConfig(512 * 1024, 16, latency=30),
            dram_bytes_per_cycle=51.2,
        )


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (paper Table 1)."""

    width: int = 5
    rob_size: int = 350
    iq_size: int = 128
    lq_size: int = 128
    sq_size: int = 72
    frontend_stages: int = 15
    int_alu_units: int = 4
    int_alu_latency: int = 1
    int_mul_units: int = 1
    int_mul_latency: int = 3
    int_div_units: int = 1
    int_div_latency: int = 18
    fp_add_units: int = 1
    fp_add_latency: int = 3
    fp_mul_units: int = 1
    fp_mul_latency: int = 5
    fp_div_units: int = 1
    fp_div_latency: int = 6
    mem_ports: int = 2

    def __post_init__(self) -> None:
        if self.width <= 0 or self.rob_size <= 0:
            raise ConfigError(f"invalid core config: {self}")
        if self.iq_size <= 0 or self.lq_size <= 0 or self.sq_size <= 0:
            raise ConfigError(f"invalid queue sizes: {self}")

    def with_rob(self, rob_size: int) -> "CoreConfig":
        """The paper's ROB sweeps keep everything else fixed."""
        return replace(self, rob_size=rob_size)

    def with_scaled_backend(self, rob_size: int) -> "CoreConfig":
        """Scale IQ/LQ/SQ in proportion to the ROB (paper Section 6.5)."""
        factor = rob_size / self.rob_size
        return replace(
            self,
            rob_size=rob_size,
            iq_size=max(8, round(self.iq_size * factor)),
            lq_size=max(8, round(self.lq_size * factor)),
            sq_size=max(8, round(self.sq_size * factor)),
        )


@dataclass(frozen=True)
class BranchPredictorConfig:
    """TAGE-lite predictor sizing (stands in for 8KB TAGE-SC-L)."""

    bimodal_bits: int = 12
    num_tagged_tables: int = 4
    tagged_entries_bits: int = 9
    tag_bits: int = 8
    min_history: int = 8
    max_history: int = 64


@dataclass(frozen=True)
class RunaheadConfig:
    """Parameters shared by the runahead family of techniques."""

    # Vector Runahead (ISCA 2021 mechanism).
    vr_lanes: int = 64
    # Decoupled Vector Runahead.
    dvr_lanes: int = 128
    vector_width: int = 8  # scalar-equivalent lanes per AVX-512 copy
    nested_threshold: int = 64  # enter NDM below this many iterations
    instruction_timeout: int = 200
    subthread_issue_width: int = 2  # vector copies issued per cycle
    # Chaining: a dependent vector op's slice may issue as soon as its
    # own source slice is ready, subject to ``subthread_issue_width``
    # slices per cycle. Off = the legacy serialized global-clock timing.
    vector_chaining: bool = True
    discovery_enabled: bool = True
    nested_enabled: bool = True
    reconvergence_enabled: bool = True
    stride_detector_entries: int = 32
    stride_confidence: int = 2
    reconvergence_stack_depth: int = 8
    # Classic/precise runahead.
    runahead_flush_penalty: int = 15
    pre_min_interval: int = 8
    # What a speculative (runahead / hardware-prefetcher) access does on
    # a full TLB miss when translation is enabled: "walk" lets it
    # trigger a page-table walk like a demand access; "drop" discards it
    # at the L2-TLB miss, the way real hardware prefetchers behave.
    # Demand accesses always walk. Irrelevant while memory.tlb is off.
    tlb_policy: str = "walk"

    def __post_init__(self) -> None:
        if self.tlb_policy not in ("walk", "drop"):
            raise ConfigError(
                f"runahead.tlb_policy must be 'walk' or 'drop', "
                f"got {self.tlb_policy!r}"
            )
        if self.subthread_issue_width < 1:
            raise ConfigError(
                f"runahead.subthread_issue_width must be >= 1, "
                f"got {self.subthread_issue_width}"
            )
        if self.vector_width < 1:
            raise ConfigError(
                f"runahead.vector_width must be >= 1, got {self.vector_width}"
            )


@lru_cache(maxsize=None)
def _field_names(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _plain_dict(node) -> Dict:
    """``dataclasses.asdict`` for the config tree, without its deep copy.

    Every leaf of a config is an immutable scalar, so walking the fields
    gives the same dict (same keys, same order) at a fraction of the
    cost; the result is read on every run's identity path.
    """
    out = {}
    for name in _field_names(type(node)):
        value = getattr(node, name)
        # ``hasattr`` rather than ``is_dataclass``: a third of the cost.
        if hasattr(value, "__dataclass_fields__"):
            value = _plain_dict(value)
        out[name] = value
    return out


#: Wire-format defaults for the fields :meth:`SimConfig.to_dict` omits
#: when unchanged (spec-key stability across the TLB axis's addition).
_TLB_DEFAULT_DICT = _plain_dict(TLBConfig())
_TLB_POLICY_DEFAULT = RunaheadConfig.tlb_policy
#: Retired fields, pinned in the wire format at their one product value
#: (docs/spec.md rule 7): ``(section, field, value, the field it
#: follows)``. :meth:`SimConfig.to_dict` writes each in its old slot and
#: :meth:`SimConfig.from_dict` accepts and drops exactly that value.
_RETIRED_FIELDS = (
    ("runahead", "vector_engine", "slice", "subthread_issue_width"),
    ("branch", "mispredict_penalty_extra", 0, "max_history"),
)


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to run one simulation."""

    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig.scaled)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    runahead: RunaheadConfig = field(default_factory=RunaheadConfig)
    max_instructions: int = 200_000
    # Region-of-interest support: statistics are reset after this many
    # committed instructions (the paper skips each benchmark's
    # initialisation phase the same way).
    warmup_instructions: int = 0
    # L1 stride prefetcher (always enabled in the paper's baseline).
    stride_prefetcher_enabled: bool = True
    stride_prefetcher_streams: int = 16
    stride_prefetcher_degree: int = 2

    @staticmethod
    def paper(**overrides: object) -> "SimConfig":
        return SimConfig(memory=MemoryConfig.paper(), **overrides)  # type: ignore[arg-type]

    @staticmethod
    def scaled(**overrides: object) -> "SimConfig":
        return SimConfig(memory=MemoryConfig.scaled(), **overrides)  # type: ignore[arg-type]

    def with_core(self, core: CoreConfig) -> "SimConfig":
        return replace(self, core=core)

    def with_runahead(self, runahead: RunaheadConfig) -> "SimConfig":
        return replace(self, runahead=runahead)

    def with_max_instructions(self, n: int) -> "SimConfig":
        return replace(self, max_instructions=n)

    def to_dict(self) -> Dict:
        """Nested plain-dict form (the ``repro.spec/1`` wire format).

        Every content address — :meth:`RunSpec.key`, campaign digests —
        derives from this dict, so its bytes only change on purpose.
        Fields added after ``repro.spec/1`` shipped (the TLB axis) are
        omitted while at their defaults: a run that never mentions the
        TLB keeps the key it had before the axis existed. The retired
        fields (``runahead.vector_engine`` and
        ``branch.mispredict_penalty_extra``) are still written, each at
        its one product value in its old position, so keys that embed
        them survive their removal. :meth:`from_dict` undoes both, so the
        round trip is exact either way.
        """
        data = _plain_dict(self)
        if data["memory"]["tlb"] == _TLB_DEFAULT_DICT:
            del data["memory"]["tlb"]
        if data["runahead"]["tlb_policy"] == _TLB_POLICY_DEFAULT:
            del data["runahead"]["tlb_policy"]
        for section, name, value, after in _RETIRED_FIELDS:
            items = list(data[section].items())
            at = [key for key, _ in items].index(after) + 1
            items.insert(at, (name, value))
            data[section] = dict(items)
        return data

    @staticmethod
    def from_dict(data: Mapping) -> "SimConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Strict: an unknown key anywhere in the tree raises
        :class:`ConfigError` (a typo in a spec file must not silently
        fall back to a default), and every dataclass ``__post_init__``
        validation re-runs on the reconstructed values. A retired key is
        accepted and dropped only with the value :meth:`to_dict` writes
        (equal and of the same type); any other value raises.
        """
        for section, name, value, _ in _RETIRED_FIELDS:
            node = data.get(section) if isinstance(data, Mapping) else None
            if not isinstance(node, Mapping) or name not in node:
                continue
            got = node[name]
            if type(got) is not type(value) or got != value:
                raise ConfigError(
                    f"config.{section}.{name}: the field is retired and only "
                    f"its legacy value {value!r} is accepted, got {got!r}"
                )
            data = {**data, section: {k: v for k, v in node.items() if k != name}}
        return _dataclass_from_dict(SimConfig, data, "config")


def _dataclass_from_dict(cls, data: Mapping, path: str):
    import typing

    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: expected a mapping for {cls.__name__}, got {data!r}")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{path}: unknown {cls.__name__} fields {unknown}")
    # PEP 563 stores annotations as strings; resolve them to classes so
    # nested dataclass fields recurse.
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        hint = hints.get(name)
        if isinstance(hint, type) and is_dataclass(hint):
            kwargs[name] = _dataclass_from_dict(hint, value, f"{path}.{name}")
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: cannot build {cls.__name__}: {exc}") from exc


def pin_runahead_config(
    runahead: RunaheadConfig,
    pins: Mapping[str, object],
    technique: str = "?",
    explicit: frozenset = frozenset(),
) -> RunaheadConfig:
    """Apply a technique's declarative config pins; config stays boss.

    Ablation techniques (``dvr-offload``, ``dvr-discovery``,
    ``dvr-noreconv``) are defined as *pins* over :class:`RunaheadConfig`
    fields rather than constructor overrides, so the resolved config is
    the single source of truth for technique behaviour. A field the user
    left at its dataclass default is pinned silently; a contradiction —
    the field was explicitly named in the spec's ``overrides``
    (``explicit``) with a value other than the pin, or carries a value
    that matches neither the pin nor the default — raises
    :class:`ConfigError`. Sweeping ``runahead.discovery_enabled`` under
    ``dvr-offload`` is a contradiction, not a silent no-op.
    """
    if not pins:
        return runahead
    defaults = RunaheadConfig()
    conflicts = []
    for name, pinned in pins.items():
        current = getattr(runahead, name)
        if current == pinned:
            continue
        if name in explicit or current != getattr(defaults, name):
            conflicts.append(f"runahead.{name}={current!r} (pin: {pinned!r})")
    if conflicts:
        raise ConfigError(
            f"technique {technique!r} pins {', '.join(conflicts)}; drop the "
            f"explicit override or use a technique that leaves the field free"
        )
    return replace(runahead, **dict(pins))
