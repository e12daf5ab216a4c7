"""The canonical, serializable description of one simulation run.

Every entry point in the package — :func:`~repro.experiments.runner.
run_simulation`, the batch runner, the sweep and figure generators, the
result cache, architectural-trace keying, and the CLI — describes a run
as a :class:`RunSpec`. A spec is a *value*: frozen, hashable, and
round-trippable through a versioned JSON document (``repro.spec/1``),
so a run can be hashed, deduplicated, written to a file, or shipped to
another process or host without re-threading eleven keyword arguments.

Resolution (:meth:`RunSpec.resolved`) normalizes a spec to its
canonical form:

* ``max_instructions`` and dotted-path ``overrides`` fold into the
  config (so ``max_instructions=1200`` and
  ``config=SimConfig(max_instructions=1200)`` are the same run);
* the technique's declarative config pins apply
  (:func:`repro.techniques.technique_runahead_config`) — ``dvr-offload``
  over a default config and ``dvr-offload`` over a config explicitly
  setting ``discovery_enabled=False`` resolve identically, while a
  *contradictory* explicit override raises
  :class:`~repro.errors.ConfigError`;
* ``input_name`` is dropped for workloads whose builder does not take
  one (byte-identical runs must share a cache entry);
* ``trace_capacity`` participates in identity only when ``trace`` is
  on.

Both the result-cache key (:meth:`RunSpec.key`, a content address) and
the architectural-trace memo key (:meth:`RunSpec.stream_projection`,
consumed by :func:`repro.perf.trace.arch_trace_key`) derive from the
resolved form — one derivation point for run identity. See
``docs/spec.md`` for the schema and the normalization rules.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, is_dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..config import SimConfig
from ..errors import ConfigError, WorkloadError
from ..techniques import technique_entry, technique_pins, technique_runahead_config
from ..workloads.registry import require_workload, workload_accepts_input_name

#: Version tag of the spec wire format; bump on layout changes.
SPEC_SCHEMA = "repro.spec/1"

#: ``run_simulation`` keyword arguments that are *runtime plumbing*,
#: not run identity: they never enter a spec or its key.
RUNTIME_KEYS = ("observability", "replay", "audit")

_TRUE_TOKENS = frozenset({"true", "t", "yes", "on", "1"})
_FALSE_TOKENS = frozenset({"false", "f", "no", "off", "0"})


def coerce_bool(value: object) -> bool:
    """Strictly parse a boolean override value.

    ``bool("false")`` is ``True`` in Python, so boolean config fields
    must never go through a ``type(current)(value)`` cast; the CLI's
    ``--values false`` arrives as a string and has to mean ``False``.
    Unparseable values raise :class:`ConfigError` rather than silently
    flipping a feature on.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        token = value.strip().lower()
        if token in _TRUE_TOKENS:
            return True
        if token in _FALSE_TOKENS:
            return False
        raise ConfigError(
            f"cannot interpret {value!r} as a boolean (use true/false)"
        )
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    raise ConfigError(f"cannot interpret {value!r} as a boolean (use true/false)")


def _coerce(path: str, current: object, value: object) -> object:
    if current is None:
        return value
    if isinstance(current, bool):
        return coerce_bool(value)
    try:
        return type(current)(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"cannot coerce {value!r} to {type(current).__name__} for {path!r}"
        ) from exc


def apply_override(config: SimConfig, path: str, value) -> SimConfig:
    """Return a config with the dotted ``path`` replaced by ``value``.

    ``apply_override(cfg, "runahead.dvr_lanes", 64)`` and
    ``apply_override(cfg, "max_instructions", 5000)`` both work; every
    intermediate node must be a (frozen) dataclass field. Values are
    coerced to the field's current type; boolean fields parse
    ``true/false`` tokens strictly (see :func:`coerce_bool`).
    """
    return _rebuild(config, path, path.split("."), value)


def _rebuild(node, path: str, remaining: List[str], value):
    # Module-level rather than a closure: a self-recursive nested
    # function is a reference cycle that only the cyclic collector frees.
    name = remaining[0]
    if not is_dataclass(node) or not hasattr(node, name):
        raise ConfigError(f"no config field {path!r} (failed at {name!r})")
    if len(remaining) == 1:
        current = getattr(node, name)
        return replace(node, **{name: _coerce(path, current, value)})
    child = _rebuild(getattr(node, name), path, remaining[1:], value)
    return replace(node, **{name: child})


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, as a frozen, serializable value.

    ``config=None`` means the package default :class:`SimConfig`.
    ``overrides`` is an ordered tuple of ``(dotted_path, value)`` pairs
    applied to the config at resolution time; ``max_instructions``
    (applied after the overrides) bounds the simulated region. ``trace``
    turns on the structured event trace, whose ring buffer holds
    ``trace_capacity`` events.
    """

    workload: str
    technique: str = "ooo"
    config: Optional[SimConfig] = None
    overrides: Tuple[Tuple[str, object], ...] = ()
    max_instructions: Optional[int] = None
    input_name: Optional[str] = None
    size: str = "default"
    seed: Optional[int] = None
    trace: bool = False
    trace_capacity: int = 65_536

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_kwargs(spec: Mapping) -> "RunSpec":
        """Build a spec from a ``run_simulation`` keyword dict.

        Runtime-only keys (``observability``, ``replay``) are ignored —
        they are plumbing, not identity; use :func:`split_run_kwargs`
        to keep them. Unknown keys raise :class:`ConfigError`.
        """
        return split_run_kwargs(spec)[0]

    @staticmethod
    def from_any(spec: Union["RunSpec", Mapping]) -> "RunSpec":
        """Normalize a spec-like object (RunSpec, kwargs dict, payload)."""
        if isinstance(spec, RunSpec):
            return spec
        if isinstance(spec, Mapping):
            if spec.get("schema") is not None:
                return RunSpec.from_payload(spec)
            return RunSpec.from_kwargs(spec)
        raise ConfigError(
            f"expected a RunSpec or a mapping, got {type(spec).__name__}"
        )

    # -- resolution -----------------------------------------------------------

    def resolved(self, strict: bool = True) -> "RunSpec":
        """The canonical form: config materialized, identity normalized.

        With ``strict=True`` (the run path) an unknown workload raises
        :class:`WorkloadError`, an unknown technique or a technique pin
        that contradicts an explicit config override raises
        :class:`ConfigError` — the errors running the spec would raise,
        before anything is simulated. With ``strict=False`` (the keying
        path, which must stay total so batch isolation can
        content-address a doomed spec) pins apply unconditionally and
        unknown workloads/techniques pass through.
        """
        if strict:
            _require_registered(self.workload, self.technique)

        config = self.config or SimConfig()
        explicit = set()
        for path, value in self.overrides:
            config = apply_override(config, path, value)
            if path.startswith("runahead."):
                explicit.add(path.split(".", 1)[1])
        if self.max_instructions is not None:
            config = config.with_max_instructions(self.max_instructions)
        if strict:
            config = replace(
                config,
                runahead=technique_runahead_config(
                    self.technique, config.runahead, explicit=frozenset(explicit)
                ),
            )
        else:
            pins = technique_pins(self.technique)
            if pins:
                config = replace(config, runahead=replace(config.runahead, **pins))
        input_name = self.input_name
        if input_name is not None and not _accepts_input_name(
            self.workload, strict=strict
        ):
            input_name = None
        return replace(
            self,
            config=config,
            overrides=(),
            max_instructions=None,
            input_name=input_name,
        )

    # -- identity -------------------------------------------------------------

    def identity_payload(self) -> Dict:
        """JSON-safe dict of exactly the fields that define the run.

        Call on a :meth:`resolved` spec; resolving twice is harmless
        (resolution is idempotent), so this resolves non-strictly if
        needed.
        """
        spec = self if self._is_resolved() else self.resolved(strict=False)
        return {
            "schema": SPEC_SCHEMA,
            "workload": spec.workload,
            "technique": spec.technique,
            "config": spec.config.to_dict(),
            "input_name": spec.input_name,
            "size": spec.size,
            "seed": spec.seed,
            "trace": spec.trace,
            "trace_capacity": spec.trace_capacity if spec.trace else None,
        }

    def key(self, fingerprint: Optional[str] = None) -> str:
        """Content address of this run (result-cache key).

        Embeds the package code fingerprint unless ``fingerprint`` pins
        one (golden-key fixtures pin a constant so they survive source
        edits).
        """
        from .cache import spec_key

        return spec_key(self.identity_payload(), fingerprint)

    def stream_projection(self) -> Dict:
        """The spec fields that identify its *architectural stream*.

        The functional instruction stream is technique-independent, so
        the projection drops the technique and every timing parameter,
        keeping (workload, input, size, seed, step limit) plus the
        program transform (``swpf`` rewrites the program; everything
        else shares the ``base`` stream). This is the single derivation
        point for :func:`repro.perf.trace.arch_trace_key`.
        """
        spec = self if self._is_resolved() else self.resolved(strict=False)
        return {
            "workload": spec.workload,
            "input_name": spec.input_name,
            "size": spec.size,
            "seed": spec.seed,
            "limit": spec.config.max_instructions,
            "stream": "swpf" if spec.technique == "swpf" else "base",
        }

    def _is_resolved(self) -> bool:
        return (
            self.config is not None
            and not self.overrides
            and self.max_instructions is None
        )

    # -- serialization --------------------------------------------------------

    def to_payload(self) -> Dict:
        """``repro.spec/1`` JSON document (defaults omitted)."""
        payload: Dict = {"schema": SPEC_SCHEMA, "workload": self.workload}
        if self.technique != "ooo":
            payload["technique"] = self.technique
        if self.config is not None:
            payload["config"] = self.config.to_dict()
        if self.overrides:
            payload["overrides"] = {path: value for path, value in self.overrides}
        if self.max_instructions is not None:
            payload["max_instructions"] = self.max_instructions
        if self.input_name is not None:
            payload["input_name"] = self.input_name
        if self.size != "default":
            payload["size"] = self.size
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.trace:
            payload["trace"] = True
        if self.trace_capacity != 65_536:
            payload["trace_capacity"] = self.trace_capacity
        return payload

    @staticmethod
    def from_payload(payload: Mapping) -> "RunSpec":
        schema = payload.get("schema")
        if schema != SPEC_SCHEMA:
            raise ConfigError(
                f"unsupported spec schema {schema!r} (expected {SPEC_SCHEMA!r})"
            )
        data = {k: v for k, v in payload.items() if k != "schema"}
        config = data.pop("config", None)
        if config is not None:
            config = SimConfig.from_dict(config)
        overrides = data.pop("overrides", None) or {}
        if not isinstance(overrides, Mapping):
            raise ConfigError(
                f"spec overrides must be a mapping of dotted paths, got {overrides!r}"
            )
        spec_kwargs = _checked_fields(data)
        if "workload" not in spec_kwargs:
            raise ConfigError("spec document is missing the 'workload' field")
        return RunSpec(
            config=config,
            overrides=tuple(overrides.items()),
            **spec_kwargs,
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=False)

    @staticmethod
    def from_json(text: str) -> "RunSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec document is not valid JSON: {exc}") from exc
        if not isinstance(payload, Mapping):
            raise ConfigError("spec document must be a JSON object")
        return RunSpec.from_payload(payload)


#: The identity-bearing RunSpec field names (kwargs-dict keys).
_SPEC_FIELDS = (
    "workload",
    "technique",
    "config",
    "max_instructions",
    "input_name",
    "size",
    "seed",
    "trace",
    "trace_capacity",
)


def _checked_fields(data: Mapping) -> Dict:
    unknown = sorted(k for k in data if k not in _SPEC_FIELDS or k == "config")
    if unknown:
        raise ConfigError(
            f"unknown run-spec fields {unknown}; valid fields: "
            f"{list(_SPEC_FIELDS) + ['overrides']}"
        )
    return dict(data)


def split_run_kwargs(spec: Mapping) -> Tuple[RunSpec, Dict]:
    """Split a legacy kwargs dict into (identity spec, runtime extras).

    ``observability``, ``replay``, and ``audit`` are runtime plumbing
    and come back
    in the second dict; an ``overrides`` mapping of dotted config paths
    is folded into the spec. Unknown keys raise :class:`ConfigError`.
    """
    data = dict(spec)
    runtime = {k: data.pop(k) for k in RUNTIME_KEYS if k in data}
    overrides = data.pop("overrides", None) or {}
    if not isinstance(overrides, Mapping):
        raise ConfigError(
            f"spec overrides must be a mapping of dotted paths, got {overrides!r}"
        )
    config = data.pop("config", None)
    if isinstance(config, Mapping):
        config = SimConfig.from_dict(config)
    fields = _checked_fields(data)
    if "workload" not in fields:
        raise ConfigError("run spec is missing the 'workload' field")
    return (
        RunSpec(config=config, overrides=tuple(overrides.items()), **fields),
        runtime,
    )


def _require_registered(workload: str, technique: str) -> None:
    """Look both names up in their name tables, which raise if unknown.

    ``swpf`` is the runner's pseudo-technique: software prefetching
    rewrites the program and runs it on ``ooo``.
    """
    require_workload(workload)
    if technique != "swpf":
        technique_entry(technique)


def _accepts_input_name(workload: str, strict: bool) -> bool:
    """Name-table lookup, total on the keying path (unknown → keep it)."""
    try:
        return workload_accepts_input_name(workload)
    except WorkloadError:
        if strict:
            raise
        return True


# -- spec files ---------------------------------------------------------------

def parse_spec_entry(entry: object) -> Tuple[RunSpec, Dict]:
    """One entry of a spec file: a ``repro.spec/1`` document or a legacy
    ``run_simulation`` kwargs dict (with optional ``overrides``).

    Returns the spec plus any runtime extras (``replay``) the entry
    carried.
    """
    if isinstance(entry, RunSpec):
        return entry, {}
    if not isinstance(entry, Mapping):
        raise ConfigError(f"spec entries must be JSON objects, got {entry!r}")
    if entry.get("schema") is not None:
        return RunSpec.from_payload(entry), {}
    return split_run_kwargs(entry)


def read_spec_file(path: Union[str, os.PathLike]) -> List[Dict]:
    """A spec file's entries, unparsed: a JSON list of objects, or one object.

    The one reader every front end uses. A list's entries are parsed
    where they run, so a malformed one fails only its own slot; a lone
    object is the whole file, so it must parse as a spec here. Any
    failure is one :class:`ConfigError` naming the file.
    """
    try:
        with open(path) as handle:
            raw = json.load(handle)
        if isinstance(raw, dict):
            parse_spec_entry(raw)
            raw = [raw]
        elif not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
            raise ConfigError("expected a JSON list of objects or one spec object")
    except (OSError, ValueError, ConfigError) as exc:  # ValueError: bad JSON
        raise ConfigError(f"cannot read spec file {path!r}: {exc}") from exc
    return raw


def load_specs(path: Union[str, os.PathLike]) -> List[Tuple[RunSpec, Dict]]:
    """Read and parse a spec file (see :func:`read_spec_file`).

    Entries may mix ``repro.spec/1`` documents and legacy kwargs dicts.
    """
    entries = read_spec_file(path)
    try:
        return [parse_spec_entry(entry) for entry in entries]
    except ConfigError as exc:
        raise ConfigError(f"cannot read spec file {path!r}: {exc}") from exc


def dump_specs(
    specs: Sequence[Union[RunSpec, Mapping]], path: Union[str, os.PathLike]
) -> None:
    """Write a JSON spec file consumable by ``repro batch --specs``."""
    payload = [RunSpec.from_any(spec).to_payload() for spec in specs]
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def specs_digest(specs: Sequence[Union["RunSpec", Mapping]]) -> str:
    """Content address of an *ordered* spec list (campaign identity).

    Unlike :meth:`RunSpec.key` this is order-sensitive and fingerprint-
    free: a campaign manifest names *which runs in which slots*, not
    their cached results, so the digest must survive source edits (the
    per-result cache keys still embed the code fingerprint). Parse
    failures are hashed as raw entries — a campaign with a poisoned
    slot is still a well-defined campaign. A
    :class:`~repro.experiments.dispatch.SpecSet` derives the same digest
    from its own parse of each entry.
    """
    entries = []
    for spec in specs:
        try:
            entries.append(RunSpec.from_any(spec))
        except Exception:  # noqa: BLE001 — keep the digest total
            entries.append(spec)
    return entries_digest(entries)


def entries_digest(entries: Sequence[object]) -> str:
    """:func:`specs_digest` of a list already parsed: each entry is its
    :class:`RunSpec`, or the raw entry when it did not parse."""
    blob = json.dumps(
        [_digest_document(entry) for entry in entries],
        sort_keys=True, separators=(",", ":"), default=repr,
    )
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def _digest_document(entry: object) -> object:
    """What :func:`entries_digest` hashes for one entry."""
    if isinstance(entry, RunSpec):
        try:
            return entry.to_payload()
        except Exception:  # noqa: BLE001 — keep the digest total
            return repr(entry)
    return dict(entry) if isinstance(entry, Mapping) else repr(entry)
