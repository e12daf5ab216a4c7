"""Content-addressed on-disk cache of :class:`SimulationResult`\\ s.

Every simulation in this package is deterministic: the result is a pure
function of (workload spec, resolved :class:`~repro.config.SimConfig`,
seed, simulator code). The cache exploits that by keying each result on
a BLAKE2b digest of exactly those inputs, so

* a repeated ``repro sweep --cache`` re-runs **only changed points**,
* every experiment plan (the figures, Table 2, ``run_sweep``,
  ``compare_techniques`` and ``speedup_matrix``, all run by
  ``run_plan``) shares baselines across invocations for free, and
* editing any simulator source file invalidates every entry at once
  (the key embeds a fingerprint of the package's ``.py`` files).

Cached results are bit-identical to live runs: the stored payload is
the full dataclass field set (JSON round-trips Python ints and floats
exactly), including the golden-trace digest for traced runs.

Cache plumbing publishes into :data:`BATCH_COUNTERS`, a process-wide
:class:`~repro.observability.counters.CounterRegistry` holding the
``batch.*`` family (``batch.cache.hits``, ``batch.cache.misses``,
``batch.sim.runs``, ``batch.retries``, ``batch.failures``, ...) — see
``docs/observability.md``.

:func:`use_cache` installs a cache as the ambient context for
:func:`~repro.experiments.runner.run_simulation`, which lets the
figure generators run cached without threading a parameter through
every call site::

    with use_cache(ResultCache(".repro-cache")):
        figure7(instructions=10_000)   # every point served from cache when clean
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ReproError
from ..observability.counters import CounterRegistry
from ..result import SimulationResult

#: Version tag written into every cache file; bump on layout changes.
CACHE_SCHEMA = "repro.batch-cache/1"

#: Process-wide registry for the ``batch.*`` counter family. The batch
#: runner, the result cache, and the single-run entry point all publish
#: here; `repro sweep/compare/batch --cache` prints a snapshot.
BATCH_COUNTERS = CounterRegistry()

#: Every counter the batch layer may publish (pre-created on emission
#: so consumers — e.g. the CI smoke job — can rely on the full family
#: being present even when a run never touched one of them).
BATCH_COUNTER_NAMES = (
    "batch.batches",
    "batch.specs",
    "batch.sim.runs",
    "batch.sim.completions",
    "batch.cache.hits",
    "batch.cache.misses",
    "batch.cache.stores",
    "batch.cache.dup_writes",
    "batch.cache.evictions",
    "batch.dedup.reused",
    "batch.retries",
    "batch.failures",
    "batch.trace.captures",
    "batch.trace.replays",
)


def reset_batch_counters() -> None:
    """Zero the ``batch.*`` family (tests and long-lived processes)."""
    BATCH_COUNTERS.reset()


# -- code fingerprint ---------------------------------------------------------

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` package.

    Computed once per process; any source edit therefore changes every
    cache key, which is the conservative (always-correct) invalidation
    policy for a pure-function simulator.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.blake2b(digest_size=16)
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


# -- spec canonicalisation ----------------------------------------------------
#
# Canonical resolution and normalization live in
# :class:`repro.experiments.spec.RunSpec`; these helpers are the
# low-level content addresser behind :meth:`RunSpec.key
# <repro.experiments.spec.RunSpec.key>`.


def canonical_spec(spec: Dict) -> Dict:
    """JSON-safe copy of a spec dict (dataclasses become nested dicts)."""
    out = {}
    for key in sorted(spec):
        value = spec[key]
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = dataclasses.asdict(value)
        out[key] = value
    return out


def spec_key(resolved: Dict, fingerprint: Optional[str] = None) -> str:
    """Content address of an already-resolved spec dict."""
    payload = {
        "fingerprint": fingerprint if fingerprint is not None else code_fingerprint(),
        "spec": canonical_spec(resolved),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.blake2b(blob.encode(), digest_size=20).hexdigest()


# -- result (de)serialisation -------------------------------------------------

def result_to_payload(result: SimulationResult) -> Dict:
    """Full dataclass field set (unlike ``to_dict``, which is lossy).

    Built field by field in declaration order, which is what
    ``dataclasses.asdict`` returns without its deep copy of every
    counter value: only the two containers are copied.
    """
    return {
        "workload": result.workload,
        "technique": result.technique,
        "counters": dict(result.counters),
        "trace_digest": result.trace_digest,
        "trace_events": result.trace_events,
        "audit": copy.deepcopy(result.audit),
    }


def result_from_payload(payload: Dict) -> SimulationResult:
    return SimulationResult(**payload)


# -- the cache ----------------------------------------------------------------

def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


#: Hex-prefix length of the shard directories (2 → up to 256 shards).
SHARD_WIDTH = 2

#: Orphaned temp files older than this are swept by :meth:`ResultCache.gc`
#: (a writer killed mid-write leaves its ``.tmp-*`` file behind; the
#: entry itself can never be torn — the rename is atomic).
STALE_TMP_SECONDS = 3600.0


class ResultCache:
    """Sharded directory tree of ``<shard>/<key>.json`` result files.

    Layout: entries live under 256 two-hex-digit shard directories
    keyed on the spec-key prefix (``ab01.../`` → ``ab/ab01....json``),
    so no single directory ever holds a 10k-entry campaign and per-shard
    listings stay cheap.

    Concurrency: the cache is safe for many simultaneous writer
    *processes* (fabric workers, forked batch pools, a coordinator):

    * writes are atomic — temp file in the shard directory, then a
      ``link``/``replace`` publish — so a reader (or a ``kill -9``
      mid-write) can never observe a torn entry;
    * a duplicate-write race (two workers finishing the same spec)
      is detected at publish time and counted as a hit
      (``batch.cache.dup_writes``) — the content is identical by
      construction (same key ⇒ same deterministic simulation), so
      losing the race is success, not an error;
    * corrupt or stale-schema entries are treated as misses and
      removed.

    Reads touch the entry's mtime, making mtime an LRU clock;
    :meth:`gc` evicts by age and/or least-recently-used until the
    cache fits ``max_bytes``.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        counters: Optional[CounterRegistry] = None,
    ) -> None:
        self.root = Path(root) if root else default_cache_dir()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a regular file on the path, say
            raise ReproError(
                f"cannot use {str(self.root)!r} as a cache directory: {exc}"
            ) from exc
        self.counters = counters if counters is not None else BATCH_COUNTERS
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.dup_writes = 0

    # -- layout ---------------------------------------------------------------

    def _shard(self, key: str) -> str:
        return key[:SHARD_WIDTH]

    def _shard_dir(self, key: str) -> Path:
        return self.root / self._shard(key)

    def _path(self, key: str) -> Path:
        return self._shard_dir(key) / f"{key}.json"

    # -- read / write ---------------------------------------------------------

    def get(self, key: str) -> Optional[SimulationResult]:
        path = self._path(key)
        result = self._load(path)
        if result is None:
            self.misses += 1
            self.counters.inc("batch.cache.misses")
        else:
            self.hits += 1
            self.counters.inc("batch.cache.hits")
            self.counters.inc(f"batch.cache.shard.{self._shard(key)}.hits")
            try:  # LRU touch; losing the race to an eviction is fine.
                os.utime(path)
            except OSError:
                pass
        return result

    def _load(self, path: Path) -> Optional[SimulationResult]:
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError("schema mismatch")
            return result_from_payload(payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt / foreign entry: drop it and treat as a miss.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, result: SimulationResult) -> None:
        path = self._path(key)
        if path.exists():
            # Another writer (or a previous attempt) published this key
            # already; identical content by construction, so a hit.
            self.dup_writes += 1
            self.counters.inc("batch.cache.dup_writes")
            return
        payload = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "workload": result.workload,
            "technique": result.technique,
            "result": result_to_payload(result),
        }
        shard_dir = path.parent
        shard_dir.mkdir(exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=shard_dir, prefix=".tmp-", suffix=".json", delete=False
        )
        try:
            with handle:
                json.dump(payload, handle)
            try:
                # link() publishes atomically AND detects the
                # duplicate-write race exactly (EEXIST), unlike
                # replace(), which silently clobbers.
                os.link(handle.name, path)
            except FileExistsError:
                self.dup_writes += 1
                self.counters.inc("batch.cache.dup_writes")
                return
            except OSError:
                # Filesystem without hard links: fall back to the
                # atomic (but last-writer-wins) rename.
                os.replace(handle.name, path)
                handle = None
        finally:
            if handle is not None:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
        self.stores += 1
        self.counters.inc("batch.cache.stores")

    # -- the on-disk state ----------------------------------------------------

    def _scan(self) -> Dict[str, Dict[str, Tuple[int, float]]]:
        """``{shard: {key: (size_bytes, mtime)}}``, read fresh from disk
        (other processes may have written): one ``scandir`` pass per
        shard directory, never a per-file ``stat`` storm."""
        index: Dict[str, Dict[str, Tuple[int, float]]] = {}
        try:
            top = list(os.scandir(self.root))
        except OSError:
            return index
        for entry in top:
            if entry.is_dir() and len(entry.name) == SHARD_WIDTH:
                shard = index.setdefault(entry.name, {})
                try:
                    children = os.scandir(entry.path)
                except OSError:
                    continue
                for child in children:
                    if child.name.endswith(".json") and not child.name.startswith("."):
                        st = child.stat()
                        shard[child.name[: -len(".json")]] = (st.st_size, st.st_mtime)
        return index

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._scan().values())

    def total_bytes(self) -> int:
        return sum(
            size
            for shard in self._scan().values()
            for size, _mtime in shard.values()
        )

    def stats(self) -> Dict:
        """Entry count, byte total, and the per-shard breakdown."""
        shards = {
            name: {
                "entries": len(entries),
                "bytes": sum(size for size, _ in entries.values()),
            }
            for name, entries in sorted(self._scan().items())
            if entries
        }
        return {
            "root": str(self.root),
            "entries": sum(s["entries"] for s in shards.values()),
            "bytes": sum(s["bytes"] for s in shards.values()),
            "shards": shards,
        }

    # -- eviction -------------------------------------------------------------

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict:
        """Evict entries by age and LRU order; sweep orphan temp files.

        ``max_age`` drops entries whose mtime (bumped on every hit, so
        effectively last-use time) is older than that many seconds;
        ``max_bytes`` then evicts least-recently-used entries until the
        cache fits. Returns ``{"evicted": n, "freed_bytes": b,
        "kept": k, "tmp_swept": t}``. ``dry_run`` reports without
        deleting. Eviction is safe under concurrent readers/writers:
        a reader losing the race sees a plain miss and re-simulates.
        """
        if now is None:
            now = time.time()
        entries = [
            (mtime, size, key)
            for shard in self._scan().values()
            for key, (size, mtime) in shard.items()
        ]
        victims: List[Tuple[float, int, str]] = []
        if max_age is not None:
            cutoff = now - max_age
            victims.extend(e for e in entries if e[0] < cutoff)
        if max_bytes is not None:
            kept = sorted(set(entries) - set(victims))  # oldest mtime first
            total = sum(size for _mtime, size, _key in kept)
            for entry in kept:
                if total <= max_bytes:
                    break
                victims.append(entry)
                total -= entry[1]
        freed = 0
        evicted = 0
        for _mtime, size, key in victims:
            if not dry_run:
                try:
                    self._path(key).unlink()
                except OSError:
                    continue
                self.counters.inc("batch.cache.evictions")
            evicted += 1
            freed += size
        tmp_swept = 0
        try:
            dirs = [self.root] + [
                Path(e.path) for e in os.scandir(self.root) if e.is_dir()
            ]
        except OSError:
            dirs = []
        for directory in dirs:
            try:
                children = list(os.scandir(directory))
            except OSError:
                continue
            for child in children:
                if not child.name.startswith(".tmp-"):
                    continue
                try:
                    if now - child.stat().st_mtime < STALE_TMP_SECONDS:
                        continue
                    if not dry_run:
                        os.unlink(child.path)
                    tmp_swept += 1
                except OSError:
                    pass
        return {
            "evicted": evicted,
            "freed_bytes": freed,
            "kept": len(entries) - evicted,
            "tmp_swept": tmp_swept,
        }


# -- ambient cache context ----------------------------------------------------

_ACTIVE_CACHE: ContextVar[Optional[ResultCache]] = ContextVar(
    "repro_active_result_cache", default=None
)


def active_cache() -> Optional[ResultCache]:
    """The cache installed by the innermost :func:`use_cache`, if any."""
    return _ACTIVE_CACHE.get()


@contextmanager
def use_cache(cache: Optional[ResultCache]) -> Iterator[Optional[ResultCache]]:
    """Make ``cache`` ambient for :func:`run_simulation` calls within."""
    token = _ACTIVE_CACHE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE_CACHE.reset(token)
