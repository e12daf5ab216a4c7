"""Fault-tolerant batch runner + content-addressed result cache tests."""

import dataclasses
import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import SimConfig
from repro.errors import ReproError
from repro.experiments import (
    BATCH_COUNTERS,
    BatchFailure,
    ResultCache,
    RunSpec,
    batch_failures,
    reset_batch_counters,
    run_batch,
    run_simulation,
    run_sweep,
    speedup_matrix,
    successful,
    use_cache,
)
from repro.experiments import batch as batch_module
from repro.experiments import cache as cache_module
from repro.observability import Observability
from repro.perf.trace import clear_trace_memo


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_batch_counters()
    yield
    reset_batch_counters()


def _spec(workload="camel", technique="ooo", n=800, **kw):
    return {"workload": workload, "technique": technique, "max_instructions": n, **kw}


BAD_SPEC = {"workload": "no_such_workload", "technique": "ooo", "max_instructions": 800}


class TestIsolation:
    def test_one_poisoned_spec_does_not_sink_serial_batch(self):
        specs = [_spec(), _spec(technique="dvr"), dict(BAD_SPEC), _spec("nas_is", "dvr")]
        results = run_batch(specs)
        assert len(results) == 4
        failure = results[2]
        assert isinstance(failure, BatchFailure)
        assert failure.error_type == "WorkloadError"
        assert "no_such_workload" in failure.message
        assert "WorkloadError" in failure.traceback
        assert len(successful(results)) == 3
        assert BATCH_COUNTERS.get("batch.failures") == 1

    def test_one_poisoned_spec_does_not_sink_parallel_pool(self):
        specs = [_spec(), _spec(technique="dvr"), dict(BAD_SPEC), _spec("nas_is", "dvr")]
        results = run_batch(specs, jobs=2)
        assert isinstance(results[2], BatchFailure)
        assert [type(r).__name__ for r in results] == [
            "SimulationResult", "SimulationResult", "BatchFailure", "SimulationResult",
        ]
        assert batch_failures(results)[0].spec["workload"] == "no_such_workload"

    def test_strict_mode_raises_with_worker_traceback(self):
        with pytest.raises(ReproError, match="no_such_workload"):
            run_batch([_spec(), dict(BAD_SPEC)], strict=True)

    def test_failure_to_dict_is_json_safe(self):
        failure = run_batch([dict(BAD_SPEC)])[0]
        payload = json.loads(json.dumps(failure.to_dict()))
        assert payload["failure"] is True
        assert payload["error_type"] == "WorkloadError"

    def test_results_still_bit_identical_to_direct_runs(self):
        results = run_batch([_spec(), dict(BAD_SPEC)], jobs=2)
        direct = run_simulation("camel", "ooo", max_instructions=800)
        assert results[0].to_dict() == direct.to_dict()

    def test_facade_spec_runs_in_the_caller_under_jobs(self):
        # A live Observability cannot be pickled into a pool worker;
        # the spec runs here and populates the caller's facade.
        serial = Observability(trace=True)
        run_batch([_spec(observability=serial)], jobs=1)
        facade = Observability(trace=True)
        results = run_batch(
            [_spec(observability=facade), _spec("nas_is"), _spec(technique="dvr")],
            jobs=2,
        )
        assert [type(r).__name__ for r in results] == ["SimulationResult"] * 3
        assert facade.trace.digest() == serial.trace.digest()
        assert BATCH_COUNTERS.get("batch.retries") == 0


def _bounded(fn, seconds=30.0):
    """``fn()``, failing instead of hanging if it blocks past ``seconds``."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still blocked after {seconds:g}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestRetry:
    """A pool worker SIGKILLed mid-spec, as an OOM kill would."""

    SPECS = [
        RunSpec("camel", max_instructions=800),
        RunSpec("nas_is", max_instructions=800),
    ]

    def test_transient_pool_death_is_retried(self, kill_pool_workers):
        serial = [run_simulation(spec).to_dict() for spec in self.SPECS]
        kill_pool_workers(once=True)
        results = _bounded(lambda: run_batch(self.SPECS, jobs=2))
        assert not batch_failures(results)
        assert [r.to_dict() for r in results] == serial
        assert BATCH_COUNTERS.get("batch.retries") == 1

    def test_retry_reruns_only_unfinished_specs(self, kill_pool_workers):
        # nas_is's worker dies once camel's result is in: the retry
        # re-runs nas_is only.
        log = kill_pool_workers(once=True, victim="nas_is", after="camel")
        results = _bounded(lambda: run_batch(self.SPECS, jobs=2))
        assert not batch_failures(results)
        starts = [line for line in log.read_text().splitlines() if line.startswith("start")]
        assert sorted(starts) == ["start camel", "start nas_is", "start nas_is"]
        assert BATCH_COUNTERS.get("batch.retries") == 1

    def test_exhausted_retries_become_failures_not_hangs(
        self, kill_pool_workers, monkeypatch
    ):
        monkeypatch.setattr(batch_module, "RETRY_BACKOFF", 0.0)
        kill_pool_workers(once=False)
        results = _bounded(lambda: run_batch(self.SPECS, jobs=2, retries=2))
        assert len(batch_failures(results)) == 2
        failure = results[0]
        assert failure.error_type == "BrokenProcessPool"
        assert failure.attempts == 3  # initial + 2 retries
        assert "giving up" in failure.message
        assert BATCH_COUNTERS.get("batch.retries") == 2


class TestDedup:
    def test_identical_specs_simulate_once(self):
        results = run_batch([_spec(), _spec()])
        assert BATCH_COUNTERS.get("batch.sim.runs") == 1
        assert BATCH_COUNTERS.get("batch.dedup.reused") == 1
        assert results[0].to_dict() == results[1].to_dict()

    def test_speedup_matrix_runs_ooo_once_per_workload(self):
        matrix = speedup_matrix(["nas_is"], ["ooo", "dvr"], instructions=800)
        # baseline + dvr = 2 simulations; the "ooo" column reuses the baseline.
        assert BATCH_COUNTERS.get("batch.sim.runs") == 2
        assert matrix["nas_is"]["ooo"] == pytest.approx(1.0)
        assert matrix["nas_is"]["dvr"] > 0

    def test_equivalent_explicit_config_and_max_instructions_share_a_key(self):
        a = RunSpec.from_any(_spec()).key()
        b = RunSpec.from_any(
            {"workload": "camel", "technique": "ooo",
             "config": SimConfig(max_instructions=800)}
        ).key()
        assert a == b


class TestResultCache:
    def test_hit_miss_roundtrip_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(technique="dvr")
        first = run_batch([spec], cache=cache)[0]
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
        second = run_batch([spec], cache=cache)[0]
        assert cache.hits == 1
        direct = run_simulation(**spec)
        assert second.to_dict() == first.to_dict() == direct.to_dict()
        assert BATCH_COUNTERS.get("batch.cache.hits") == 1

    def test_result_payload_is_the_full_field_set(self):
        # The entry and wire format read result_to_payload: it must be
        # asdict exactly, field order included, with its own containers.
        result = run_simulation("camel", "ooo", max_instructions=800, audit=True)
        payload = cache_module.result_to_payload(result)
        assert json.dumps(payload) == json.dumps(dataclasses.asdict(result))
        assert payload["counters"] is not result.counters
        assert payload["audit"] == result.audit and payload["audit"] is not result.audit

    def test_invalidation_on_config_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch([_spec()], cache=cache)
        bigger_rob = {
            "workload": "camel", "technique": "ooo",
            "config": SimConfig(max_instructions=800).with_core(
                SimConfig().core.with_rob(512)
            ),
        }
        run_batch([bigger_rob], cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        assert len(cache) == 2

    def test_invalidation_on_code_fingerprint_change(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        run_batch([_spec()], cache=cache)
        monkeypatch.setattr(cache_module, "_FINGERPRINT", "pretend-code-edit")
        run_batch([_spec()], cache=cache)
        assert cache.misses == 2

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        run_batch([spec], cache=cache)
        entry = next(tmp_path.rglob("*.json"))
        entry.write_text("{not json")
        result = run_batch([spec], cache=cache)[0]
        assert result.ipc > 0
        assert cache.misses == 2

    def test_traced_and_untraced_runs_have_distinct_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        plain = run_batch([_spec()], cache=cache)[0]
        traced = run_batch([_spec(trace=True)], cache=cache)[0]
        assert plain.trace_digest is None
        assert traced.trace_digest is not None
        # Round-trip the traced entry: digest must survive the cache.
        again = run_batch([_spec(trace=True)], cache=cache)[0]
        assert again.trace_digest == traced.trace_digest
        assert cache.hits == 1

    def test_ambient_cache_serves_run_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        with use_cache(cache):
            first = run_simulation("camel", "ooo", max_instructions=800)
            second = run_simulation("camel", "ooo", max_instructions=800)
        assert cache.hits == 1 and cache.misses == 1
        assert first.to_dict() == second.to_dict()
        assert cache_module.active_cache() is None

    def test_second_sweep_invocation_runs_zero_simulations(self, tmp_path):
        run_sweep(
            "nas_is", "dvr", "runahead.dvr_lanes", [16, 32],
            instructions=800, cache=ResultCache(tmp_path),
        )
        reset_batch_counters()
        repeat = run_sweep(
            "nas_is", "dvr", "runahead.dvr_lanes", [16, 32],
            instructions=800, cache=ResultCache(tmp_path),
        )
        assert BATCH_COUNTERS.get("batch.sim.runs") == 0
        assert BATCH_COUNTERS.get("batch.cache.misses") == 0
        assert BATCH_COUNTERS.get("batch.cache.hits") == 3
        assert repeat.rows[0][1] > 0


def _hammer_cache(root, result, keys, barrier):
    """Child-process body for the concurrent-writer stress test."""
    cache = ResultCache(root)
    barrier.wait()  # maximise put/put and put/get overlap
    for key in keys:
        cache.put(key, result)
        assert cache.get(key) is not None


class TestShardedCache:
    def test_entries_land_in_spec_key_prefix_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch([_spec(), _spec(technique="dvr")], cache=cache)
        entries = list(tmp_path.rglob("*.json"))
        assert len(entries) == 2
        for entry in entries:
            assert entry.parent.name == entry.stem[:2]

    def test_duplicate_write_is_a_hit_not_a_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = run_batch([spec], cache=cache)[0]
        key = next(tmp_path.rglob("*.json")).stem
        other = ResultCache(tmp_path)  # second writer, cold view
        other.put(key, result)
        assert (other.stores, other.dup_writes) == (0, 1)
        assert BATCH_COUNTERS.get("batch.cache.dup_writes") == 1
        assert len(list(tmp_path.rglob("*.json"))) == 1

    def test_publish_race_lost_at_link_time_counts_as_dup(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = run_batch([spec], cache=cache)[0]
        key = next(tmp_path.rglob("*.json")).stem
        # Defeat the cheap exists() pre-check so put() reaches the
        # atomic link() publish against an already-published key —
        # the narrow two-writers-finish-together window.
        monkeypatch.setattr(cache_module.Path, "exists", lambda self: False)
        cache.put(key, result)
        assert cache.dup_writes == 1
        assert not list(tmp_path.rglob(".tmp-*"))  # temp file cleaned up

    def test_concurrent_multiprocess_writers_tear_nothing(self, tmp_path):
        import multiprocessing

        result = run_simulation("camel", "ooo", max_instructions=300)
        keys = ["%040x" % (i * 2654435761) for i in range(24)]
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        procs = [
            ctx.Process(
                target=_hammer_cache, args=(str(tmp_path), result, keys, barrier)
            )
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        cache = ResultCache(tmp_path)
        assert len(cache) == len(keys)
        for entry in tmp_path.rglob("*.json"):
            json.loads(entry.read_text())  # atomic publish ⇒ never torn
        for key in keys:
            assert cache.get(key) is not None

    def test_writer_killed_mid_put_leaves_no_torn_entry(self, tmp_path):
        import signal
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.experiments import ResultCache, run_simulation\n"
            "cache = ResultCache(sys.argv[1])\n"
            "result = run_simulation('camel', 'ooo', max_instructions=300)\n"
            "print('ready', flush=True)\n"
            "i = 0\n"
            "while True:\n"
            "    cache.put('%040d' % i, result)\n"
            "    i += 1\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                          env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            time.sleep(0.3)  # let it publish a few hundred entries
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        # rglob, unlike glob.glob, matches dotfiles — skip the victim's
        # in-flight ``.tmp-*`` file (unflushed crash residue, swept below);
        # every *published* entry must be whole.
        entries = [
            p for p in tmp_path.rglob("*.json") if not p.name.startswith(".")
        ]
        assert entries, "writer never published anything"
        for entry in entries:
            json.loads(entry.read_text())  # no torn JSON anywhere
        # A temp file the victim was mid-write on is swept once stale.
        cache = ResultCache(tmp_path)
        for tmp in tmp_path.rglob(".tmp-*"):
            past = time.time() - 2 * cache_module.STALE_TMP_SECONDS
            os.utime(tmp, (past, past))
        report = cache.gc(max_age=10 * cache_module.STALE_TMP_SECONDS)
        assert not list(tmp_path.rglob(".tmp-*"))
        assert report["evicted"] == 0  # fresh entries stay

    def test_stats_reports_per_shard_breakdown(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch([_spec(), _spec(technique="dvr"), _spec("nas_is")], cache=cache)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] == sum(
            p.stat().st_size for p in tmp_path.rglob("*.json")
        )
        assert sum(s["entries"] for s in stats["shards"].values()) == 3
        for shard, info in stats["shards"].items():
            assert len(shard) == cache_module.SHARD_WIDTH
            assert info["bytes"] > 0

    def test_gc_age_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch([_spec(), _spec(technique="dvr")], cache=cache)
        old, new = sorted(tmp_path.rglob("*.json"))
        stale = time.time() - 1000
        os.utime(old, (stale, stale))
        report = cache.gc(max_age=500)
        assert (report["evicted"], report["kept"]) == (1, 1)
        assert not old.exists() and new.exists()
        assert BATCH_COUNTERS.get("batch.cache.evictions") == 1

    def test_gc_lru_eviction_respects_recency_of_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [_spec(), _spec(technique="dvr"), _spec("nas_is")]
        run_batch(specs, cache=cache)
        paths = sorted(tmp_path.rglob("*.json"))
        for age, path in zip((900, 600, 300), paths):
            then = time.time() - age
            os.utime(path, (then, then))
        # A hit refreshes the oldest entry's LRU clock...
        oldest_key = paths[0].stem
        assert cache.get(oldest_key) is not None
        # ...so a one-entry byte budget keeps it and evicts the others.
        keep_bytes = paths[0].stat().st_size
        report = cache.gc(max_bytes=keep_bytes)
        assert report["evicted"] == 2
        assert paths[0].exists()
        assert not paths[1].exists() and not paths[2].exists()

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch([_spec(), _spec(technique="dvr")], cache=cache)
        paths = list(tmp_path.rglob("*.json"))
        on_disk = sum(p.stat().st_size for p in paths)
        report = cache.gc(max_bytes=0, dry_run=True)
        # The report tallies exactly what a real gc WOULD evict...
        assert report["evicted"] == 2
        assert report["freed_bytes"] == on_disk
        assert report["kept"] == 0
        # ...while zero deletions actually happen: every entry is still
        # on disk, still indexed, and still served as a hit.
        assert sorted(tmp_path.rglob("*.json")) == sorted(paths)
        assert BATCH_COUNTERS.get("batch.cache.evictions") == 0
        for path in paths:
            assert cache.get(path.stem) is not None

    def test_stats_and_gc_cover_every_file_under_the_root(self, tmp_path):
        # A capturing run (cold trace memo) writes nothing but results:
        # stats counts every byte on disk, and gc can empty the root.
        clear_trace_memo()
        cache = ResultCache(tmp_path)
        run_batch([_spec(), _spec(technique="dvr")], cache=cache)
        assert BATCH_COUNTERS.get("batch.trace.captures") == 1
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert cache.stats()["bytes"] == sum(p.stat().st_size for p in files)
        cache.gc(max_bytes=0)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_len_and_total_bytes_use_the_index(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch([_spec(), _spec(technique="dvr")], cache=cache)
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 2
        assert fresh.total_bytes() == sum(
            p.stat().st_size for p in tmp_path.rglob("*.json")
        )


class TestCacheCLI:
    def test_cache_stats_text_and_json(self, tmp_path, capsys):
        run_batch([_spec(), _spec(technique="dvr")], cache=ResultCache(tmp_path))
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries      : 2" in out
        assert main(["cache", "stats", "--dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2 and stats["bytes"] > 0

    def test_cache_gc_with_size_suffix(self, tmp_path, capsys):
        run_batch([_spec(), _spec(technique="dvr")], cache=ResultCache(tmp_path))
        assert main(["cache", "gc", "--dir", str(tmp_path), "--max-bytes", "1K"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert len(list(tmp_path.rglob("*.json"))) <= 1

    def test_cache_gc_dry_run_and_age(self, tmp_path, capsys):
        run_batch([_spec()], cache=ResultCache(tmp_path))
        assert main([
            "cache", "gc", "--dir", str(tmp_path), "--max-age", "0s", "--dry-run",
        ]) == 0
        assert "would evict 1" in capsys.readouterr().out
        assert len(list(tmp_path.rglob("*.json"))) == 1

    def test_cache_gc_requires_a_policy(self, tmp_path, capsys):
        assert main(["cache", "gc", "--dir", str(tmp_path)]) == 2
        assert "needs --max-bytes and/or --max-age" in capsys.readouterr().err

    def test_cache_gc_rejects_bad_size(self, tmp_path, capsys):
        assert main([
            "cache", "gc", "--dir", str(tmp_path), "--max-bytes", "lots",
        ]) == 2
        assert "bad size" in capsys.readouterr().err


class TestWorkloadDispatch:
    def test_registry_reports_input_name_support(self):
        from repro.workloads.registry import workload_accepts_input_name

        assert workload_accepts_input_name("bfs")
        assert workload_accepts_input_name("sssp")
        assert not workload_accepts_input_name("camel")
        # hj2/hj8 are functools.partial wrappers; the signature must
        # resolve through them, not report the bare **kwargs.
        assert not workload_accepts_input_name("hj2")

    def test_unknown_workload_still_raises(self):
        from repro.errors import WorkloadError
        from repro.workloads.registry import workload_accepts_input_name

        with pytest.raises(WorkloadError):
            workload_accepts_input_name("nope")

    def test_genuine_typeerror_in_builder_propagates(self, monkeypatch):
        from repro.workloads import registry

        def broken_builder(input_name=None, size="default", seed=None):
            raise TypeError("genuine bug inside workload construction")

        monkeypatch.setitem(registry._BUILDERS, "brokenwl", broken_builder)
        # The old except-TypeError probe would have retried without
        # input_name and masked/duplicated this error.
        with pytest.raises(TypeError, match="genuine bug"):
            run_simulation("brokenwl", "ooo", max_instructions=100, input_name="KR")

    def test_input_name_dropped_for_hpc_db(self):
        # Spec normalization drops input_name for workloads whose
        # builder does not take one, so the two runs are the *same*
        # run: identical label, identical results, identical cache key.
        result = run_simulation("camel", "ooo", max_instructions=800, input_name="KR")
        assert result.workload == "camel"
        baseline = run_simulation("camel", "ooo", max_instructions=800)
        assert result.ipc == baseline.ipc
        from repro.experiments import RunSpec

        with_input = RunSpec("camel", max_instructions=800, input_name="KR")
        without = RunSpec("camel", max_instructions=800)
        assert with_input.key() == without.key()
        # A graph workload's input_name stays identity-bearing.
        assert (
            RunSpec("bfs", max_instructions=800, input_name="KR").key()
            != RunSpec("bfs", max_instructions=800).key()
        )


class TestBatchCLI:
    def test_batch_command_tolerates_failures(self, tmp_path, capsys):
        specs = [_spec(), dict(BAD_SPEC)]
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(specs))
        code = main(["batch", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "ok   camel/ooo" in out
        assert "FAIL no_such_workload/ooo" in out
        assert "1/2 specs succeeded" in out

    def test_batch_command_json_and_overrides(self, tmp_path, capsys):
        specs = [
            {
                "workload": "nas_is",
                "technique": "dvr",
                "max_instructions": 800,
                "overrides": {"runahead.dvr_lanes": 32},
            }
        ]
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(specs))
        code = main(["batch", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["workload"] == "nas_is"
        assert payload[0]["ipc"] > 0

    def test_batch_command_rejects_bad_file(self, tmp_path, capsys):
        path = tmp_path / "specs.json"
        path.write_text("{\"not\": \"a list\"}")
        assert main(["batch", str(path)]) == 2

    def test_sweep_cache_flag_round_trip(self, tmp_path, capsys):
        argv = [
            "sweep", "--workload", "nas_is", "--technique", "dvr",
            "--param", "runahead.dvr_lanes", "--values", "16",
            "--instructions", "800", "--cache", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        reset_batch_counters()
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "batch.sim.runs=0" in err
        assert "batch.cache.misses=0" in err
