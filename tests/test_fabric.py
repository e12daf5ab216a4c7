"""Distributed sweep fabric tests: protocol, leases, manifests, recovery.

The load-bearing guarantees under test:

* campaign results are **bit-identical** to a serial ``run_batch`` of
  the same spec list, with or without worker deaths in between;
* a worker dying (a forked worker SIGKILLed holding its lease, or a
  client that drops its connection) or hanging (no heartbeat) returns
  its leased specs to the queue, bounded by the retry budget;
* a killed campaign **resumes with zero re-simulation** from its
  manifest + ledger + cache;
* the distributed conservation law holds: ``batch.sim.completions``
  summed across workers equals campaign completions minus cache hits;
* every campaign joins the workers it forked before it returns.
"""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.audit import check_fabric_counters
from repro.cli import main
from repro.errors import ReproError
from repro.experiments import (
    BATCH_COUNTERS,
    BatchFailure,
    CampaignManifest,
    Coordinator,
    ResultCache,
    RunSpec,
    reset_batch_counters,
    run_batch,
    run_campaign,
    run_simulation,
    specs_digest,
    use_cache,
)
from repro.experiments import fabric
from repro.experiments.dispatch import SpecSet
from repro.experiments.protocol import (
    ProtocolError,
    outcome_from_payload,
    outcome_to_payload,
    recv_message,
    send_message,
)


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_batch_counters()
    yield
    reset_batch_counters()


@pytest.fixture(autouse=True)
def _no_worker_left():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def small_result():
    return run_simulation("camel", "ooo", max_instructions=300)


def _specs(n=4, start=400, step=50):
    return [RunSpec("camel", max_instructions=start + step * i) for i in range(n)]


def _payloads(n=4):
    return [
        {"schema": "repro.spec/1", "workload": "camel", "max_instructions": 400 + 50 * i}
        for i in range(n)
    ]


POISONED = {"schema": "repro.spec/1", "workload": "no_such_workload"}


def _campaign(specs, **kw):
    """``run_campaign`` with forked workers; its books must balance."""
    kw.setdefault("workers", 2)
    kw.setdefault("lease_timeout", 10.0)
    kw.setdefault("timeout", 60.0)
    campaign = run_campaign(specs, **kw)
    assert campaign.conservation.passed, campaign.conservation.violations
    return campaign


class _Client:
    """Hand-rolled protocol client for precisely-ordered scenarios a
    forked Worker does not produce (deaths, hangs, reconnects, late
    results, stale beats)."""

    def __init__(self, address, worker="manual"):
        self.sock = socket.create_connection(address, timeout=10)
        send_message(self.sock, {"type": "hello", "worker": worker})
        self.welcome = recv_message(self.sock)

    def pull(self):
        send_message(self.sock, {"type": "pull"})
        return recv_message(self.sock)

    def heartbeat(self, lease):
        send_message(self.sock, {"type": "heartbeat", "lease": lease})

    def result(self, lease, key, outcome, completions):
        send_message(self.sock, {
            "type": "result",
            "lease": lease,
            "key": key,
            "outcome": outcome_to_payload(key, outcome),
            "sim_completions": completions,
        })
        return recv_message(self.sock)

    def serve(self):
        """Pull, simulate and report until the campaign is done, as a
        Worker does; the number of specs simulated."""
        completions = 0
        while (grant := self.pull())["type"] != "done":
            if grant["type"] == "wait":
                time.sleep(grant["seconds"])
                continue
            completions += 1
            self.result(grant["lease"], grant["key"], _simulate_grant(grant), completions)
        return completions

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def _simulate_grant(grant):
    return run_simulation(RunSpec.from_payload(grant["spec"]))


def _wait_counter(coordinator, name, minimum, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if coordinator.counters.snapshot().get(name, 0) >= minimum:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"{name} never reached {minimum}: {coordinator.fabric_snapshot()}"
    )


class TestProtocol:
    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"type": "hello", "worker": "w1", "blob": "x" * 5000})
            assert recv_message(b) == {"type": "hello", "worker": "w1", "blob": "x" * 5000}
            send_message(b, {"type": "ok"})
            assert recv_message(a) == {"type": "ok"}

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_message(b) is None

    def test_mid_frame_close_is_a_protocol_error(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x00\x00\x01\x00partial")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)

    def test_oversized_frame_is_rejected_by_both_sides(self):
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(ProtocolError, match="exceeds the cap"):
                send_message(a, {"type": "x", "blob": "y" * (64 * 1024 * 1024)})
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError, match="exceeds the cap"):
                recv_message(b)

    def test_non_object_message_is_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            blob = json.dumps([1, 2, 3]).encode()
            a.sendall(len(blob).to_bytes(4, "big") + blob)
            with pytest.raises(ProtocolError, match="object with a 'type'"):
                recv_message(b)

    def test_result_outcome_roundtrips_bit_identical(self, small_result):
        payload = outcome_to_payload("k" * 40, small_result)
        again = outcome_from_payload(json.loads(json.dumps(payload)))
        assert again == small_result
        assert again.counters == small_result.counters

    def test_failure_outcome_roundtrips(self):
        failure = BatchFailure(
            spec={"workload": "camel"}, error_type="WorkloadError",
            message="boom", traceback="tb", attempts=2,
        )
        again = outcome_from_payload(outcome_to_payload("k", failure))
        assert isinstance(again, BatchFailure)
        assert (again.error_type, again.message, again.attempts) == (
            "WorkloadError", "boom", 2,
        )

    def test_wrong_schema_document_is_rejected(self):
        with pytest.raises(ProtocolError, match="repro.batch-result/1"):
            outcome_from_payload({"schema": "something/9", "ok": True})


class TestCampaignManifest:
    def test_create_load_roundtrip(self, tmp_path):
        manifest = CampaignManifest.create(tmp_path, _specs(3))
        again = CampaignManifest.load(tmp_path)
        assert again.digest == manifest.digest == specs_digest(_specs(3))
        assert len(again.specs) == 3
        assert all(s["schema"] == "repro.spec/1" for s in again.specs)

    def test_digest_is_order_sensitive(self):
        specs = _specs(3)
        assert specs_digest(specs) != specs_digest(list(reversed(specs)))
        assert specs_digest(specs) == specs_digest([RunSpec.from_any(s) for s in specs])

    def test_spec_set_digest_is_the_manifest_digest(self):
        # A campaign takes its digest from the one parse it dispatches
        # from, in the bytes every existing manifest was written with.
        specs = [
            RunSpec("camel", max_instructions=400),
            {"schema": "repro.spec/1", "workload": "bfs", "input_name": "KR",
             "max_instructions": 300},
            {"workload": "nas_is", "technique": "dvr", "max_instructions": 300,
             "replay": "capture"},
            {"technique": "ooo"},
            dict(POISONED),
            {"workload": "camel", "bogus_field": 1},
            "not a spec",
        ]
        assert SpecSet(specs).digest() == specs_digest(specs)
        assert specs_digest(specs) == "094c81d5efaa4bf31a40e17f4be12701"

    def test_raw_dict_entries_survive_verbatim(self, tmp_path):
        manifest = CampaignManifest.create(tmp_path, [POISONED])
        assert CampaignManifest.load(tmp_path).specs == [POISONED]
        assert manifest.digest

    def test_ledger_last_entry_wins_and_torn_line_is_skipped(self, tmp_path):
        manifest = CampaignManifest.create(tmp_path, _specs(2))
        manifest.record("key-a", "fail", "w1")
        manifest.record("key-a", "ok", "w2")
        manifest.record("key-b", "ok", "w1")
        manifest.close()
        with open(manifest.ledger_path, "a") as handle:
            handle.write('{"key": "key-c", "sta')  # killed mid-append
        assert manifest.completed() == {"key-a": "ok", "key-b": "ok"}

    def test_status_summary(self, tmp_path):
        manifest = CampaignManifest.create(tmp_path, _specs(3))
        manifest.record("key-a", "ok")
        manifest.record("key-b", "fail")
        manifest.close()
        status = manifest.status()
        assert status["specs"] == 3
        assert (status["ok"], status["failed"]) == (1, 1)

    def test_load_missing_or_foreign_manifest_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no campaign manifest"):
            CampaignManifest.load(tmp_path / "nowhere")
        (tmp_path / "campaign.json").write_text(json.dumps({"schema": "x/1"}))
        with pytest.raises(ReproError, match="unsupported campaign schema"):
            CampaignManifest.load(tmp_path)


class TestCampaign:
    def test_bit_identical_to_serial_run_batch(self):
        specs = _specs(4)
        campaign = _campaign(specs)
        serial = run_batch(specs)
        assert [r.to_dict() for r in campaign.outcomes] == [r.to_dict() for r in serial]
        assert [r.counters for r in campaign.outcomes] == [r.counters for r in serial]
        assert campaign.fabric["fabric.completed"] == 4
        assert sum(campaign.worker_completions.values()) == 4

    def test_poisoned_spec_is_isolated_in_its_slot(self):
        specs = _payloads(2) + [dict(POISONED)] + _payloads(2)[1:]
        campaign = _campaign(specs)
        assert isinstance(campaign.outcomes[2], BatchFailure)
        assert campaign.outcomes[2].error_type == "WorkloadError"
        assert campaign.fabric["fabric.failed"] == 1

    def test_malformed_entry_is_a_parse_failure(self):
        campaign = _campaign([{"technique": "ooo"}] + _payloads(1))
        assert isinstance(campaign.outcomes[0], BatchFailure)
        assert campaign.fabric["fabric.parse_failures"] == 1

    def test_unresolvable_override_fails_only_its_slot(self):
        bogus = {"workload": "camel", "max_instructions": 400,
                 "overrides": {"bogus.field": 1}}
        campaign = _campaign(_payloads(1) + [bogus] + _payloads(2)[1:])
        outcomes = campaign.outcomes
        assert [type(o).__name__ for o in outcomes] == [
            "SimulationResult", "BatchFailure", "SimulationResult",
        ]
        assert outcomes[1].error_type == "ConfigError"
        assert "bogus.field" in outcomes[1].message
        assert outcomes[1].spec["overrides"] == {"bogus.field": 1}
        assert campaign.fabric["fabric.parse_failures"] == 1

    def test_duplicate_specs_simulate_once(self):
        spec = _payloads(1)[0]
        campaign = _campaign([spec, dict(spec), dict(spec)])
        assert campaign.fabric["fabric.dedup.reused"] == 2
        assert campaign.fabric["fabric.completed"] == 1
        assert campaign.outcomes[0].to_dict() == campaign.outcomes[2].to_dict()

    def test_worker_death_requeues_and_results_stay_identical(self, kill_pool_workers):
        # The forked worker that starts simulating nas_is is SIGKILLed
        # holding its lease; the spec goes back to the queue and the other
        # worker runs it. One victim spec, so only one worker ever dies.
        specs = _specs(2) + [RunSpec("nas_is", max_instructions=400)] + _specs(1, start=500)
        serial = run_batch(specs)  # before arming: the wrapper refuses this process
        kill_pool_workers(once=True, victim="nas_is")
        campaign = _campaign(specs)
        assert campaign.fabric["fabric.requeued"] == 1
        assert campaign.fabric["fabric.lost"] == 0
        assert campaign.fabric["fabric.workers"] == 2
        assert not campaign.failures
        assert [r.to_dict() for r in campaign.outcomes] == [r.to_dict() for r in serial]

    def test_retry_exhaustion_becomes_worker_death_failure(self):
        coordinator = Coordinator(_specs(1), retries=0, lease_timeout=10.0).start()
        try:
            doomed = _Client(coordinator.address)
            assert doomed.pull()["type"] == "spec"
            doomed.close()  # dies holding the lease
            outcomes = coordinator.wait(timeout=30.0)
        finally:
            coordinator.stop()
        failure = outcomes[0]
        assert isinstance(failure, BatchFailure)
        assert failure.error_type == "WorkerDeath"
        snapshot = coordinator.counters.snapshot()
        assert snapshot["fabric.lost"] == 1
        check = check_fabric_counters(snapshot, coordinator.worker_completions)
        assert check.passed, check.violations

    def test_hung_worker_lease_expires_and_spec_completes_elsewhere(self):
        coordinator = Coordinator(_specs(2), lease_timeout=0.4, poll=0.05).start()
        try:
            hung = _Client(coordinator.address, worker="hung")
            assert hung.pull()["type"] == "spec"  # then silent, connection open
            healthy = _Client(coordinator.address, worker="healthy")
            assert healthy.serve() == 2  # its own spec, then the expired one
            outcomes = coordinator.wait(timeout=30.0)
            healthy.close()
            hung.close()
        finally:
            coordinator.stop()
        assert not [o for o in outcomes if isinstance(o, BatchFailure)]
        snapshot = coordinator.counters.snapshot()
        assert snapshot["fabric.requeued"] == 1
        check = check_fabric_counters(snapshot, coordinator.worker_completions)
        assert check.passed, check.violations

    def test_heartbeats_keep_a_slow_simulation_leased(self):
        # ~0.6s of simulation against a 0.45s lease: only heartbeats
        # (every ~0.15s) keep the lease alive to completion.
        campaign = _campaign(
            [RunSpec("camel", max_instructions=60_000)],
            workers=1, lease_timeout=0.45,
        )
        assert not campaign.failures
        assert campaign.fabric["fabric.heartbeats"] >= 1
        assert campaign.fabric["fabric.requeued"] == 0

    def test_resumed_campaign_re_simulates_nothing(self, tmp_path):
        specs = _payloads(4)
        cache = ResultCache(tmp_path / "cache")
        first = _campaign(specs, cache=cache, manifest_dir=tmp_path / "camp")
        assert first.fabric["fabric.completed"] == 4
        reset_batch_counters()
        resumed = _campaign(specs, cache=cache, manifest_dir=tmp_path / "camp")
        assert resumed.fabric["fabric.resumed"] == 4
        assert resumed.fabric["fabric.dispatched"] == 0
        assert BATCH_COUNTERS.get("batch.sim.runs") == 0
        assert [r.to_dict() for r in resumed.outcomes] == [
            r.to_dict() for r in first.outcomes
        ]

    def test_resume_parses_each_entry_once(self, tmp_path, monkeypatch):
        kw = dict(cache=ResultCache(tmp_path / "cache"), manifest_dir=tmp_path / "camp")
        _campaign(_payloads(3), **kw)
        parsed = []
        from_payload = RunSpec.from_payload
        monkeypatch.setattr(RunSpec, "from_payload", staticmethod(
            lambda payload: parsed.append(payload) or from_payload(payload)
        ))
        resumed = _campaign(_payloads(3), **kw)
        assert resumed.fabric["fabric.resumed"] == 3
        assert len(parsed) == 3

    def test_shared_cache_without_ledger_counts_plain_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _payloads(2)
        run_batch(specs, cache=cache)
        campaign = _campaign(specs, cache=cache)
        assert campaign.fabric["fabric.cache.hits"] == 2
        assert campaign.fabric["fabric.dispatched"] == 0

    def test_cache_hits_are_ledgered_as_completions(self, tmp_path):
        # A campaign resolved entirely from a warm cache must still write
        # its completions to the manifest ledger: status reports them done
        # and the next resume classifies them as resumed, not as hits.
        cache = ResultCache(tmp_path / "cache")
        specs = _payloads(3)
        run_batch(specs, cache=cache)
        first = _campaign(specs, cache=cache, manifest_dir=tmp_path / "camp")
        assert first.fabric["fabric.cache.hits"] == 3
        manifest = CampaignManifest.load(tmp_path / "camp")
        assert manifest.status()["ok"] == 3
        again = _campaign(specs, cache=cache, manifest_dir=tmp_path / "camp")
        assert again.fabric["fabric.resumed"] == 3
        assert again.fabric["fabric.cache.hits"] == 0
        # Re-resuming does not grow the ledger with duplicate entries.
        lines = (tmp_path / "camp" / "ledger.jsonl").read_text().splitlines()
        assert len(lines) == 3

    def test_audited_campaign_leaves_the_cache_untouched(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("camel", max_instructions=500)
        campaign = _campaign([spec], cache=cache, audit=True)
        assert not campaign.failures
        assert campaign.outcomes[0].audit is not None
        assert cache.get(spec.key()) is None
        plain = run_batch([spec], cache=cache)[0]
        assert plain.audit is None
        assert plain.to_dict() == run_simulation(spec).to_dict()

    def test_stop_on_an_unfinished_coordinator_is_prompt(self):
        # The default 30 s lease ticks the monitor once a second; stop()
        # must not wait for that tick, nor for an accept poll.
        coordinator = Coordinator(_specs(1)).start()
        time.sleep(0.05)
        started = time.monotonic()
        coordinator.stop()
        assert time.monotonic() - started < 0.3
        assert coordinator.remaining() == 1

    def test_manifest_digest_mismatch_refuses_to_resume(self, tmp_path):
        _campaign(_payloads(2), manifest_dir=tmp_path)
        with pytest.raises(ReproError, match="different .* list"):
            _campaign(_payloads(3), manifest_dir=tmp_path)

    def test_process_workers_round_trip(self, tmp_path):
        campaign = _campaign(_payloads(2), workers=2, cache=ResultCache(tmp_path))
        assert not campaign.failures
        assert campaign.fabric["fabric.completed"] == 2
        assert sum(campaign.worker_completions.values()) == 2
        serial = run_batch(_payloads(2))
        assert [r.to_dict() for r in campaign.outcomes] == [r.to_dict() for r in serial]


class TestForkedWorkers:
    """``run_campaign`` forks each worker from the coordinator."""

    def test_forked_workers_ignore_the_ambient_cache(self, tmp_path):
        other = tmp_path / "other"
        with use_cache(ResultCache(other)):
            campaign = _campaign(_payloads(2))
        assert not campaign.failures
        assert sum(campaign.worker_completions.values()) == 2
        assert not [p for p in other.rglob("*") if p.is_file()]

    def test_no_campaign_thread_exists_at_a_fork(self, monkeypatch):
        before = threading.active_count()
        at_fork = []
        fork_worker = fabric._fork_worker

        def counting(*args):
            at_fork.append(threading.active_count())
            return fork_worker(*args)

        monkeypatch.setattr(fabric, "_fork_worker", counting)
        campaign = _campaign(_payloads(2))
        assert not campaign.failures
        assert at_fork == [before] * 2

    def test_workers_fork_with_the_simulator_loaded(self):
        # run_campaign imports the model only when specs are pending, and
        # before its first fork, so every worker inherits it. This test
        # process has long imported it, so the probe runs in a fresh one.
        code = (
            "import json, sys\n"
            "from repro.experiments import fabric\n"
            "runner = 'repro.experiments.runner'\n"
            "loaded = [runner in sys.modules]\n"
            "fork_worker = fabric._fork_worker\n"
            "def recording(*args):\n"
            "    loaded.append(runner in sys.modules)\n"
            "    return fork_worker(*args)\n"
            "fabric._fork_worker = recording\n"
            "campaign = fabric.run_campaign(\n"
            "    [{'workload': 'camel', 'max_instructions': 300}],\n"
            "    workers=2, timeout=60.0,\n"
            ")\n"
            "assert not campaign.failures\n"
            "print(json.dumps(loaded))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [False, True, True]

    def test_an_idle_fork_is_the_retry_spare(self, kill_pool_workers):
        # One spec, two forks: the one that runs it dies holding the
        # lease, and the other, which had nothing to run, reruns it. A
        # dead fork is never replaced, so the campaign forks ``workers``
        # even when fewer specs are pending.
        spec = RunSpec("camel", max_instructions=300)
        serial = run_batch([spec])  # before arming: the wrapper refuses this process
        kill_pool_workers(once=True)
        campaign = _campaign([spec], lease_timeout=5.0)
        assert campaign.fabric["fabric.requeued"] == 1
        assert campaign.fabric["fabric.lost"] == 0
        assert not campaign.failures
        assert multiprocessing.active_children() == []
        assert [r.to_dict() for r in campaign.outcomes] == [r.to_dict() for r in serial]

    def test_worker_that_cannot_connect_exits_with_one_line(self, capfd):
        # A coordinator that stopped before its forks connected (say, a
        # campaign timeout) leaves nothing listening on the port.
        with socket.create_server(("127.0.0.1", 0)) as server:
            address = server.getsockname()[:2]
        process = fabric._fork_worker(address, 0.05)
        process.join(timeout=10.0)
        assert not process.is_alive()
        assert process.exitcode == 1
        err = capfd.readouterr().err
        assert err.startswith("error: cannot reach coordinator") and err.count("\n") == 1

    def test_chaos_worker_death_is_requeued_and_every_child_reaped(
        self, kill_pool_workers, monkeypatch
    ):
        # The worker that starts nas_is is SIGKILLed holding its lease;
        # the campaign requeues the spec and joins both forks: the killed
        # one and the survivor, which exits cleanly once the queue drains.
        forked = []
        fork_worker = fabric._fork_worker

        def recording(*args):
            forked.append(fork_worker(*args))
            return forked[-1]

        monkeypatch.setattr(fabric, "_fork_worker", recording)
        specs = _specs(2) + [RunSpec("nas_is", max_instructions=400)] + _specs(1, start=500)
        serial = run_batch(specs)  # before arming: the wrapper refuses this process
        kill_pool_workers(once=True, victim="nas_is")
        campaign = _campaign(specs, lease_timeout=5.0)
        assert campaign.fabric["fabric.requeued"] == 1
        assert campaign.fabric["fabric.lost"] == 0
        assert len(forked) == 2
        assert not any(process.is_alive() for process in forked)
        assert sorted(process.exitcode for process in forked) == [-signal.SIGKILL, 0]
        assert multiprocessing.active_children() == []
        assert [r.to_dict() for r in campaign.outcomes] == [r.to_dict() for r in serial]


class TestFabricConservationCheck:
    BALANCED = {
        "fabric.specs": 6, "fabric.unique": 5, "fabric.dedup.reused": 1,
        "fabric.parse_failures": 1, "fabric.cache.hits": 1,
        "fabric.dispatched": 4, "fabric.completed": 3, "fabric.failed": 0,
        "fabric.lost": 0, "fabric.requeued": 1, "fabric.cancelled": 0,
        "fabric.ignored.ok": 0, "fabric.ignored.fail": 0, "fabric.leased": 0,
        "fabric.resumed": 0, "fabric.local": 0,
    }

    def test_balanced_books_pass(self):
        check = check_fabric_counters(self.BALANCED, {"w1": 2, "w2": 1})
        assert check.passed, check.violations

    def test_worker_completion_mismatch_is_flagged(self):
        check = check_fabric_counters(self.BALANCED, {"w1": 2, "w2": 2})
        assert not check.passed
        assert "workers report 4" in check.violations[0]

    def test_leaked_lease_is_flagged(self):
        books = dict(self.BALANCED, **{"fabric.requeued": 0})
        check = check_fabric_counters(books, {"w1": 3})
        assert any("lease endings" in v for v in check.violations)

    def test_unresolved_spec_is_flagged(self):
        books = dict(self.BALANCED, **{"fabric.cache.hits": 0})
        check = check_fabric_counters(books, {"w1": 3})
        assert any("specs in" in v for v in check.violations)


class TestCampaignCLI:
    def _write_specs(self, tmp_path, specs):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(specs))
        return str(path)

    def test_campaign_run_and_status(self, tmp_path, capsys):
        spec_file = self._write_specs(tmp_path, _payloads(3))
        code = main([
            "campaign", "run", spec_file, "--workers", "2",
            "--manifest", str(tmp_path / "camp"), "--cache", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr()
        assert code == 0
        assert "3/3 specs succeeded" in out.out
        assert "fabric stats : " in out.err
        assert "fabric.completed=3" in out.err

        code = main(["campaign", "status", str(tmp_path / "camp")])
        out = capsys.readouterr()
        assert code == 0
        assert "completed ok : 3" in out.out

        code = main(["campaign", "status", str(tmp_path / "camp"), "--json"])
        status = json.loads(capsys.readouterr().out)
        assert status["ok"] == 3 and status["specs"] == 3

    def _run(self, tmp_path, capsys, specs):
        """``campaign run`` of ``specs`` into a fresh manifest; exit code and output."""
        code = main([
            "campaign", "run", self._write_specs(tmp_path, specs),
            "--manifest", str(tmp_path / "camp"), "--cache", str(tmp_path / "cache"),
        ])
        return code, capsys.readouterr()

    def test_status_counts_a_repeated_spec_done_with_its_first_slot(self, tmp_path, capsys):
        camel = {"workload": "camel", "technique": "ooo", "max_instructions": 500}
        nas_is = dict(camel, workload="nas_is")
        code, out = self._run(tmp_path, capsys, [camel, dict(camel), nas_is])
        assert code == 0 and "3/3 specs succeeded" in out.out
        assert main(["campaign", "status", str(tmp_path / "camp")]) == 0
        status = capsys.readouterr().out
        assert "completed ok : 2" in status
        assert "remaining    : 0" in status

    def test_status_counts_a_malformed_slot_as_failed(self, tmp_path, capsys):
        valid = {"workload": "camel", "technique": "ooo", "max_instructions": 500}
        code, out = self._run(tmp_path, capsys, [dict(valid, bogus_field=1), valid])
        assert code == 1 and "1/2 specs succeeded" in out.out
        assert "fabric.parse_failures=1" in out.err
        assert "CONSERVATION" not in out.err
        assert main(["campaign", "status", str(tmp_path / "camp"), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert (status["ok"], status["failed"], status["remaining"]) == (1, 1, 0)

    def test_campaign_resume_from_manifest_alone(self, tmp_path, capsys):
        spec_file = self._write_specs(tmp_path, _payloads(2))
        assert main([
            "campaign", "run", spec_file, "--manifest", str(tmp_path / "camp"),
            "--cache", str(tmp_path / "cache"),
        ]) == 0
        capsys.readouterr()
        # No spec file this time: the manifest carries the spec list.
        code = main([
            "campaign", "run", "--manifest", str(tmp_path / "camp"),
            "--cache", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr()
        assert code == 0
        assert "fabric.resumed=2" in out.err
        assert "fabric.dispatched=0" in out.err

    def test_campaign_run_poisoned_spec_exits_one(self, tmp_path, capsys):
        spec_file = self._write_specs(tmp_path, [dict(POISONED)] + _payloads(1))
        code = main(["campaign", "run", spec_file])
        out = capsys.readouterr()
        assert code == 1
        assert "FAIL no_such_workload" in out.out
        assert "1/2 specs succeeded" in out.out
        assert "CONSERVATION" not in out.err

    def test_campaign_run_without_specs_or_manifest_is_usage_error(self, capsys):
        assert main(["campaign", "run"]) == 2
        assert "spec file is required" in capsys.readouterr().err

    def test_campaign_status_missing_manifest_is_an_error(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path / "nowhere")]) == 2
        assert "no campaign manifest" in capsys.readouterr().err


class TestReconnectBookkeeping:
    def test_reconnect_under_fixed_worker_id_sums_sessions(self):
        # Regression: max(previous, completions) collapsed two sessions'
        # running totals (1 then 1,2 counted as 2 sims, not 3), breaking
        # work conservation.
        coordinator = Coordinator(_specs(3), lease_timeout=30.0).start()
        try:
            first = _Client(coordinator.address, worker="fixed")
            grant = first.pull()
            first.result(grant["lease"], grant["key"], _simulate_grant(grant), 1)
            first.close()  # the worker process dies...

            second = _Client(coordinator.address, worker="fixed")  # ...and is restarted
            for completions in (1, 2):
                grant = second.pull()
                second.result(
                    grant["lease"], grant["key"], _simulate_grant(grant), completions
                )
            assert second.pull() == {"type": "done"}
            second.close()
            outcomes = coordinator.wait(timeout=30.0)
        finally:
            coordinator.stop()
        assert not [o for o in outcomes if isinstance(o, BatchFailure)]
        assert coordinator.worker_completions["fixed"] == 3
        check = check_fabric_counters(
            coordinator.fabric_snapshot(), coordinator.worker_completions
        )
        assert check.passed, check.violations


class TestHeartbeatCounters:
    def test_live_and_stale_beats_are_split(self):
        coordinator = Coordinator(_specs(1), lease_timeout=30.0).start()
        try:
            client = _Client(coordinator.address)
            grant = client.pull()
            client.heartbeat(grant["lease"])  # extends the live lease
            client.heartbeat(424242)  # unknown lease: extends nothing
            # Heartbeats are fire-and-forget; the result round-trip on
            # the same connection orders them before the assertion.
            client.result(grant["lease"], grant["key"], _simulate_grant(grant), 1)
            client.close()
            coordinator.wait(timeout=30.0)
        finally:
            coordinator.stop()
        snapshot = coordinator.fabric_snapshot()
        assert snapshot["fabric.heartbeats"] == 1
        assert snapshot["fabric.heartbeats.stale"] == 1


class TestServeClientErrorHandling:
    def test_unknown_message_type_drops_connection_and_counts(self):
        coordinator = Coordinator(_specs(1), lease_timeout=30.0).start()
        try:
            client = _Client(coordinator.address)
            send_message(client.sock, {"type": "frobnicate"})
            assert recv_message(client.sock) is None  # server hung up
            client.close()
            _wait_counter(coordinator, "fabric.protocol_errors", 1)
            # The coordinator survived: a fresh client still gets work.
            replacement = _Client(coordinator.address)
            assert replacement.pull()["type"] == "spec"
            replacement.close()
        finally:
            coordinator.stop()
        assert coordinator.fabric_snapshot()["fabric.protocol_errors"] == 1

    def test_handler_bug_propagates_to_thread_excepthook(self, monkeypatch):
        hooked = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: hooked.append(args.exc_type)
        )

        def broken_grant(self, worker_id, held):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(Coordinator, "_grant", broken_grant)
        coordinator = Coordinator(_specs(1), lease_timeout=30.0).start()
        try:
            client = _Client(coordinator.address)
            send_message(client.sock, {"type": "pull"})
            assert recv_message(client.sock) is None  # thread died, conn closed
            client.close()
            deadline = time.monotonic() + 10.0
            while not hooked and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            coordinator.stop()
        assert RuntimeError in hooked  # NOT swallowed by the wire-error net
        assert coordinator.fabric_snapshot()["fabric.protocol_errors"] == 0


class TestLateResults:
    def test_late_result_with_key_still_queued_resolves_the_spec(self):
        coordinator = Coordinator(
            _specs(1), lease_timeout=0.4, retries=2, poll=0.05
        ).start()
        try:
            slow = _Client(coordinator.address, worker="slow")
            grant = slow.pull()
            outcome = _simulate_grant(grant)
            _wait_counter(coordinator, "fabric.requeued", 1)  # lease expired
            # The late result lands while the spec sits requeued: it is
            # accepted once and the queued duplicate evaporates.
            slow.result(grant["lease"], grant["key"], outcome, 1)
            onlooker = _Client(coordinator.address, worker="onlooker")
            assert onlooker.pull() == {"type": "done"}
            onlooker.close()
            outcomes = coordinator.wait(timeout=30.0)
            slow.close()
        finally:
            coordinator.stop()
        assert not [o for o in outcomes if isinstance(o, BatchFailure)]
        snapshot = coordinator.fabric_snapshot()
        assert snapshot["fabric.late"] == 1
        assert snapshot["fabric.completed"] == 1
        assert snapshot["fabric.requeued"] == 1
        check = check_fabric_counters(snapshot, coordinator.worker_completions)
        assert check.passed, check.violations

    def test_late_result_with_second_live_lease_records_once(self):
        coordinator = Coordinator(
            _specs(1), lease_timeout=0.4, retries=2, poll=0.05
        ).start()
        try:
            slow = _Client(coordinator.address, worker="slow")
            grant = slow.pull()
            outcome = _simulate_grant(grant)
            _wait_counter(coordinator, "fabric.requeued", 1)
            fast = _Client(coordinator.address, worker="fast")
            regrant = fast.pull()  # second live lease on the same spec
            assert regrant["key"] == grant["key"]
            # Slow's result arrives first: recorded once, and the
            # redundant second lease is cancelled on the spot.
            slow.result(grant["lease"], grant["key"], outcome, 1)
            # Fast finishes anyway: its result is acknowledged but
            # ignored, never double-recorded.
            fast.result(regrant["lease"], regrant["key"], outcome, 1)
            outcomes = coordinator.wait(timeout=30.0)
            slow.close()
            fast.close()
        finally:
            coordinator.stop()
        assert len([o for o in outcomes if not isinstance(o, BatchFailure)]) == 1
        snapshot = coordinator.fabric_snapshot()
        assert snapshot["fabric.dispatched"] == 2
        assert snapshot["fabric.late"] == 2
        assert snapshot["fabric.completed"] == 1
        assert snapshot["fabric.cancelled"] == 1
        assert snapshot["fabric.ignored.ok"] == 1
        assert snapshot["fabric.leased"] == 0
        check = check_fabric_counters(snapshot, coordinator.worker_completions)
        assert check.passed, check.violations
