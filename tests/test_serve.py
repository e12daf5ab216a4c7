"""``repro serve`` tests: single-flight, cache interplay, failure docs.

The load-bearing guarantees under test:

* N concurrent clients posting one novel spec cost exactly ONE
  simulation: ``serve.misses == 1``, ``serve.coalesced == N - 1``, and
  every response is byte-identical to a serial ``run_simulation`` of
  the same spec;
* a poisoned spec comes back as a structured ``repro.batch-result/1``
  failure document with the server still healthy afterwards;
* audited requests bypass the cache in both directions;
* a repeated body is answered from the server's memos without reading
  the cache, with the bytes of the first reply;
* the ``serve.request-conservation`` law balances at every snapshot.
"""

import errno
import http.client
import json
import pathlib
import threading
import time

import pytest

from repro.audit import check_serve_counters
from repro.cli import main
from repro.errors import ReproError
from repro.experiments import (
    BATCH_COUNTERS,
    ResultCache,
    RunSpec,
    ServerThread,
    SimulationServer,
    reset_batch_counters,
    run_load_test,
    run_simulation,
)
from repro.experiments import serve as serve_module
from repro.experiments.serve import (
    SERVE_COUNTER_NAMES,
    _dump,
    _get_json,
    _post_run,
)
from repro.observability.export import stats_payload, validate_stats

POISONED = {"schema": "repro.spec/1", "workload": "no_such_workload"}


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_batch_counters()
    yield
    reset_batch_counters()


def _spec(i=0, instructions=3000):
    return RunSpec("camel", max_instructions=instructions + 100 * i)


def _serve_snapshot():
    return {
        name: value
        for name, value in BATCH_COUNTERS.snapshot().items()
        if name.startswith("serve.")
    }


def _post_audit(address, body, timeout=120):
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        conn.request("POST", "/run?audit=1", body=body)
        response = conn.getresponse()
        return response.status, response.getheader("X-Repro-Served"), response.read()
    finally:
        conn.close()


def _serial_bytes(spec):
    return _dump(stats_payload(run_simulation(spec)))


class _CountingCache(ResultCache):
    """A result cache that counts its disk reads."""

    def __init__(self, root):
        super().__init__(root)
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return super().get(key)


class _FullDiskCache(ResultCache):
    """A result cache whose every store fails as on a full disk."""

    def put(self, key, result):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestSingleFlight:
    def test_n_clients_one_novel_spec_cost_one_simulation(self, tmp_path):
        spec = _spec()
        with ServerThread(cache=ResultCache(tmp_path), pool_size=2) as server:
            report = run_load_test(server.address, [spec], clients=6)
        assert report.ok, report.violations
        assert report.cold["serve.misses"] == 1
        assert report.cold["serve.coalesced"] == 5
        assert report.cold["serve.cache_hits"] == 0
        assert report.bit_identical

    def test_responses_are_valid_stats_documents(self, tmp_path):
        spec = _spec()
        with ServerThread(cache=ResultCache(tmp_path)) as server:
            status, served, body = _post_run(server.address, _dump(spec.to_payload()), 60)
        assert (status, served) == (200, "miss")
        payload = validate_stats(json.loads(body))
        serial = stats_payload(run_simulation(spec))
        assert payload == json.loads(_dump(serial))

    def test_second_request_is_a_cache_hit(self, tmp_path, monkeypatch):
        spec = _spec()
        body = _dump(spec.to_payload())
        cache = _CountingCache(tmp_path)
        keyed = []
        real_key = RunSpec.key
        monkeypatch.setattr(
            RunSpec, "key", lambda self, *a: keyed.append(self) or real_key(self, *a)
        )
        with ServerThread(cache=cache) as server:
            first = _post_run(server.address, body, 60)
            reads, keys = cache.gets, len(keyed)
            second = _post_run(server.address, body, 60)
        assert first[1] == "miss" and second[1] == "hit"
        # The repeat is answered from memory: no disk read, no keying.
        assert (cache.gets, len(keyed)) == (reads, keys)
        # Byte-identical across serving paths.
        assert first[2] == second[2] == _serial_bytes(spec)
        snapshot = _serve_snapshot()
        assert snapshot["serve.misses"] == 1
        assert snapshot["serve.cache_hits"] == 1

    def test_cache_is_shared_across_server_restarts(self, tmp_path):
        spec = _spec()
        body = _dump(spec.to_payload())
        with ServerThread(cache=ResultCache(tmp_path)) as server:
            first = _post_run(server.address, body, 60)
        cache = _CountingCache(tmp_path)
        with ServerThread(cache=cache) as server:
            second = _post_run(server.address, body, 60)
            reads = cache.gets
            third = _post_run(server.address, body, 60)
        assert (first[1], second[1], third[1]) == ("miss", "hit", "hit")
        # The fresh server reads the disk once, then answers from memory.
        assert (reads, cache.gets) == (1, 1)
        assert first[2] == second[2] == third[2]

    def test_conservation_law_balances_after_traffic(self, tmp_path):
        with ServerThread(cache=ResultCache(tmp_path)) as server:
            run_load_test(server.address, [_spec(), _spec(1)], clients=3)
            _post_run(server.address, _dump(POISONED), 60)
            verdict = check_serve_counters(_serve_snapshot())
        assert verdict.passed, verdict.violations
        snapshot = _serve_snapshot()
        assert snapshot["serve.requests"] == snapshot["serve.cache_hits"] + (
            snapshot["serve.coalesced"] + snapshot["serve.misses"]
        )

    def test_counter_book_is_precreated(self):
        with ServerThread():
            pass
        assert set(SERVE_COUNTER_NAMES) <= set(_serve_snapshot())


class TestFailureDocuments:
    def test_poisoned_spec_returns_structured_failure(self):
        with ServerThread(pool_size=1) as server:
            status, served, body = _post_run(server.address, _dump(POISONED), 60)
            doc = json.loads(body)
            assert (status, served) == (422, "miss")
            assert doc["schema"] == "repro.batch-result/1"
            assert doc["failure"]["error_type"] == "WorkloadError"
            assert "no_such_workload" in doc["failure"]["message"]
            # The isolation boundary held: the same server still serves.
            status, served, _body = _post_run(
                server.address, _dump(_spec().to_payload()), 60
            )
            assert (status, served) == (200, "miss")
            health = _get_json(server.address, "/healthz")
        assert health["status"] == "ok"
        assert health["counters"]["serve.failures"] == 1
        assert health["conservation"]["passed"]

    @pytest.mark.parametrize("entry", [
        {"schema": "repro.spec/1", "workload": "camel", "size": "Tiny"},
        {"schema": "repro.spec/1", "workload": "bfs", "size": "tiny", "input_name": "bogus"},
    ])
    def test_bad_workload_identity_is_a_structured_failure(self, entry):
        with ServerThread(pool_size=1) as server:
            status, served, body = _post_run(server.address, _dump(entry), 60)
            health = _get_json(server.address, "/healthz")
        doc = json.loads(body)
        assert (status, served) == (422, "miss")
        assert doc["schema"] == "repro.batch-result/1"
        assert doc["failure"]["error_type"] == "WorkloadError"
        assert health["status"] == "ok"
        assert health["conservation"]["passed"]

    def test_killed_pool_worker_is_a_422_and_the_pool_rebuilds(
        self, kill_pool_workers
    ):
        kill_pool_workers(once=True)
        body = _dump(_spec().to_payload())
        with ServerThread(pool_size=1) as server:
            status, served, first = _post_run(server.address, body, 60)
            assert (status, served) == (422, "miss")
            assert json.loads(first)["failure"]["error_type"] == "BrokenProcessPool"
            status, served, _body = _post_run(server.address, body, 60)
            assert (status, served) == (200, "miss")
            health = _get_json(server.address, "/healthz")
        assert health["status"] == "ok"
        assert health["counters"]["serve.failures"] == 1

    def test_unparsable_body_is_a_classified_miss(self):
        with ServerThread() as server:
            status, served, body = _post_run(server.address, b"{not json", 60)
        doc = json.loads(body)
        assert (status, served) == (400, "miss")
        assert doc["schema"] == "repro.batch-result/1"
        snapshot = _serve_snapshot()
        assert snapshot["serve.requests"] == 1
        assert snapshot["serve.misses"] == 1
        assert snapshot["serve.failures"] == 1
        assert check_serve_counters(snapshot).passed

    def test_unknown_spec_field_is_rejected_not_fatal(self):
        entry = {"schema": "repro.spec/1", "workload": "camel", "bogus_knob": 7}
        with ServerThread() as server:
            status, _served, body = _post_run(server.address, _dump(entry), 60)
            health = _get_json(server.address, "/healthz")
        assert status == 400
        assert json.loads(body)["schema"] == "repro.batch-result/1"
        assert health["status"] == "ok"


class TestAuditRequests:
    def test_audit_carries_record_and_bypasses_cache(self, tmp_path):
        spec = _spec(instructions=1000)
        body = _dump(spec.to_payload())
        cache = ResultCache(tmp_path)
        with ServerThread(cache=cache) as server:
            plain = _post_run(server.address, body, 120)
            assert plain[1] == "miss"
            # The cache and the server's memory now hold the result,
            # but an audited request must re-execute: it cannot be
            # served as a hit.
            assert _post_run(server.address, body, 120)[1] == "hit"
            _status, served, audited = _post_audit(server.address, body)
            assert served == "miss"
            # ...and it must not poison either for plain requests.
            again = _post_run(server.address, body, 120)
            documents = dict(server._documents)
        assert again[1] == "hit" and again[2] == plain[2]
        audited = json.loads(audited)
        assert audited["audit"]["passed"] is True
        assert audited["audit"]["checks"]
        assert "audit" not in json.loads(plain[2])
        assert documents == {spec.key(): plain[2]}


class TestRequestMemos:
    def test_without_a_cache_every_repeat_simulates(self):
        body = _dump(_spec().to_payload())
        with ServerThread(cache=None) as server:
            replies = [_post_run(server.address, body, 60) for _ in range(3)]
            documents = dict(server._documents)
        assert [served for _status, served, _body in replies] == ["miss"] * 3
        assert len({reply for _status, _served, reply in replies}) == 1
        assert documents == {}
        assert _serve_snapshot()["serve.misses"] == 3

    def test_memos_stay_at_their_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serve_module, "_MEMO_ENTRIES", 2)
        specs = [_spec(i, instructions=1000) for i in range(4)]
        bodies = [_dump(spec.to_payload()) for spec in specs]
        cache = _CountingCache(tmp_path)
        with ServerThread(cache=cache) as server:
            first = [_post_run(server.address, body, 60) for body in bodies]
            sizes = [(len(server._identities), len(server._documents))]
            reads = cache.gets
            # Oldest out first: cycling through twice the bound evicts
            # every key before its repeat, which then reads the disk.
            again = [_post_run(server.address, body, 60) for body in bodies]
            sizes.append((len(server._identities), len(server._documents)))
        assert sizes == [(2, 2), (2, 2)]
        assert [r[1] for r in first] == ["miss"] * 4
        assert [r[1] for r in again] == ["hit"] * 4
        assert cache.gets - reads == 4
        assert [r[2] for r in again] == [r[2] for r in first]
        assert again[0][2] == _serial_bytes(specs[0])

    def test_a_long_body_is_served_but_not_memoised(self, tmp_path):
        spec = _spec()
        body = _dump(spec.to_payload()) + b" " * serve_module._MEMO_BODY_BYTES
        with ServerThread(cache=ResultCache(tmp_path)) as server:
            first = _post_run(server.address, body, 60)
            second = _post_run(server.address, body, 60)
            identities = dict(server._identities)
        assert (first[1], second[1]) == ("miss", "hit")
        assert first[2] == second[2] == _serial_bytes(spec)
        assert identities == {}

    def test_request_law_balances_after_mixed_traffic(self, tmp_path):
        hot, novel = _spec(), _spec(1)
        hot_body = _dump(hot.to_payload())
        with ServerThread(cache=ResultCache(tmp_path)) as server:
            run_load_test(server.address, [novel], clients=3)
            for body in (hot_body, hot_body, hot_body + b" " * 5000,
                         b"{not json", _dump(POISONED)):
                _post_run(server.address, body, 60)
            _post_audit(server.address, hot_body)
            _post_run(server.address, hot_body, 60)
            health = _get_json(server.address, "/healthz")
        assert health["conservation"]["passed"], health["conservation"]
        counters = health["counters"]
        assert counters["serve.requests"] == 13
        assert counters["serve.cache_hits"] == 6  # 3 warm + 3 repeats of hot
        assert counters["serve.coalesced"] == 2
        assert counters["serve.misses"] == 5  # novel, hot, junk, poison, audit
        assert counters["serve.failures"] == 2
        assert counters["serve.inflight"] == 0


class TestFlightFaults:
    def test_a_failing_store_still_answers_and_ends_the_flight(
        self, tmp_path, capsys
    ):
        spec = _spec()
        body = _dump(spec.to_payload())
        with ServerThread(cache=_FullDiskCache(tmp_path)) as server:
            # Short timeouts: a stranded flight hangs these requests.
            first = _post_run(server.address, body, 30)
            second = _post_run(server.address, body, 10)
            health = _get_json(server.address, "/healthz")
        assert (first[:2], second[:2]) == ((200, "miss"), (200, "hit"))
        assert first[2] == second[2] == _serial_bytes(spec)
        assert health["counters"]["serve.inflight"] == 0
        assert health["conservation"]["passed"]
        err = capsys.readouterr().err
        assert spec.key() in err and "No space left on device" in err

    def test_an_internal_error_is_a_500_with_its_traceback(
        self, tmp_path, monkeypatch, capsys
    ):
        real = serve_module.stats_payload
        calls = []

        def export_once_broken(result):
            calls.append(result)
            if len(calls) == 1:
                raise RuntimeError("injected export fault")
            return real(result)

        monkeypatch.setattr(serve_module, "stats_payload", export_once_broken)
        spec = _spec()
        body = _dump(spec.to_payload())
        with ServerThread(cache=ResultCache(tmp_path)) as server:
            broken = _post_run(server.address, body, 60)
            fine = _post_run(server.address, body, 60)
            health = _get_json(server.address, "/healthz")
        assert broken[0] == 500
        assert json.loads(broken[2]) == {"error": "internal error"}
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: injected export fault" in err
        assert fine[:2] == (200, "miss")
        assert fine[2] == _serial_bytes(spec)
        assert health["conservation"]["passed"]
        assert health["counters"]["serve.inflight"] == 0


class TestEndpoints:
    def test_healthz_reports_pool_and_conservation(self):
        with ServerThread(pool_size=3) as server:
            health = _get_json(server.address, "/healthz")
        assert health["schema"] == "repro.healthz/1"
        assert health["pool"] == {"workers": 3, "inflight": 0, "queued": 0}
        assert health["conservation"]["name"] == "serve.request-conservation"
        assert set(SERVE_COUNTER_NAMES) <= set(health["counters"])

    def test_progress_tracks_an_inflight_run(self):
        spec = _spec(instructions=120_000)  # comfortably slow (~1 s)
        key = spec.key()
        with ServerThread(pool_size=1) as server:
            poster = threading.Thread(
                target=_post_run,
                args=(server.address, _dump(spec.to_payload()), 120),
                daemon=True,
            )
            poster.start()
            progress = None
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                progress = _get_json(server.address, f"/progress/{key}")
                if progress["state"] == "inflight":
                    break
                time.sleep(0.005)
            assert progress is not None and progress["state"] == "inflight"
            assert progress["schema"] == "repro.progress/1"
            assert progress["waiters"] >= 1
            assert progress["elapsed_seconds"] >= 0
            assert progress["counters"]["serve.inflight"] == 1
            poster.join(timeout=120)
        assert _serve_snapshot()["serve.inflight"] == 0

    def test_progress_unknown_key_is_404(self):
        with ServerThread() as server:
            conn = http.client.HTTPConnection(*server.address, timeout=10)
            conn.request("GET", "/progress/deadbeef")
            response = conn.getresponse()
            doc = json.loads(response.read())
            conn.close()
        assert response.status == 404
        assert doc["state"] == "unknown"

    def test_unknown_route_and_wrong_method(self):
        with ServerThread() as server:
            conn = http.client.HTTPConnection(*server.address, timeout=10)
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
            conn.close()
            conn = http.client.HTTPConnection(*server.address, timeout=10)
            conn.request("GET", "/run")
            assert conn.getresponse().status == 405
            conn.close()

    def test_garbage_on_the_port_does_not_kill_the_server(self):
        import socket

        with ServerThread() as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(b"\x00garbage\r\n\r\n")
                sock.recv(4096)
            status, _served, _body = _post_run(
                server.address, _dump(_spec().to_payload()), 60
            )
        assert status == 200


class TestLoadHarness:
    def test_harness_rejects_degenerate_setups(self):
        with pytest.raises(ReproError, match="at least one spec"):
            run_load_test(("127.0.0.1", 1), [], clients=4)
        with pytest.raises(ReproError, match=">= 2 clients"):
            run_load_test(("127.0.0.1", 1), [_spec()], clients=1)

    def test_warm_volley_without_cache_is_flagged(self):
        # No cache: the warm volley re-simulates (one miss per spec),
        # which the harness must report as a violation, not hide.
        with ServerThread(cache=None) as server:
            report = run_load_test(server.address, [_spec()], clients=2)
        assert not report.ok
        assert any("warm volley" in v for v in report.violations)


class TestServeCLI:
    def test_load_test_mode_passes_and_emits_stats(self, capsys):
        exit_code = main(["serve", "--load-test", "4x2", "--pool", "2"])
        out = capsys.readouterr()
        assert exit_code == 0
        assert "bit-identical: yes" in out.out
        assert "conservation : ok" in out.out
        assert "serve stats" in out.err
        assert "serve.coalesced=6" in out.err

    def test_load_test_mode_rejects_bad_shape(self, capsys):
        assert main(["serve", "--load-test", "nonsense"]) == 2
        assert "CLIENTSxSPECS" in capsys.readouterr().err

    def test_daemon_mode_stops_gracefully_on_sigterm(self, tmp_path):
        # Daemon deployments stop the server with SIGTERM (docker stop,
        # systemd, the CI smoke job): it must serve until the signal,
        # then exit 0 with the final stats line on stderr.  SIGINT is
        # ignored by default in children of non-interactive shells, so
        # the graceful path must not depend on KeyboardInterrupt.
        import os
        import signal
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        repo_src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                _sys.executable, "-m", "repro", "serve",
                "--port", "0", "--pool", "1",
                "--cache", str(tmp_path / "cache"),
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stderr.readline()
            assert "serving on http://" in banner, banner
            host_port = banner.split("http://", 1)[1].split(" ", 1)[0]
            host, _, port = host_port.partition(":")
            status, served, body = _post_run(
                (host, int(port)),
                _dump(_spec(instructions=2000).to_payload()),
                timeout=120.0,
            )
            assert status == 200 and served == "miss"
            assert json.loads(body)["schema"] == "repro.stats/1"
            proc.send_signal(signal.SIGTERM)
            stderr = proc.stderr.read()
            assert proc.wait(timeout=30) == 0
            assert "serve stats" in stderr
            assert "serve.requests=1" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
