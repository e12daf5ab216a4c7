"""``repro bench --check`` holds through a slow phase of the host.

Each kernel's ``rel`` is its best throughput over the best of the
reference repeats run right before each of its own, so a host phase that
slows a kernel's repeats slows the reference repeats beside them too,
and the gate does not fail on code nobody touched. Fake kernels stand in
for the real ones: their seconds come from a host model that runs at
half speed for one window of calls.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import bench

REFERENCE = "functional_reference"

#: Host seconds per work unit of each fake kernel at full speed: the
#: baseline rels are 2.0 ("slowed") and 3.0 ("steady").
COST = {REFERENCE: 1.0, "slowed": 0.5, "steady": 1 / 3}


class SlowPhaseHost:
    """Runs at half speed from the first call after the reference's own
    ``repeats`` until the ``repeats``-th call of ``"slowed"``: a phase
    that covers that kernel's repeats and whatever runs between them."""

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats
        self.calls: list = []

    def kernel(self, name: str):
        def run(n: int):
            self.calls.append(name)
            slowed_calls = self.calls.count("slowed")
            slow = len(self.calls) > self.repeats and (
                slowed_calls < self.repeats
                or (name == "slowed" and slowed_calls == self.repeats)
            )
            return n, n * COST[name] * (2.0 if slow else 1.0)

        return run

    def kernels(self) -> dict:
        return {name: (self.kernel(name), 100, "instr") for name in COST}


def _baseline(tmp_path) -> str:
    path = tmp_path / "baseline.json"
    kernels = {
        name: {"unit": "instr", "work": 100, "seconds": 100 * cost,
               "ips": 1 / cost, "rel": COST[REFERENCE] / cost}
        for name, cost in COST.items()
    }
    path.write_text(json.dumps({"schema": bench.BENCH_SCHEMA, "kernels": kernels}))
    return str(path)


@pytest.mark.parametrize("repeats", (1, 3))
def test_slow_phase_over_one_kernel_passes_the_check(repeats, tmp_path, monkeypatch, capsys):
    host = SlowPhaseHost(repeats)
    monkeypatch.setattr(bench, "KERNELS", host.kernels())
    code = main(["bench", "--kernels", ",".join(COST), "--repeats", str(repeats),
                 "--check", _baseline(tmp_path), "--tolerance", "0.30"])
    err = capsys.readouterr().err
    assert code == 0, err
    assert "bench check  : ok (2 compared" in err


def test_rel_divides_by_the_reference_repeats_beside_each_kernel(monkeypatch):
    host = SlowPhaseHost(3)
    monkeypatch.setattr(bench, "KERNELS", host.kernels())
    payload = bench.run_bench(kernels=list(COST), repeats=3)
    rels = {name: entry["rel"] for name, entry in payload["kernels"].items()}
    assert rels == pytest.approx({REFERENCE: 1.0, "slowed": 2.0, "steady": 3.0})
    # One reference repeat before each repeat of every other kernel.
    assert host.calls == [REFERENCE] * 3 + [REFERENCE, "slowed"] * 3 + [
        REFERENCE, "steady"
    ] * 3
    # The slowed kernel's best run is slow: its absolute figure drops.
    assert payload["kernels"]["slowed"]["ips"] == pytest.approx(1.0)


def test_every_timed_call_follows_a_full_collection(monkeypatch):
    host = SlowPhaseHost(2)
    monkeypatch.setattr(bench, "KERNELS", host.kernels())

    class _GC:
        @staticmethod
        def collect():
            host.calls.append("gc")

    monkeypatch.setattr(bench, "gc", _GC, raising=False)
    bench.run_bench(kernels=list(COST), repeats=2)
    timed = host.calls[1::2]
    assert host.calls[0::2] == ["gc"] * len(timed)
    assert len(timed) == 2 + 4 + 4 and "gc" not in timed


def test_no_reference_means_no_rel(monkeypatch):
    host = SlowPhaseHost(1)
    monkeypatch.setattr(bench, "KERNELS", host.kernels())
    payload = bench.run_bench(kernels=["slowed", "steady"], repeats=1)
    assert all("rel" not in entry for entry in payload["kernels"].values())
    assert host.calls == ["slowed", "steady"]
