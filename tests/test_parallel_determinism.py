"""Parallel batches must be bit-identical to serial execution.

The simulator is deterministic and every ``run_batch`` spec is hermetic
(fresh workload, fresh core), so a process pool may not change any
result — including the full observability counter snapshot and the
event-trace digest, which fold in every microarchitectural event.
Also covers the ``jobs`` argument validation.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.experiments import run_batch

_SPECS = [
    {"workload": "camel", "technique": "vr", "max_instructions": 1200},
    {"workload": "camel", "technique": "dvr", "max_instructions": 1200},
    {"workload": "nas_is", "technique": "ooo", "max_instructions": 1200},
    {"workload": "nas_is", "technique": "pre", "max_instructions": 1200},
]


def _traced(specs):
    return [dict(spec, trace=True) for spec in specs]


def test_parallel_bit_identical_to_serial():
    serial = run_batch(_traced(_SPECS), jobs=1)
    parallel = run_batch(_traced(_SPECS), jobs=4)
    assert len(serial) == len(parallel) == len(_SPECS)
    for s, p in zip(serial, parallel):
        assert s.to_dict() == p.to_dict()


def test_parallel_counter_snapshots_identical():
    serial = run_batch(_SPECS, jobs=1)
    parallel = run_batch(_SPECS, jobs=4)
    for s, p in zip(serial, parallel):
        assert s.counters == p.counters
        assert len(s.counters) > 0


def test_parallel_trace_digests_identical():
    serial = run_batch(_traced(_SPECS), jobs=1)
    parallel = run_batch(_traced(_SPECS), jobs=4)
    for s, p in zip(serial, parallel):
        assert s.trace_digest is not None
        assert s.trace_digest == p.trace_digest
        assert s.trace_events == p.trace_events


@pytest.mark.parametrize("jobs", [-1, -7, 0])
def test_run_batch_rejects_nonpositive_jobs(jobs):
    with pytest.raises(ReproError):
        run_batch(_SPECS[:1], jobs=jobs)


@pytest.mark.parametrize("jobs", [2.0, "4", True])
def test_run_batch_rejects_non_integer_jobs(jobs):
    with pytest.raises(ReproError):
        run_batch(_SPECS[:1], jobs=jobs)


def test_run_batch_accepts_none_and_positive_ints():
    none_result = run_batch(_SPECS[:1], jobs=None)
    one_result = run_batch(_SPECS[:1], jobs=1)
    assert none_result[0].to_dict() == one_result[0].to_dict()
