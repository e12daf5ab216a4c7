"""The expected output of every spec the benchmark's workloads run.

``expected.json`` maps :func:`common.doc_key` of each spec document to
the ``repro.stats/1`` digest and cycle count of its run.  The benchmark
compares every output it gets against this table; novel serve specs
from held-out data seeds, which the table cannot hold, are compared
against a serial ``run_simulation`` instead.

Regenerate after a change that is meant to alter simulated results::

    python3 perfbench/expected.py
"""

from __future__ import annotations

import json
import sys

import common


def all_specs():
    return (
        common.matrix_specs()
        + common.fig12_specs()
        + common.serve_hot_specs()
        + common.serve_novel_specs()
    )


def expected_entry(spec):
    """Run ``spec`` serially, live (no trace replay, no result cache)."""
    from repro import run_simulation, stats_payload

    result = run_simulation(spec, replay="off")
    body = common.stats_body(stats_payload(result))
    return {
        "spec": common.label(spec),
        "digest": common.body_digest(body),
        "cycles": result.cycles,
    }


def main() -> int:
    common.require_repro()
    entries = {}
    specs = all_specs()
    for index, spec in enumerate(specs):
        entries[common.doc_key(spec)] = expected_entry(spec)
        if index % 50 == 0:
            print(f"{index}/{len(specs)}", file=sys.stderr)
    payload = {
        "schema": "perfbench.expected/1",
        "note": "repro.stats/1 digest (blake2b-128 of the sorted-keys JSON"
        " document) and cycle count per spec document",
        "entries": entries,
    }
    common.EXPECTED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {common.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
