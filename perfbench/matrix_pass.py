"""One table-matrix pass in a fresh interpreter, as a ``repro`` user runs it.

Usage: ``matrix_pass.py SPECS OUT [--cache DIR] [--fill-cache DIR]``

Runs each spec of the JSON list ``SPECS`` with ``run_simulation``, in
order, and turns each result into its ``repro.stats/1`` document and
digest: one operation is "RunSpec in, stats document out".  Writes the
start-up timestamp, each operation's times and outputs, and the
documents to ``OUT``.  ``--cache DIR`` serves the specs from a result
cache (the resume pass); ``--fill-cache DIR`` stores the results there
after the timed loop.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "hook"))

import common  # noqa: E402
import pb_spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("specs")
    parser.add_argument("out")
    parser.add_argument("--cache")
    parser.add_argument("--fill-cache")
    args = parser.parse_args()

    common.require_repro()
    from repro import RunSpec, run_simulation, stats_payload
    from repro.experiments.cache import ResultCache, use_cache

    with open(args.specs) as handle:
        specs = [RunSpec.from_payload(doc) for doc in json.load(handle)]
    ready = time.perf_counter()

    run = run_simulation
    export = stats_payload
    tool = pb_spans.install()
    if isinstance(tool, pb_spans.Recorder):
        run = tool.wrap("runner.run_simulation", run_simulation)
        export = tool.wrap("export.stats", stats_payload)

    cache = ResultCache(args.cache) if args.cache else None
    ops, documents, results = [], [], []
    with use_cache(cache):
        for spec in specs:
            start = time.perf_counter()
            result = run(spec)
            payload = export(result)
            digest = common.body_digest(common.stats_body(payload))
            end = time.perf_counter()
            ops.append({
                "key": common.doc_key(spec),
                "digest": digest,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "start": start,
                "end": end,
            })
            documents.append(payload)
            results.append(result)
    if tool is not None:
        tool.write()
    if args.fill_cache:
        store = ResultCache(args.fill_cache)
        for spec, result in zip(specs, results):
            store.put(spec.key(), result)
    Path(args.out).write_text(
        json.dumps({"ready": ready, "ops": ops, "documents": documents})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
