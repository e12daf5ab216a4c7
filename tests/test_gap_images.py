"""Golden GAP images: ``MemoryImage.digest()`` of every GAP build.

The six GAP builders × the five Table 2 inputs × {default, tiny} ×
data seeds {None, 1, 101} give 180 images. Their digests pin the whole
graph pipeline (generator, CSR layout, BFS frontier, sssp's weights)
and the image contract (segment names, bases, contents as int64 words),
so a change to how an input is built or held must leave every one of
them unchanged. The loop builds each input once and every builder over
it before the next, so the memo builds 30 inputs in all.

When a change to the inputs is intentional, regenerate the references
with::

    PYTHONPATH=src python -m pytest tests/test_gap_images.py --update-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.workloads.gap import gap_builders
from repro.workloads.profiles import GRAPH_PROFILES

GOLDEN_PATH = Path(__file__).parent / "golden" / "gap_images.json"

SIZES = ("default", "tiny")
SEEDS = (None, 1, 101)


def _digests() -> dict:
    builders = sorted(gap_builders().items())
    digests = {}
    for profile in sorted(GRAPH_PROFILES):
        for size in SIZES:
            for seed in SEEDS:
                for name, build in builders:
                    image = build(profile, size, seed).memory
                    digests[f"{name}/{profile}/{size}/seed={seed}"] = image.digest()
    return digests


def test_gap_image_digests_match_golden(update_goldens):
    digests = _digests()
    assert len(digests) == 180
    if update_goldens:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return
    assert GOLDEN_PATH.exists(), "no golden GAP images; run with --update-goldens"
    goldens = json.loads(GOLDEN_PATH.read_text())
    drifted = sorted(key for key in goldens.keys() | digests.keys()
                     if goldens.get(key) != digests.get(key))
    assert not drifted, f"{len(drifted)} GAP images drifted from golden: {drifted[:6]}"
