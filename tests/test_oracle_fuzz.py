"""Differential fuzzing: the product kernels vs the test oracles.

Hypothesis draws random terminating programs (``_random_program`` from
``test_robustness``, with or without a striding load for the vector
engines to chain off) and runs each one under the plain baseline and
every technique twice: through ``OoOCore.run`` and through the
reference loop in ``tests/oracles``. The runs must agree bit for bit —
cycles, instructions, trace digest, and every counter outside
``core.sched.*``. For VR and DVR the chaining-off slice engine is also
run against the reference vector executor, which must match it exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OoOCore
from repro.observability.probes import Observability
from repro.techniques import make_technique

from conftest import quick_config
from oracles import assert_same_run
from oracles.ooo_reference import run_reference
from oracles.vector_reference import use_reference_engine
from test_robustness import _TECHNIQUES, _random_program

LIMIT = 800


def _run(seed, striding, technique, *, reference_core=False,
         reference_engine=False, chaining=True):
    rng = np.random.default_rng(seed)
    program, mem = _random_program(
        rng, int(rng.integers(4, 16)), 2, 256, striding=striding
    )
    cfg = quick_config(LIMIT)
    cfg = cfg.with_runahead(replace(cfg.runahead, vector_chaining=chaining))
    with pytest.MonkeyPatch.context() as mp:
        if reference_engine:
            use_reference_engine(mp)
        core = OoOCore(
            program,
            mem,
            cfg,
            technique=make_technique(technique, cfg),
            observability=Observability(trace=True),
        )
        return run_reference(core) if reference_core else core.run()


@given(seed=st.integers(0, 10_000), striding=st.booleans())
@settings(max_examples=4, deadline=None)
def test_random_programs_match_the_oracles(seed, striding):
    for technique in ("ooo", *_TECHNIQUES):
        product = _run(seed, striding, technique)
        assert product.trace_digest is not None
        oracle = _run(seed, striding, technique, reference_core=True)
        assert_same_run(oracle, product)
        if technique in ("vr", "dvr"):
            slices = _run(seed, striding, technique, chaining=False)
            oracle = _run(
                seed, striding, technique, chaining=False, reference_engine=True
            )
            assert dict(slices.counters) == dict(oracle.counters)
            assert_same_run(oracle, slices)
