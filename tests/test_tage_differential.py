"""Differential test: the folded-history TAGE-lite against its oracle.

``TageLitePredictor`` keeps one folded-history register per table and
width and shifts it in O(1) per branch; ``tests/oracles/tage_reference``
recomputes every fold from the global history. Over random branch
streams and several predictor shapes, the two must agree on every
prediction, on the prediction and misprediction counters, and on the
contents of every table. The shapes include ``max_history`` beyond the
128-bit global history (a ``branch.max_history`` override reaches it),
where a fold register must clamp its window, and ``min_history=1``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BranchPredictorConfig
from repro.frontend import TageLitePredictor

from oracles.tage_reference import ReferenceTagePredictor

SHAPES = [
    BranchPredictorConfig(),
    BranchPredictorConfig(max_history=200),
    BranchPredictorConfig(min_history=1, max_history=300, num_tagged_tables=6),
    BranchPredictorConfig(min_history=1, max_history=7, num_tagged_tables=3),
    BranchPredictorConfig(num_tagged_tables=1, min_history=130, max_history=130),
    BranchPredictorConfig(
        bimodal_bits=4, tagged_entries_bits=3, tag_bits=3, min_history=2,
        max_history=128, num_tagged_tables=5,
    ),
]


def _tables(predictor):
    return [(t.tags, t.counters, t.useful) for t in predictor._tables]


def _drive(config, seed, branches, n_pcs, bias):
    """Feed one random stream to both predictors; compare as it goes."""
    rng = random.Random(seed)
    product = TageLitePredictor(config)
    reference = ReferenceTagePredictor(config)
    pcs = [rng.randrange(1 << 16) for _ in range(n_pcs)]
    # Per-PC behaviour: biased coins, loop exits and history patterns,
    # so the tagged tables allocate, hit and age entries.
    periods = [rng.randrange(1, 9) for _ in pcs]
    for step in range(branches):
        slot = rng.randrange(n_pcs)
        pc = pcs[slot]
        kind = slot % 3
        if kind == 0:
            taken = rng.random() < bias
        elif kind == 1:
            taken = step % periods[slot] != 0
        else:
            taken = bool(reference._history & (1 << periods[slot]))
        # A few update()s without their predict() take the re-probe path.
        if rng.random() < 0.05:
            predicted = rng.random() < 0.5
        else:
            predicted = product.predict(pc)
            assert reference.predict(pc) == predicted, (step, pc)
        product.update(pc, taken, predicted)
        reference.update(pc, taken, predicted)
    assert product.predictions == reference.predictions
    assert product.mispredictions == reference.mispredictions
    assert product._bimodal == reference._bimodal
    assert product._history == reference._history
    assert _tables(product) == _tables(reference)


@pytest.mark.parametrize(
    "config", SHAPES, ids=lambda c: f"h{c.min_history}-{c.max_history}x{c.num_tagged_tables}"
)
def test_long_stream_matches_the_oracle(config):
    _drive(config, seed=20, branches=6_000, n_pcs=24, bias=0.6)


@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 1 << 30),
    n_pcs=st.integers(1, 40),
    bias=st.floats(0.0, 1.0),
)
@settings(max_examples=25, deadline=None)
def test_random_streams_match_the_oracle(shape, seed, n_pcs, bias):
    _drive(shape, seed, branches=1_500, n_pcs=n_pcs, bias=bias)


def test_history_beyond_128_bits_clamps_the_fold_window():
    """Every table longer than the global history folds the same 128 bits."""
    predictor = TageLitePredictor(BranchPredictorConfig(max_history=200))
    lengths = [t.history_length for t in predictor._tables]
    assert lengths[-1] == 200
    assert all(t.out_shift == min(t.history_length, 128) - 1 for t in predictor._tables)
