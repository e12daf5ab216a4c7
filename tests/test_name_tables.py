"""The name tables cannot drift from the model they name.

Spec keys, the CLI parser and ``repro list`` read technique and
workload names, pins, input sizes and input-name acceptance from
tables that import no model code (``repro.techniques``,
``repro.workloads.registry``, ``repro.workloads.profiles``). These
tests build or inspect the model behind every entry and hold each table
to it.
"""

from __future__ import annotations

import inspect

import pytest

import repro.workloads
from repro.techniques import make_technique, technique_names, technique_pins
from repro.workloads import graphs, profiles
from repro.workloads.gap import gap_builders
from repro.workloads.hpc_db import hpc_db_builders
from repro.workloads.registry import (
    GAP_WORKLOADS,
    SIZES,
    WORKLOAD_NAMES,
    workload_accepts_input_name,
    workload_builder,
)


@pytest.mark.parametrize("name", technique_names())
def test_technique_table_matches_what_make_technique_builds(name):
    technique = make_technique(name)
    assert technique.name == name
    assert dict(technique.config_pins) == dict(technique_pins(name))


def test_every_builder_is_named_once():
    gap, hpc_db = gap_builders(), hpc_db_builders()
    assert not set(gap) & set(hpc_db)
    assert sorted(WORKLOAD_NAMES) == sorted({**gap, **hpc_db})
    assert len(WORKLOAD_NAMES) == len(set(WORKLOAD_NAMES))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_table_matches_the_builder_signature(name):
    parameters = inspect.signature(workload_builder(name)).parameters
    assert workload_accepts_input_name(name) == ("input_name" in parameters)
    assert parameters["size"].default in SIZES
    assert "seed" in parameters


def test_the_graph_kernels_and_graph500_take_an_input_name():
    accepting = {name for name in WORKLOAD_NAMES if workload_accepts_input_name(name)}
    assert accepting == set(GAP_WORKLOADS) | {"graph500"}


def test_graph_profiles_are_the_table_make_graph_reads(monkeypatch):
    assert graphs.GRAPH_PROFILES is profiles.GRAPH_PROFILES
    assert repro.workloads.GRAPH_PROFILES is profiles.GRAPH_PROFILES
    # make_graph builds from whatever the table says at call time.
    monkeypatch.setitem(
        profiles.GRAPH_PROFILES, "TINY",
        {"kind": "uniform", "n": 64, "avg_degree": 2, "seed": 1},
    )
    assert graphs.make_graph("TINY").num_nodes == 64
