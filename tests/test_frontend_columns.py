"""The front end as columns of the stream (``repro.frontend.columns``).

TAGE-lite and the L1 stride prefetcher's table see only the
architectural stream, so the timing kernel reads their outputs as
columns trained once per (stream, front-end config). Checked here:

* every chunk's column equals a live predictor and stride table walked
  over ``step_reference``'s stream — over ``test_predecode_replay``'s
  random programs and three workloads, at chunk sizes 1, 3 and the
  default;
* runs that share one memoised stream under several front ends, in two
  orders, are bit-identical to ``replay="off"`` runs of the same specs,
  so no front end reads another's columns;
* a run that is not memoised holds at most one chunk's columns, a
  memoised stream whose last chunk has its column keeps no predictor or
  stride table, and a training step that raises leaves nothing
  half-trained for the next run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.functional as functional
from repro.config import SimConfig
from repro.core import FunctionalCore, OoOCore
from repro.experiments import RunSpec, run_simulation
from repro.frontend import TageLitePredictor
from repro.frontend.columns import frontend_columns
from repro.isa import ProgramBuilder
from repro.isa.predecode import K_BEZ, K_BNZ, K_LOAD, K_STORE
from repro.memory import MemoryImage
from repro.perf.trace import CHUNK, ArchTrace, arch_trace_key, clear_trace_memo, load_trace
from repro.prefetch.stride import StridePrefetcher
from repro.workloads import build_workload

from test_predecode_replay import _body_item, _build
from test_stream_stage import CHUNK_SIZES, _consume

#: Small-table front end: the stride table's LRU evicts on every workload.
SMALL_TABLE = SimConfig(stride_prefetcher_streams=2)


def _live(program, mem, config, limit):
    """A live TAGE-lite and stride table walked over ``step_reference``'s
    stream: per instruction, the mispredict flag (1 at a mispredicted
    conditional branch, else 0) and the confident stride (at a load,
    else 0)."""
    ref = FunctionalCore(program, mem)
    predictor = TageLitePredictor(config.branch)
    table = StridePrefetcher(streams=config.stride_prefetcher_streams)
    flags, strides = [], []
    while ref.executed < limit:
        dyn = ref.step_reference()
        if dyn is None:
            break
        flag = stride = 0
        if dyn.taken is not None:
            predicted = predictor.predict(dyn.pc)
            predictor.update(dyn.pc, dyn.taken, predicted)
            flag = int(predicted != dyn.taken)
        elif dyn.instr.is_load and config.stride_prefetcher_enabled:
            stride = table.observe(dyn.pc, dyn.addr)
        flags.append(flag)
        strides.append(stride)
    return flags, strides


def _columns(program, stream, config):
    """Train ``stream``'s front-end columns chunk by chunk, decoded to
    :func:`_live`'s form."""
    kinds = program.decoded().kinds
    frontend = frontend_columns(stream, config)
    flags, strides = [], []
    for index, chunk in enumerate(stream.chunks):
        codes, confident = frontend.column(index, chunk, kinds)
        assert len(codes) == len(chunk[0]) and confident[0] == 0
        for pc, code in zip(chunk[0], codes):
            kind = kinds[pc]
            load = kind == K_LOAD
            assert load or kind in (K_BNZ, K_BEZ) or code == 0
            flags.append(0 if load else code)
            strides.append(confident[code] if load else 0)
    return flags, strides


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@given(
    seeds=st.lists(st.integers(-1000, 1000), min_size=7, max_size=7),
    body=st.lists(_body_item, min_size=1, max_size=20),
    iterations=st.integers(1, 4),
)
@settings(max_examples=15, deadline=None)
def test_columns_match_live_front_end_on_random_programs(chunk, seeds, body, iterations):
    config = SimConfig()
    program, mem = _build(seeds, body, iterations)
    stream = _consume(program, mem, chunk)
    program_ref, mem_ref = _build(seeds, body, iterations)
    assert _columns(program, stream, config) == _live(program_ref, mem_ref, config, 100_000)


def _fill(program, mem, chunk, limit):
    """The stream as the kernel sees it, ``chunk`` instructions per fill
    (``_consume`` without its per-fill image digests, which dominate on
    a workload's image)."""
    kinds = program.decoded().kinds
    stream = ArchTrace()
    stage = FunctionalCore(program, mem)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functional, "CHUNK", chunk)
        while len(stream) < limit and not stream.halted:
            stage.fill(stream, limit)
            pcs, values, addrs, _, _ = stream.chunks[-1]
            for pc, value, addr in zip(pcs, values, addrs):
                if kinds[pc] == K_STORE:
                    mem.write_word(addr, value)
    return stream


WORKLOADS = ("camel", "nas_is", "bfs")


def _live_workload(workload, config, limit=2500):
    ref = build_workload(workload)
    return _live(ref.program, ref.memory, config, limit)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config", (SimConfig(), SMALL_TABLE), ids=("default", "streams2"))
def test_columns_match_live_front_end_on_workloads(workload, chunk, config):
    wl = build_workload(workload)
    stream = _fill(wl.program, wl.memory, chunk, 2500)
    assert _columns(wl.program, stream, config) == _live_workload(workload, config)


def _growing_strides(groups):
    """Two load pcs whose strides grow by two words every three loads,
    one over multiples of 16 bytes and one between them, so that every
    group of three loads ends on two new confident strides."""
    mem = MemoryImage()
    words = 6 * groups * (groups + 1) // 2 + 3 * groups + 1
    b = ProgramBuilder()
    b.li("r1", mem.allocate("a", words).base)
    b.li("r6", mem.allocate("b", words).base)
    b.li("r2", 16)
    b.li("r7", 24)
    b.li("r3", groups)
    b.label("group")
    b.li("r5", 3)
    b.label("load")
    b.load("r4", "r1")
    b.load("r4", "r6")
    b.add("r1", "r1", "r2")
    b.add("r6", "r6", "r7")
    b.addi("r5", "r5", -1)
    b.bnz("r5", "load")
    b.addi("r2", "r2", 16)
    b.addi("r7", "r7", 16)
    b.addi("r3", "r3", -1)
    b.bnz("r3", "group")
    return b.build(), mem


def test_chunk_with_more_strides_than_a_byte_names():
    program, mem = _growing_strides(140)
    stream = _fill(program, mem, CHUNK, CHUNK)
    assert len(stream.chunks) == 1 and stream.halted
    program_ref, mem_ref = _growing_strides(140)
    config = SimConfig()
    assert _columns(program, stream, config) == _live(program_ref, mem_ref, config, CHUNK)
    (frontend,) = stream.frontends.values()
    codes, strides = frontend.columns[0]
    assert isinstance(codes, list) and len(strides) > 256


def test_workloads_exercise_both_columns():
    live = [_live_workload(workload, SimConfig()) for workload in WORKLOADS]
    assert any(any(flags) for flags, _ in live)
    assert any(any(strides) for _, strides in live)


# -- one memoised stream, many front ends -------------------------------------

LIMIT = 2000
WORKLOAD = "bfs"
TECHNIQUES = ("ooo", "vr", "dvr")
#: The four front ends of the paper's sensitivity axes, plus a smaller
#: stride table, so that each field of the memo key has a run that
#: differs from the default in it alone.
FRONT_ENDS = (
    (),
    (("branch.max_history", 32),),
    (("stride_prefetcher_degree", 4),),
    (("stride_prefetcher_enabled", False),),
    (("stride_prefetcher_streams", 2),),
)


def _spec(technique, overrides):
    return RunSpec(
        WORKLOAD, technique=technique, overrides=overrides,
        max_instructions=LIMIT, trace=True,
    )


def _book(result):
    return result.counters, result.trace_digest


@pytest.fixture(scope="module")
def replay_off():
    return {
        (technique, overrides): _book(
            run_simulation(_spec(technique, overrides), replay="off")
        )
        for overrides in FRONT_ENDS
        for technique in TECHNIQUES
    }


@pytest.mark.parametrize("order", ("forward", "reverse"))
def test_front_ends_sharing_a_memoised_stream_match_replay_off(replay_off, order):
    pairs = [(t, o) for o in FRONT_ENDS for t in TECHNIQUES]
    if order == "reverse":
        pairs.reverse()
    clear_trace_memo()
    try:
        for technique, overrides in pairs:
            result = run_simulation(_spec(technique, overrides))
            assert _book(result) == replay_off[technique, overrides], (technique, overrides)
        stream = load_trace(arch_trace_key(_spec("ooo", ())))
        # Degrees 2 and 4 share one entry; every other front end has its own.
        assert len(stream.frontends) == len(FRONT_ENDS) - 1
    finally:
        clear_trace_memo()


def test_front_ends_differ_on_the_shared_stream(replay_off):
    """Each front end moves some book of the run (else the test above
    could not tell their columns apart)."""
    books = [replay_off["ooo", overrides] for overrides in FRONT_ENDS]
    default = books[0][0]
    for overrides, (counters, _) in zip(FRONT_ENDS[1:], books[1:]):
        assert counters != default, overrides


# -- memory ---------------------------------------------------------------------


def test_unmemoised_run_holds_at_most_one_chunk_of_columns(monkeypatch):
    monkeypatch.setattr(functional, "CHUNK", 256)
    wl = build_workload("camel")
    config = SimConfig(max_instructions=2000)
    core = OoOCore(wl.program, wl.memory, config)
    core.run()
    (frontend,) = core.stream.frontends.values()
    assert len(frontend.columns) == len(core.stream.chunks) == 8
    assert sum(column is not None for column in frontend.columns) <= 1
    assert frontend.predictor is None and frontend.table is None


def test_memoised_stream_keeps_columns_but_no_predictor():
    """Both the capture run's entry and one a replay trains are sealed."""
    spec = RunSpec("camel", technique="ooo", max_instructions=CHUNK + 500)
    clear_trace_memo()
    try:
        run_simulation(spec)
        run_simulation(replace(spec, overrides=(("branch.max_history", 32),)))
        stream = load_trace(arch_trace_key(spec))
        assert len(stream.chunks) == 2 and len(stream.frontends) == 2
        for frontend in stream.frontends.values():
            assert len(frontend.columns) == 2
            assert all(column is not None for column in frontend.columns)
            assert frontend.predictor is None and frontend.table is None
    finally:
        clear_trace_memo()


def test_training_that_raises_leaves_nothing_half_trained(monkeypatch):
    """A run whose front-end training fails mid-chunk must not hand a
    half-trained predictor to the next run of the stream."""
    spec = _spec("ooo", (("branch.max_history", 32),))
    expected = run_simulation(spec, replay="off")
    clear_trace_memo()
    try:
        run_simulation(_spec("ooo", ()))  # memoises the stream
        calls = []
        update = TageLitePredictor.update

        def failing_update(self, pc, taken, predicted):
            calls.append(pc)
            if len(calls) == 50:
                raise KeyboardInterrupt
            update(self, pc, taken, predicted)

        monkeypatch.setattr(TageLitePredictor, "update", failing_update)
        with pytest.raises(KeyboardInterrupt):
            run_simulation(spec)
        monkeypatch.setattr(TageLitePredictor, "update", update)
        assert _book(run_simulation(spec)) == _book(expected)
    finally:
        clear_trace_memo()
