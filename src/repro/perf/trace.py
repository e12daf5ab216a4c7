"""Architectural trace capture and replay.

The functional :class:`~repro.core.dyninstr.DynInstr` stream is a pure
function of (program, memory image, step budget): the simulator is
execution-driven at fetch, stores update the shared memory image at
fetch time, and no timing model or runahead technique ever feeds back
into architectural state. That makes the stream *technique-independent*
— ``ooo``, ``vr``, ``dvr``, ``pre`` over the same workload/seed/limit
all consume bit-identical streams.

This module exploits that: capture the stream once (as a side effect of
whichever run happens first), then replay it into every other timing
run of the same (workload, input, size, seed, limit, program stream).
Replay skips the functional interpreter entirely — no handler calls,
no register file — while reproducing the exact observable protocol:

* the same ``DynInstr`` field values (``seq``/``pc``/``instr``/
  ``value``/``addr``/``taken``/``next_pc``), with ``instr`` identity
  taken from the *live* program object, and
* the same memory-image evolution: stores are re-applied at step time
  (the store value is captured side-band, since ``DynInstr.value`` is
  ``None`` for stores), so runahead engines interpreting the static
  program against memory observe fetch-point values exactly as they
  would against live execution.

Traces live only in a small in-process LRU memo, which serves repeat
runs in the same process — e.g. the technique loop of a comparison.
The memo key is the run spec's stream projection
(:func:`arch_trace_key`), which pins the *exact* step budget so a
replayed stream can never run dry mid-consumption.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple, Union

from ..core.dyninstr import DynInstr
from ..errors import SimulationError
from ..isa.predecode import K_STORE, decode_program
from ..isa.program import Program

#: Streams longer than this are not worth holding in memory; the run
#: simply executes functionally (capture is skipped, never replay).
CAPTURE_LIMIT = 400_000

#: In-process memo capacity (distinct (workload, seed, limit) streams).
_MEMO_CAPACITY = 8


def _decoded_of(program):
    return (
        program.decoded()
        if isinstance(program, Program)
        else decode_program(program)
    )


class ArchTrace:
    """One captured architectural stream, as flat parallel columns.

    ``values[i]`` is the :class:`DynInstr` value for non-stores and the
    *stored word* for stores (side-band; the replayed record's ``value``
    reverts to ``None``). ``halted`` distinguishes a stream that ended
    at HALT from one truncated by the consumer's step budget.
    """

    __slots__ = ("pcs", "values", "addrs", "takens", "next_pcs", "halted")

    def __init__(
        self,
        pcs: List[int],
        values: List[Union[int, float, None]],
        addrs: List[Optional[int]],
        takens: List[Optional[bool]],
        next_pcs: List[int],
        halted: bool,
    ) -> None:
        self.pcs = pcs
        self.values = values
        self.addrs = addrs
        self.takens = takens
        self.next_pcs = next_pcs
        self.halted = halted

    def __len__(self) -> int:
        return len(self.pcs)


class CaptureSource:
    """Wrap a live functional core; record the stream as it is consumed.

    Drop-in for the core's ``functional`` attribute (same ``.step()``
    protocol). The first timing run of a given stream is therefore also
    its capture run — no extra functional execution on a cache miss.
    """

    __slots__ = (
        "functional",
        "pcs",
        "values",
        "addrs",
        "takens",
        "next_pcs",
        "_kinds",
        "_rs2",
    )

    def __init__(self, functional) -> None:
        self.functional = functional
        decoded = _decoded_of(functional.program)
        self._kinds = decoded.kinds
        self._rs2 = decoded.rs2
        self.pcs: List[int] = []
        self.values: List[Union[int, float, None]] = []
        self.addrs: List[Optional[int]] = []
        self.takens: List[Optional[bool]] = []
        self.next_pcs: List[int] = []

    def step(self) -> Optional[DynInstr]:
        dyn = self.functional.step()
        if dyn is None:
            return None
        pc = dyn.pc
        value = dyn.value
        if self._kinds[pc] == K_STORE:
            # Side-band store value: stores do not write a register, so
            # rs2 still holds exactly the word passed to write_word.
            value = self.functional.regs[self._rs2[pc]]
        self.pcs.append(pc)
        self.values.append(value)
        self.addrs.append(dyn.addr)
        self.takens.append(dyn.taken)
        self.next_pcs.append(dyn.next_pc)
        return dyn

    def finish(self) -> ArchTrace:
        return ArchTrace(
            self.pcs,
            self.values,
            self.addrs,
            self.takens,
            self.next_pcs,
            halted=self.functional.halted,
        )


class ReplaySource:
    """Replay a captured stream into a timing core.

    Stores are re-applied to ``memory`` at step time so speculative
    interpreters observe the fetch-point memory image, exactly as under
    live execution. ``instr`` identity comes from the live ``program``
    (``dyn.instr is program[pc]`` holds, as everywhere else).

    Stepping past the end of a *non-halted* trace is a keying bug (the
    consumer's step budget exceeds the captured one) and raises rather
    than silently truncating the run.
    """

    __slots__ = (
        "_pcs",
        "_values",
        "_addrs",
        "_takens",
        "_next_pcs",
        "_length",
        "_halted",
        "_instrs",
        "_kinds",
        "_memory",
        "_i",
    )

    def __init__(self, trace: ArchTrace, program, memory) -> None:
        decoded = _decoded_of(program)
        # The trace's columns are bound here, once: step() runs per
        # simulated instruction.
        self._pcs = trace.pcs
        self._values = trace.values
        self._addrs = trace.addrs
        self._takens = trace.takens
        self._next_pcs = trace.next_pcs
        self._length = len(trace.pcs)
        self._halted = trace.halted
        self._instrs = decoded.instrs
        self._kinds = decoded.kinds
        self._memory = memory
        self._i = 0

    def step(self) -> Optional[DynInstr]:
        i = self._i
        if i >= self._length:
            if self._halted:
                return None
            raise SimulationError(
                "architectural trace exhausted before the consumer's "
                "instruction budget (trace keyed on a smaller limit?)"
            )
        self._i = i + 1
        pc = self._pcs[i]
        value = self._values[i]
        addr = self._addrs[i]
        if self._kinds[pc] == K_STORE:
            self._memory.write_word(addr, value)
            value = None
        return DynInstr(
            i, pc, self._instrs[pc], value, addr, self._takens[i], self._next_pcs[i]
        )


def capture_arch_trace(program, memory, limit: int) -> ArchTrace:
    """Run ``program`` functionally for up to ``limit`` steps, capturing.

    Standalone capture (mutates ``memory``); the runner instead captures
    as a side effect of the first timing run via :class:`CaptureSource`.
    """
    from ..core.functional import FunctionalCore

    source = CaptureSource(FunctionalCore(program, memory))
    steps = 0
    while steps < limit and source.step() is not None:
        steps += 1
    return source.finish()


# -- identity -----------------------------------------------------------------

#: The fields every stream projection must carry, in canonical order.
_PROJECTION_FIELDS = ("workload", "input_name", "size", "seed", "limit", "stream")


def arch_trace_key(spec) -> Tuple:
    """Memo key of one architectural stream.

    ``spec`` is a :class:`~repro.experiments.spec.RunSpec` (its
    :meth:`~repro.experiments.spec.RunSpec.stream_projection` is the
    single derivation point for stream identity) or an equivalent
    projection mapping with keys ``workload``/``input_name``/``size``/
    ``seed``/``limit``/``stream``. ``stream`` distinguishes program
    transforms over the same workload (``"base"`` vs ``"swpf"`` —
    software prefetching rewrites the program, so its stream differs).
    The key is the projection's values in field order: a memo key, not
    a content address. The memo never outlives its process, so the
    code that replays a trace is the code that captured it, and the
    key needs no code fingerprint.
    """
    projection = spec if isinstance(spec, dict) else spec.stream_projection()
    missing = [f for f in _PROJECTION_FIELDS if f not in projection]
    if missing:
        raise SimulationError(f"stream projection is missing fields {missing}")
    return tuple(projection[f] for f in _PROJECTION_FIELDS)


# -- in-process memo ----------------------------------------------------------

_MEMO: "OrderedDict[Tuple, ArchTrace]" = OrderedDict()


def load_trace(key: Tuple) -> Optional[ArchTrace]:
    """The memoised stream under ``key``, or None."""
    trace = _MEMO.get(key)
    if trace is not None:
        _MEMO.move_to_end(key)
    return trace


def store_trace(key: Tuple, trace: ArchTrace) -> None:
    """Memoise ``trace``, evicting the least recently used beyond capacity."""
    _MEMO[key] = trace
    _MEMO.move_to_end(key)
    while len(_MEMO) > _MEMO_CAPACITY:
        _MEMO.popitem(last=False)


def clear_trace_memo() -> None:
    """Drop every memoised trace (tests and long-lived processes)."""
    _MEMO.clear()
