"""The architectural stream as columns, and its in-process memo.

The functional instruction stream is a pure function of (program,
memory image, step budget): the simulator is execution-driven at fetch,
and no timing model or runahead technique ever feeds back into
architectural state. That makes the stream *technique-independent* —
``ooo``, ``vr``, ``dvr``, ``pre`` over the same workload/seed/limit all
consume bit-identical streams.

One path produces and consumes it. The functional stage
(:meth:`~repro.core.functional.FunctionalCore.fill`) appends the stream
to an :class:`ArchTrace` in chunks of at most :data:`CHUNK`
instructions, each chunk a tuple of flat parallel columns
``(pcs, values, addrs, takens, next_pcs)``. The timing kernel
(:meth:`~repro.core.ooo.OoOCore.run`) reads the columns by index and
applies each store to the memory image at that instruction's turn, so
runahead engines interpreting the static program against memory
observe fetch-point values, exactly as under step-by-step execution.

A fresh run fills chunks as it consumes them; the first run of a
stream is therefore also its capture, with no extra functional
execution. A memoised run hands the kernel its stored chunks and skips
the functional stage entirely. The memo is a small in-process LRU,
keyed on the run spec's stream projection (:func:`arch_trace_key`),
which pins the *exact* step budget so a replayed stream can never run
dry mid-consumption.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..errors import SimulationError

#: Most instructions one fill of the functional stage appends: the
#: stream memory of a run that is not memoised.
CHUNK = 4096

#: The memo's admission bound: longer streams are not held in memory,
#: and their runs drop each chunk once it is consumed.
CAPTURE_LIMIT = 400_000

#: In-process memo capacity (distinct (workload, seed, limit) streams).
_MEMO_CAPACITY = 8


class ArchTrace:
    """One architectural stream, as chunks of flat parallel columns.

    Each entry of ``chunks`` is ``(pcs, values, addrs, takens,
    next_pcs)``. ``values[j]`` is the destination value (a load's
    loaded word) and, for a store, the *stored word*: the consumer
    writes it to the image at the store's turn. ``halted`` tells a
    stream that ended at HALT from one cut by the step budget;
    ``length`` counts every instruction appended, also those of chunks
    a consumer has dropped; ``regs`` is the register file after the
    last one (``functional.equivalence`` compares it with a fresh
    re-execution).
    """

    __slots__ = ("chunks", "length", "halted", "regs")

    def __init__(self) -> None:
        self.chunks: List[Tuple[list, list, list, list, list]] = []
        self.length = 0
        self.halted = False
        self.regs: Optional[list] = None

    def __len__(self) -> int:
        return self.length


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
