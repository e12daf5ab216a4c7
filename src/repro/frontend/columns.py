"""The baseline core's front end as columns of the architectural stream.

TAGE-lite (:mod:`repro.frontend.branch_predictor`) trains on ``(pc,
taken)`` at each conditional branch, and the L1-D stride prefetcher's
table (:class:`~repro.prefetch.stride.StridePrefetcher`) on ``(pc,
addr)`` at each load, both in stream order. Nothing timing-dependent
feeds back into either: a mispredict only delays fetch, and a stride
prefetch only fills caches. So what they tell the timing kernel — which
branches mispredict, and which loads have a confident stride — is a
function of the stream and of the front-end config
(:func:`frontend_key`), computed once per pair.

:func:`frontend_columns` keeps one :class:`FrontEndColumns` per
front-end config on an :class:`~repro.perf.trace.ArchTrace`. Its
:meth:`~FrontEndColumns.column` trains the entry's predictor and stride
table over a chunk the first time a consumer reaches it, so the first
run of a (stream, config) pays for the training and every replay of a
memoised stream reads the stored columns; once the stream's last chunk
has them, :meth:`~FrontEndColumns.seal` drops the predictor and table.
A stream that is not memoised drops each chunk's columns with the chunk.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..config import SimConfig
from ..isa.predecode import K_BEZ, K_BNZ, K_LOAD
from ..prefetch.stride import StridePrefetcher
from .branch_predictor import TageLitePredictor

#: One chunk's front-end column: ``(codes, strides)``. ``codes`` holds
#: one code per instruction. At a conditional branch it is 1 when
#: TAGE-lite mispredicts the branch, else 0; at a load it is 0 when the
#: stride table is not confident, else the index of the confident stride
#: in ``strides`` (``strides[0] == 0``); elsewhere 0. Branches and loads
#: are disjoint, so one ``bytearray`` carries both columns at one byte
#: per instruction; a chunk with more than 255 distinct confident
#: strides keeps its codes in a ``list``.
Column = Tuple[Union[bytearray, list], tuple]


def frontend_key(config: SimConfig) -> tuple:
    """The config fields the front-end columns depend on.

    ``stride_prefetcher_degree`` is not among them: it sets how many
    lines the kernel prefetches past a confident load, not which loads
    are confident, so runs at different degrees share one entry.
    """
    return (
        config.branch,
        config.stride_prefetcher_enabled,
        config.stride_prefetcher_streams,
    )


class FrontEndColumns:
    """The front-end columns of one stream under one front-end config.

    ``columns[k]`` is chunk *k*'s :data:`Column` (None once a consumer
    that does not keep chunks has dropped it). ``predictor`` and
    ``table``, built from ``config``, have been trained over exactly
    the chunks that have columns; :meth:`seal` sets both to None.
    """

    __slots__ = ("config", "columns", "predictor", "table")

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self._reset()

    def _reset(self) -> None:
        config = self.config
        self.columns: List[Optional[Column]] = []
        self.predictor: Optional[TageLitePredictor] = TageLitePredictor(config.branch)
        self.table: Optional[StridePrefetcher] = (
            StridePrefetcher(streams=config.stride_prefetcher_streams)
            if config.stride_prefetcher_enabled
            else None
        )

    def column(self, index: int, chunk: tuple, kinds: list) -> Column:
        """Chunk ``index``'s column, training on ``chunk`` if it has none.

        Chunks are trained in stream order, as a run reads them: ``index``
        is a chunk that already has its column or the next one.
        """
        columns = self.columns
        if index < len(columns):
            return columns[index]
        try:
            column = self._train(chunk, kinds)
        except BaseException:
            # A half-trained predictor must not reach a later run: start
            # the entry over, so the next run retrains from chunk 0.
            self._reset()
            raise
        columns.append(column)
        return column

    def _train(self, chunk: tuple, kinds: list) -> Column:
        pcs, _, addrs, takens, _ = chunk
        codes = bytearray(len(pcs))
        codes_of = {0: 0}  # confident stride -> its code
        predict = self.predictor.predict
        update = self.predictor.update
        observe = self.table.observe if self.table is not None else None
        for j, pc in enumerate(pcs):
            kind = kinds[pc]
            if kind == K_LOAD:
                if observe is not None:
                    stride = observe(pc, addrs[j])
                    if stride:
                        code = codes_of.get(stride)
                        if code is None:
                            code = codes_of[stride] = len(codes_of)
                            if code == 256:
                                codes = list(codes)  # past what a byte names
                        codes[j] = code
            elif kind == K_BNZ or kind == K_BEZ:
                taken = takens[j]
                predicted = predict(pc)
                update(pc, taken, predicted)
                if predicted != taken:
                    codes[j] = 1
        return codes, tuple(codes_of)

    def seal(self) -> None:
        """Drop the predictor and table: every chunk has its column."""
        self.predictor = None
        self.table = None


def frontend_columns(stream, config: SimConfig) -> FrontEndColumns:
    """``stream``'s front-end columns under ``config``'s front end,
    created empty on first use."""
    key = frontend_key(config)
    entry = stream.frontends.get(key)
    if entry is None:
        entry = stream.frontends[key] = FrontEndColumns(config)
    return entry
