"""TAGE-lite: a small TAGE-style conditional branch predictor.

Stands in for the paper's 8KB TAGE-SC-L (CBP-2016). A bimodal base
table backs a set of tagged tables indexed with geometrically longer
global-history folds. This reproduces the qualitative behaviour the
paper's evaluation depends on: near-perfect accuracy on regular loops,
and frequent mispredicts on data-dependent graph branches (which keep
the ROB from filling and starve stall-triggered runahead).
"""

from __future__ import annotations

from typing import List, Optional

from ..config import BranchPredictorConfig


#: Widths each table's history is folded to: the index, and the two
#: halves of the tag hash.
_INDEX_FOLD_BITS = 10
_TAG_FOLD_BITS = 8
_TAG2_FOLD_BITS = 7
_INDEX_FOLD_MASK = (1 << _INDEX_FOLD_BITS) - 1
_TAG_FOLD_MASK = (1 << _TAG_FOLD_BITS) - 1
_TAG2_FOLD_MASK = (1 << _TAG2_FOLD_BITS) - 1
#: Global history width. Older outcomes are gone, so a table's history
#: length is clamped to it.
_HISTORY_BITS = 128
_HISTORY_MASK = (1 << _HISTORY_BITS) - 1


class _TaggedTable:
    """One tagged component, stored as parallel int arrays.

    Entry *i* is ``(tags[i], counters[i], useful[i])`` — flat lists keep
    the per-branch probe down to two list indexings instead of an
    attribute chase through per-entry objects. Counters are 3-bit
    (taken if >= 4); useful is 2-bit.

    ``index_fold``, ``tag_fold`` and ``tag2_fold`` are Seznec's
    folded-history registers: the table's last ``history_length``
    outcomes XOR-folded, chunk by chunk, down to 10, 8 and 7 bits.
    :meth:`TageLitePredictor.update` shifts each one in O(1) per branch:
    the new outcome enters at bit 0, the outcome leaving the window is
    XOR-ed out at ``length % bits``, and the top bit wraps around.
    """

    __slots__ = (
        "size",
        "index_mask",
        "tag_mask",
        "history_length",
        "tags",
        "counters",
        "useful",
        "out_shift",
        "index_point",
        "tag_point",
        "tag2_point",
        "index_fold",
        "tag_fold",
        "tag2_fold",
    )

    def __init__(self, entries_bits: int, tag_bits: int, history_length: int) -> None:
        self.size = 1 << entries_bits
        self.index_mask = self.size - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.history_length = history_length
        self.tags = [0] * self.size
        self.counters = [4] * self.size
        self.useful = [0] * self.size
        length = min(history_length, _HISTORY_BITS)
        self.out_shift = length - 1
        self.index_point = length % _INDEX_FOLD_BITS
        self.tag_point = length % _TAG_FOLD_BITS
        self.tag2_point = length % _TAG2_FOLD_BITS
        self.index_fold = 0
        self.tag_fold = 0
        self.tag2_fold = 0


class TageLitePredictor:
    """Predict/update interface used by the timing core."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None) -> None:
        config = config or BranchPredictorConfig()
        self.config = config
        self._bimodal = [2] * (1 << config.bimodal_bits)  # 2-bit, taken if >= 2
        self._bimodal_mask = (1 << config.bimodal_bits) - 1
        lengths = self._geometric_lengths(
            config.min_history, config.max_history, config.num_tagged_tables
        )
        self._tables = [
            _TaggedTable(config.tagged_entries_bits, config.tag_bits, length)
            for length in lengths
        ]
        self._history = 0
        self._alloc_seed = 0x9E3779B9
        self.predictions = 0
        self.mispredictions = 0
        # predict(pc) immediately followed by update(pc, ...) — the
        # pattern both timing cores use — can reuse the provider lookup
        # instead of re-probing every tagged table.
        self._cached_provider_pc: Optional[int] = None
        self._cached_provider = None

    @staticmethod
    def _geometric_lengths(lo: int, hi: int, n: int) -> List[int]:
        if n == 1:
            return [lo]
        ratio = (hi / lo) ** (1 / (n - 1))
        return [max(1, round(lo * ratio**i)) for i in range(n)]

    # -- prediction ------------------------------------------------------------

    def _provider(self, pc: int):
        """Longest-history tagged table with a tag match, or None.

        Returns ``(table_index, table, entry_index)``.
        """
        tables = self._tables
        pc_hash = pc ^ (pc >> 4)
        for table_index in range(len(tables) - 1, -1, -1):
            table = tables[table_index]
            index = (pc_hash ^ table.index_fold) & table.index_mask
            tag = (pc ^ table.tag_fold ^ (table.tag2_fold << 1)) & table.tag_mask
            if table.tags[index] == tag:
                return table_index, table, index
        return None

    def predict(self, pc: int) -> bool:
        self.predictions += 1
        provider = self._provider(pc)
        self._cached_provider_pc = pc
        self._cached_provider = provider
        if provider is not None:
            return provider[1].counters[provider[2]] >= 4
        return self._bimodal[pc & self._bimodal_mask] >= 2

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        if taken != predicted:
            self.mispredictions += 1
        # Reuse the provider probed by the immediately preceding
        # predict(pc): nothing between the two calls mutates table state,
        # so the lookup is guaranteed to return the same entry.
        if self._cached_provider_pc == pc:
            provider = self._cached_provider
        else:
            provider = self._provider(pc)
        self._cached_provider_pc = None
        self._cached_provider = None
        if provider is not None:
            table_index, table, index = provider
            counters = table.counters
            counter = min(7, counters[index] + 1) if taken else max(0, counters[index] - 1)
            counters[index] = counter
            useful = table.useful
            if (counter >= 4) == taken:
                useful[index] = min(3, useful[index] + 1)
            elif taken != predicted:
                useful[index] = max(0, useful[index] - 1)
        else:
            table_index = -1
            slot = pc & self._bimodal_mask
            if taken:
                self._bimodal[slot] = min(3, self._bimodal[slot] + 1)
            else:
                self._bimodal[slot] = max(0, self._bimodal[slot] - 1)
        if taken != predicted:
            self._allocate(pc, taken, table_index)
        # Shift the outcome into the history and every folded register.
        bit = 1 if taken else 0
        history = self._history
        for table in self._tables:
            out = (history >> table.out_shift) & 1
            fold = (table.index_fold << 1) ^ bit ^ (out << table.index_point)
            table.index_fold = (fold ^ (fold >> _INDEX_FOLD_BITS)) & _INDEX_FOLD_MASK
            fold = (table.tag_fold << 1) ^ bit ^ (out << table.tag_point)
            table.tag_fold = (fold ^ (fold >> _TAG_FOLD_BITS)) & _TAG_FOLD_MASK
            fold = (table.tag2_fold << 1) ^ bit ^ (out << table.tag2_point)
            table.tag2_fold = (fold ^ (fold >> _TAG2_FOLD_BITS)) & _TAG2_FOLD_MASK
        self._history = ((history << 1) | bit) & _HISTORY_MASK

    def _allocate(self, pc: int, taken: bool, provider_index: int) -> None:
        """On a mispredict, claim an entry in a longer-history table."""
        candidates = range(provider_index + 1, len(self._tables))
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0x7FFFFFFF
        start = self._alloc_seed % max(1, len(self._tables) - provider_index - 1 or 1)
        ordered = list(candidates)
        ordered = ordered[start:] + ordered[:start]
        pc_hash = pc ^ (pc >> 4)
        for table_index in ordered:
            table = self._tables[table_index]
            index = (pc_hash ^ table.index_fold) & table.index_mask
            if table.useful[index] == 0:
                table.tags[index] = (
                    pc ^ table.tag_fold ^ (table.tag2_fold << 1)
                ) & table.tag_mask
                table.counters[index] = 4 if taken else 3
                table.useful[index] = 0
                return
        # Nothing free: age a random longer table's entry.
        for table_index in ordered:
            table = self._tables[table_index]
            index = (pc_hash ^ table.index_fold) & table.index_mask
            table.useful[index] = max(0, table.useful[index] - 1)

    def misprediction_rate(self) -> float:
        if not self.predictions:
            return 0.0
        return self.mispredictions / self.predictions
