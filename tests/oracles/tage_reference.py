"""The chunk-XOR-fold TAGE-lite predictor, kept as the executable specification.

:class:`ReferenceTagePredictor` is ``repro.frontend.TageLitePredictor``
as it was before the product kept folded-history registers: every
index and tag is computed from the global history by XOR-ing it, chunk
by chunk, down to 10, 8 or 7 bits, memoised per history epoch. The
product updates the same folds in O(1) per branch;
``tests/test_tage_differential.py`` pins the two against each other
for identical predictions, counters and table contents.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import BranchPredictorConfig


class _TaggedTable:
    """One tagged component: parallel tag, 3-bit counter and 2-bit useful arrays."""

    def __init__(self, entries_bits: int, tag_bits: int, history_length: int) -> None:
        self.size = 1 << entries_bits
        self.index_mask = self.size - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.history_length = history_length
        self.tags = [0] * self.size
        self.counters = [4] * self.size
        self.useful = [0] * self.size


def _geometric_lengths(lo: int, hi: int, n: int) -> List[int]:
    if n == 1:
        return [lo]
    ratio = (hi / lo) ** (1 / (n - 1))
    return [max(1, round(lo * ratio**i)) for i in range(n)]


class ReferenceTagePredictor:
    """Predict/update interface of the product predictor, folds recomputed."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None) -> None:
        config = config or BranchPredictorConfig()
        self.config = config
        self._bimodal = [2] * (1 << config.bimodal_bits)  # 2-bit, taken if >= 2
        self._bimodal_mask = (1 << config.bimodal_bits) - 1
        lengths = _geometric_lengths(
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
        # Folded-history values are pure functions of (history, length,
        # bits); within one history epoch (between update()s) the same
        # folds are needed by predict, update, and allocate, so they are
        # memoised here and invalidated when the history shifts.
        self._fold_cache: dict = {}
        self._cached_provider_pc: Optional[int] = None
        self._cached_provider = None

    # -- prediction ------------------------------------------------------------

    def _fold(self, history_length: int, bits: int) -> int:
        """XOR the last ``history_length`` outcomes down to ``bits`` bits."""
        key = (history_length << 4) | bits
        cache = self._fold_cache
        folded = cache.get(key)
        if folded is None:
            hist = self._history & ((1 << history_length) - 1)
            mask = (1 << bits) - 1
            folded = 0
            while hist:
                folded ^= hist & mask
                hist >>= bits
            cache[key] = folded
        return folded

    def _provider(self, pc: int):
        """Longest-history tagged table with a tag match, or None.

        Returns ``(table_index, table, entry_index)``.
        """
        fold = self._fold
        for table_index in range(len(self._tables) - 1, -1, -1):
            table = self._tables[table_index]
            length = table.history_length
            index = (pc ^ (pc >> 4) ^ fold(length, 10)) & table.index_mask
            tag = (pc ^ fold(length, 8) ^ (fold(length, 7) << 1)) & table.tag_mask
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
        self._history = ((self._history << 1) | (1 if taken else 0)) & ((1 << 128) - 1)
        self._fold_cache.clear()

    def _allocate(self, pc: int, taken: bool, provider_index: int) -> None:
        """On a mispredict, claim an entry in a longer-history table."""
        candidates = range(provider_index + 1, len(self._tables))
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0x7FFFFFFF
        start = self._alloc_seed % max(1, len(self._tables) - provider_index - 1 or 1)
        ordered: List[int] = list(candidates)
        ordered = ordered[start:] + ordered[:start]
        fold = self._fold
        for table_index in ordered:
            table = self._tables[table_index]
            length = table.history_length
            index = (pc ^ (pc >> 4) ^ fold(length, 10)) & table.index_mask
            if table.useful[index] == 0:
                table.tags[index] = (
                    pc ^ fold(length, 8) ^ (fold(length, 7) << 1)
                ) & table.tag_mask
                table.counters[index] = 4 if taken else 3
                table.useful[index] = 0
                return
        # Nothing free: age a random longer table's entry.
        for table_index in ordered:
            table = self._tables[table_index]
            length = table.history_length
            index = (pc ^ (pc >> 4) ^ fold(length, 10)) & table.index_mask
            table.useful[index] = max(0, table.useful[index] - 1)

    def misprediction_rate(self) -> float:
        if not self.predictions:
            return 0.0
        return self.mispredictions / self.predictions
