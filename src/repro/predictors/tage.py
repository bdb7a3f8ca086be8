"""TAGE-lite: a tagged geometric-history-length predictor.

A post-paper extension (Seznec & Michaud, 2006) included to ask whether
predicate global update still adds information once the predictor itself
exploits very long histories: TAGE's tagged components consume the same
front-end history register PGU augments, so predicate bits flow into
every geometric history length at once.

This is a faithful small TAGE: a bimodal base predictor plus ``N``
tagged tables indexed by hashes of geometrically increasing history
prefixes, provider/altpred selection, useful counters with periodic
aging, and allocation on mispredictions.  (No loop predictor or
statistical corrector — hence "lite".)
"""

from typing import List

from repro.predictors.base import BranchPredictor, SaturatingCounters


class _TaggedTable:
    __slots__ = ("mask", "tags", "counters", "useful", "history_bits",
                 "tag_bits")

    def __init__(self, entries: int, history_bits: int, tag_bits: int):
        self.mask = entries - 1
        self.tags = [0] * entries
        self.counters = [3] * entries  # 3-bit counter, 0..7, >=4 taken
        self.useful = [0] * entries
        self.history_bits = history_bits
        self.tag_bits = tag_bits

    def index(self, pc: int, history: int) -> int:
        folded = _fold(history & ((1 << self.history_bits) - 1),
                       self.mask.bit_length())
        return (pc ^ folded ^ (pc >> 3)) & self.mask

    def tag(self, pc: int, history: int) -> int:
        folded = _fold(history & ((1 << self.history_bits) - 1),
                       self.tag_bits)
        return (pc ^ (folded << 1) ^ (pc >> 5)) & ((1 << self.tag_bits) - 1)


def _fold(value: int, bits: int) -> int:
    """XOR-fold an arbitrary-width integer down to ``bits`` bits."""
    if bits <= 0:
        return 0
    mask = (1 << bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


class TagePredictor(BranchPredictor):
    """TAGE with a bimodal base and geometric tagged components.

    Args:
        base_entries: bimodal base table size.
        table_entries: size of each tagged table.
        num_tables: tagged components.
        min_history / max_history: geometric history-length schedule.
        tag_bits: tag width.
    """

    #: mispredicted updates between global useful-counter agings;
    #: an instance may lower it (the differential suite does, to reach
    #: the aging path on tiny traces)
    aging_period = 256_000

    def __init__(
        self,
        base_entries: int = 4096,
        table_entries: int = 1024,
        num_tables: int = 4,
        min_history: int = 4,
        max_history: int = 64,
        tag_bits: int = 9,
    ):
        self.base = SaturatingCounters(base_entries)
        self.base_entries = base_entries
        lengths = []
        for k in range(num_tables):
            ratio = (max_history / min_history) ** (
                k / max(num_tables - 1, 1)
            )
            lengths.append(max(1, int(round(min_history * ratio))))
        self.history_lengths = lengths
        self.tables: List[_TaggedTable] = [
            _TaggedTable(table_entries, length, tag_bits)
            for length in lengths
        ]
        self.table_entries = table_entries
        self.tag_bits = tag_bits
        self._ticks = 0
        self.name = (
            f"tage-{num_tables}x{table_entries}"
            f"(h{lengths[0]}..{lengths[-1]})"
        )

    # -- prediction -----------------------------------------------------------

    def _find(self, pc: int, history: int):
        """(provider_index, alt_index): longest and next-longest hits."""
        provider = alt = -1
        for index in range(len(self.tables) - 1, -1, -1):
            table = self.tables[index]
            slot = table.index(pc, history)
            if table.tags[slot] == table.tag(pc, history):
                if provider < 0:
                    provider = index
                elif alt < 0:
                    alt = index
                    break
        return provider, alt

    def _component_prediction(self, index: int, pc: int,
                              history: int) -> bool:
        table = self.tables[index]
        return table.counters[table.index(pc, history)] >= 4

    def predict(self, pc: int, history: int) -> bool:
        provider, _ = self._find(pc, history)
        if provider >= 0:
            return self._component_prediction(provider, pc, history)
        return self.base.predict(pc)

    # -- training ---------------------------------------------------------------

    def update(self, pc: int, history: int, taken: bool) -> None:
        provider, alt = self._find(pc, history)
        if provider >= 0:
            table = self.tables[provider]
            slot = table.index(pc, history)
            prediction = table.counters[slot] >= 4
            alt_prediction = (
                self._component_prediction(alt, pc, history)
                if alt >= 0
                else self.base.predict(pc)
            )
            # Useful counter: provider right where altpred was wrong.
            if prediction != alt_prediction:
                if prediction == taken:
                    if table.useful[slot] < 3:
                        table.useful[slot] += 1
                elif table.useful[slot] > 0:
                    table.useful[slot] -= 1
            # Train the provider counter.
            value = table.counters[slot]
            if taken and value < 7:
                table.counters[slot] = value + 1
            elif not taken and value > 0:
                table.counters[slot] = value - 1
        else:
            prediction = self.base.predict(pc)
            self.base.update(pc, taken)
        if prediction == taken:
            return
        # Allocate a longer-history entry on a misprediction.
        start = provider + 1
        for index in range(start, len(self.tables)):
            table = self.tables[index]
            slot = table.index(pc, history)
            if table.useful[slot] == 0:
                table.tags[slot] = table.tag(pc, history)
                table.counters[slot] = 4 if taken else 3
                break
        else:
            # Nothing free: age the candidates.
            for index in range(start, len(self.tables)):
                table = self.tables[index]
                slot = table.index(pc, history)
                if table.useful[slot] > 0:
                    table.useful[slot] -= 1
        # Periodic global aging keeps entries reclaimable.
        self._ticks += 1
        if self._ticks >= self.aging_period:
            self._ticks = 0
            for table in self.tables:
                for slot in range(len(table.useful)):
                    if table.useful[slot] > 0:
                        table.useful[slot] -= 1

    @property
    def storage_bits(self) -> int:
        tagged = sum(
            (3 + 2 + table.tag_bits) * (table.mask + 1)
            for table in self.tables
        )
        return self.base.storage_bits + tagged

    def reset(self) -> None:
        self.__init__(
            base_entries=self.base_entries,
            table_entries=self.table_entries,
            num_tables=len(self.tables),
            min_history=self.history_lengths[0],
            max_history=self.history_lengths[-1],
            tag_bits=self.tag_bits,
        )
