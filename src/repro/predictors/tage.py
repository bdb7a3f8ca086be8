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

from repro.predictors.base import BranchPredictor, SaturatingCounters


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

    Tagged table ``i`` (shortest history first) is ``tags[i]``, 3-bit
    ``counters[i]`` (0..7, 4 and up predict taken) and 2-bit
    ``useful[i]``, one list each; ``ticks`` counts mispredicted updates
    toward the next global aging.

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
        self.tags = [[0] * table_entries for _ in lengths]
        self.counters = [[3] * table_entries for _ in lengths]
        self.useful = [[0] * table_entries for _ in lengths]
        self.ticks = 0
        self.table_entries = table_entries
        self.mask = table_entries - 1
        self.tag_bits = tag_bits
        self.name = (
            f"tage-{num_tables}x{table_entries}"
            f"(h{lengths[0]}..{lengths[-1]})"
        )

    def _slot(self, pc: int, history: int, length: int) -> int:
        """Slot of ``(pc, history)`` in the table of history ``length``."""
        folded = _fold(history & ((1 << length) - 1), self.mask.bit_length())
        return (pc ^ folded ^ (pc >> 3)) & self.mask

    def _tag(self, pc: int, history: int, length: int) -> int:
        """Tag of ``(pc, history)`` in the table of history ``length``."""
        folded = _fold(history & ((1 << length) - 1), self.tag_bits)
        return (pc ^ (folded << 1) ^ (pc >> 5)) & ((1 << self.tag_bits) - 1)

    # -- prediction -----------------------------------------------------------

    def _find(self, pc: int, history: int):
        """(provider, provider slot, alt, alt slot): the longest and
        next-longest hits, -1 where there is none."""
        provider = alt = pslot = aslot = -1
        for index in range(len(self.tags) - 1, -1, -1):
            length = self.history_lengths[index]
            slot = self._slot(pc, history, length)
            if self.tags[index][slot] == self._tag(pc, history, length):
                if provider < 0:
                    provider, pslot = index, slot
                else:
                    alt, aslot = index, slot
                    break
        return provider, pslot, alt, aslot

    def predict(self, pc: int, history: int) -> bool:
        provider, pslot, _, _ = self._find(pc, history)
        if provider >= 0:
            return self.counters[provider][pslot] >= 4
        return self.base.predict(pc)

    # -- training ---------------------------------------------------------------

    def update(self, pc: int, history: int, taken: bool) -> None:
        provider, slot, alt, aslot = self._find(pc, history)
        if provider >= 0:
            counters = self.counters[provider]
            useful = self.useful[provider]
            prediction = counters[slot] >= 4
            alt_prediction = (
                self.counters[alt][aslot] >= 4
                if alt >= 0
                else self.base.predict(pc)
            )
            # Useful counter: provider right where altpred was wrong.
            if prediction != alt_prediction:
                if prediction == taken:
                    if useful[slot] < 3:
                        useful[slot] += 1
                elif useful[slot] > 0:
                    useful[slot] -= 1
            # Train the provider counter.
            value = counters[slot]
            if taken and value < 7:
                counters[slot] = value + 1
            elif not taken and value > 0:
                counters[slot] = value - 1
        else:
            prediction = self.base.predict(pc)
            self.base.update(pc, taken)
        if prediction == taken:
            return
        # Allocate a longer-history entry on a misprediction.
        start = provider + 1
        later = range(start, len(self.tags))
        slots = [self._slot(pc, history, self.history_lengths[index])
                 for index in later]
        for index, slot in zip(later, slots):
            if self.useful[index][slot] == 0:
                self.tags[index][slot] = self._tag(
                    pc, history, self.history_lengths[index]
                )
                self.counters[index][slot] = 4 if taken else 3
                break
        else:
            # Nothing free: age the candidates.
            for index, slot in zip(later, slots):
                if self.useful[index][slot] > 0:
                    self.useful[index][slot] -= 1
        self.ticks += 1
        if self.ticks >= self.aging_period:
            self.age()

    def age(self) -> None:
        """Global aging, which keeps entries reclaimable: decay every
        useful counter and restart the count."""
        self.ticks = 0
        for useful in self.useful:
            useful[:] = [u - 1 if u else 0 for u in useful]

    @property
    def storage_bits(self) -> int:
        tagged = (3 + 2 + self.tag_bits) * self.table_entries * len(self.tags)
        return self.base.storage_bits + tagged

    def reset(self) -> None:
        self.__init__(
            base_entries=self.base_entries,
            table_entries=self.table_entries,
            num_tables=len(self.tags),
            min_history=self.history_lengths[0],
            max_history=self.history_lengths[-1],
            tag_bits=self.tag_bits,
        )
