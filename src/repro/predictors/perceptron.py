"""Perceptron predictor (Jimenez & Lin, HPCA 2001).

Included as a post-paper extension: it consumes the same global history
the predicate global-update mechanism augments, so it shows whether the
predicate bits help a fundamentally different history consumer too.
"""

from repro.predictors.base import BranchPredictor


class WeightRows(dict):
    """Weight rows by row index, each created as zeros on first touch.

    A table of ``entries`` rows costs nothing until a branch indexes
    it, so a short replay pays for the few rows it touches, not for the
    configured size.  Rows are plain lists, updated in place; the
    class is module-level, so tables pickle and deep-copy.
    """

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, row: int) -> list:
        weights = self[row] = [0] * self.width
        return weights

    def rows(self, entries: int) -> list:
        """Every row of an ``entries``-row table, untouched ones as
        zeros (fresh lists)."""
        zero = [0] * self.width
        return [list(self.get(row, zero)) for row in range(entries)]


class PerceptronPredictor(BranchPredictor):
    """Table of perceptrons over the last ``history_bits`` history bits.

    Weights are small saturating integers; the threshold follows the
    published ``1.93 * h + 14`` rule.
    """

    def __init__(self, entries: int = 256, history_bits: int = 16,
                 weight_bits: int = 8):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self.mask = entries - 1
        self.weight_limit = (1 << (weight_bits - 1)) - 1
        self.threshold = int(1.93 * history_bits + 14)
        # weights[i] = [bias, w_1 .. w_h], made when row i is touched
        self.weights = WeightRows(history_bits + 1)
        self.name = f"perceptron-{entries}x{history_bits}"

    def _output(self, pc: int, history: int) -> int:
        w = self.weights[pc & self.mask]
        total = w[0]
        for bit in range(self.history_bits):
            if (history >> bit) & 1:
                total += w[bit + 1]
            else:
                total -= w[bit + 1]
        return total

    def predict(self, pc: int, history: int) -> bool:
        return self._output(pc, history) >= 0

    def update(self, pc: int, history: int, taken: bool) -> None:
        output = self._output(pc, history)
        predicted = output >= 0
        if predicted == taken and abs(output) > self.threshold:
            return
        w = self.weights[pc & self.mask]
        direction = 1 if taken else -1
        limit = self.weight_limit
        w[0] = max(-limit, min(limit, w[0] + direction))
        for bit in range(self.history_bits):
            agree = ((history >> bit) & 1) == int(taken)
            delta = 1 if agree else -1
            w[bit + 1] = max(-limit, min(limit, w[bit + 1] + delta))

    @property
    def storage_bits(self) -> int:
        return self.entries * (self.history_bits + 1) * 8

    def reset(self) -> None:
        self.weights = WeightRows(self.history_bits + 1)
