"""The perceptron branch predictor of Jiménez & Lin (HPCA 2001).

This is the predictor the paper's Cache Processor uses (Table 2).  Each
static branch hashes to a weight vector; the prediction is the sign of the
dot product of the weights with the global history (plus a bias term).
Training adjusts weights by ±1 when the prediction was wrong or the output
magnitude is below the threshold θ = ⌊1.93·h + 14⌋, the value derived in
the original paper.
"""

from __future__ import annotations

from operator import add, mul, sub

from repro.branch.base import BranchPredictor


class PerceptronPredictor(BranchPredictor):
    """Global-history perceptron predictor.

    Args:
        num_perceptrons: Size of the weight table (power of two).
        history_length: Global history bits (h).
        weight_bits: Saturation width of each weight (8 bits in the paper's
            hardware budget).
    """

    def __init__(
        self,
        num_perceptrons: int = 256,
        history_length: int = 24,
        weight_bits: int = 8,
    ) -> None:
        super().__init__()
        if num_perceptrons <= 0 or num_perceptrons & (num_perceptrons - 1):
            raise ValueError("num_perceptrons must be a power of two")
        if history_length <= 0:
            raise ValueError("history_length must be positive")
        self.num_perceptrons = num_perceptrons
        self._index_mask = num_perceptrons - 1
        self.history_length = history_length
        self.threshold = int(1.93 * history_length + 14)
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self._weight_min = -(1 << (weight_bits - 1))
        # weights[i] = [bias, w_1 .. w_h] pairs element-wise with
        # history = [1, x_1 .. x_h]: slot 0 is the constant bias input and
        # x_j in {-1, +1} is the j-th most recent outcome.
        self._weights = [[0] * (history_length + 1) for _ in range(num_perceptrons)]
        self._history = [1] * (history_length + 1)

    # ------------------------------------------------------------------

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._index_mask

    def update(self, pc: int, taken: bool) -> bool:
        # One dot product serves the prediction and the training test.
        weights = self._weights[(pc >> 2) & self._index_mask]
        y = sum(map(mul, weights, self._history))
        correct = (y >= 0) == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        self._learn(weights, y, taken, correct)
        return correct

    def _predict(self, pc: int) -> bool:
        return sum(map(mul, self._weights[self._index(pc)], self._history)) >= 0

    def _train(self, pc: int, taken: bool, predicted: bool) -> None:
        weights = self._weights[self._index(pc)]
        y = sum(map(mul, weights, self._history))
        self._learn(weights, y, taken, predicted == taken)

    def _learn(self, weights: list[int], y: int, taken: bool, correct: bool) -> None:
        """Train *weights* on output *y* if the prediction was wrong or
        weak, then shift the outcome into the global history."""
        history = self._history
        if not correct or -self.threshold <= y <= self.threshold:
            high = self._weight_max
            low = self._weight_min
            step = add if taken else sub
            weights[:] = [
                high if w > high else low if w < low else w
                for w in map(step, weights, history)
            ]
        # Newest outcome right after the bias input; the oldest drops off.
        history.insert(1, 1 if taken else -1)
        history.pop()
