"""Unit and property tests for the branch predictors."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GSharePredictor,
    NeverTakenPredictor,
    OraclePredictor,
    PerceptronPredictor,
    make_predictor,
)
from repro.workloads import get_workload

ALL_NAMES = ["perceptron", "gshare", "bimodal", "always-taken", "never-taken"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_factory_builds_each_predictor(name):
    predictor = make_predictor(name)
    predictor.update(0x1000, True)
    assert predictor.predictions == 1


def test_factory_rejects_unknown_names():
    with pytest.raises(ValueError):
        make_predictor("tage")


@pytest.mark.parametrize("name", ["perceptron", "gshare", "bimodal"])
def test_learns_strongly_biased_branch(name):
    predictor = make_predictor(name)
    for _ in range(200):
        predictor.update(0x4000, True)
    predictor.reset_stats()
    for _ in range(100):
        predictor.update(0x4000, True)
    assert predictor.accuracy >= 0.99


@pytest.mark.parametrize("name", ["perceptron", "gshare"])
def test_learns_alternating_pattern(name):
    """History-based predictors must learn a period-2 pattern perfectly."""
    predictor = make_predictor(name)
    for i in range(400):
        predictor.update(0x4000, i % 2 == 0)
    predictor.reset_stats()
    for i in range(100):
        predictor.update(0x4000, i % 2 == 0)
    assert predictor.accuracy >= 0.98


def test_bimodal_cannot_learn_alternation():
    predictor = BimodalPredictor()
    for i in range(400):
        predictor.update(0x4000, i % 2 == 0)
    assert predictor.accuracy <= 0.75


def test_perceptron_beats_random_on_correlated_branches():
    """Branch B repeats the outcome of branch A — a correlation only a
    history-based predictor can exploit."""
    rng = random.Random(42)
    perceptron = PerceptronPredictor()
    bimodal = BimodalPredictor()
    for _ in range(2000):
        outcome = rng.random() < 0.5
        for predictor in (perceptron, bimodal):
            predictor.update(0x100, outcome)
            predictor.update(0x200, outcome)
    assert perceptron.accuracy > bimodal.accuracy + 0.15


def test_perceptron_threshold_formula():
    predictor = PerceptronPredictor(history_length=24)
    assert predictor.threshold == int(1.93 * 24 + 14)


def test_perceptron_weights_saturate():
    predictor = PerceptronPredictor(num_perceptrons=4, history_length=4, weight_bits=4)
    for _ in range(1000):
        predictor.update(0x0, True)
    weights = predictor._weights[predictor._index(0x0)]
    assert all(-8 <= w <= 7 for w in weights)


def test_perceptron_validates_arguments():
    with pytest.raises(ValueError):
        PerceptronPredictor(num_perceptrons=100)  # not a power of two
    with pytest.raises(ValueError):
        PerceptronPredictor(history_length=0)


def test_gshare_validates_arguments():
    with pytest.raises(ValueError):
        GSharePredictor(table_bits=8, history_length=10)


def test_static_predictors():
    taken = AlwaysTakenPredictor()
    never = NeverTakenPredictor()
    assert taken.predict(0x0) is True
    assert never.predict(0x0) is False
    taken.update(0x0, False)
    assert taken.mispredictions == 1
    never.update(0x0, False)
    assert never.mispredictions == 0


def test_accuracy_without_predictions_is_one():
    assert PerceptronPredictor().accuracy == 1.0


def test_reset_stats_keeps_learned_state():
    predictor = PerceptronPredictor()
    for _ in range(200):
        predictor.update(0x4000, True)
    predictor.reset_stats()
    assert predictor.predictions == 0
    assert predictor.predict(0x4000) is True


# ----------------------------------------------------------------------
# Gshare internals: saturation, history wraparound, table aliasing
# ----------------------------------------------------------------------


def test_gshare_counters_saturate_and_hysterese():
    """Counters clamp at [0, 3] and a saturated branch survives one blip."""
    predictor = GSharePredictor(table_bits=4, history_length=0)
    idx = predictor._index(0x40)
    for _ in range(50):
        predictor.update(0x40, True)
    assert predictor._counters[idx] == 3  # saturated, not 50
    predictor.update(0x40, False)
    assert predictor._counters[idx] == 2
    assert predictor.predict(0x40) is True  # hysteresis: still taken
    for _ in range(50):
        predictor.update(0x40, False)
    assert predictor._counters[idx] == 0  # clamps at zero


def test_gshare_history_wraps_at_history_length():
    """The global history register is exactly history_length bits wide."""
    predictor = GSharePredictor(table_bits=8, history_length=5)
    for _ in range(64):  # far more outcomes than history bits
        predictor.update(0x80, True)
    assert predictor._history == (1 << 5) - 1  # all-ones, no overflow
    predictor.update(0x80, False)
    assert predictor._history == 0b11110


def test_gshare_table_aliasing():
    """PCs congruent modulo the table size share (and fight over) one
    counter, while non-congruent PCs stay independent."""
    predictor = GSharePredictor(table_bits=2, history_length=0)
    assert predictor._index(0x0) == predictor._index(0x10)  # 4-entry table
    assert predictor._index(0x0) != predictor._index(0x4)
    for _ in range(10):
        predictor.update(0x0, False)
    # The alias inherits the learned not-taken bias; the neighbour keeps
    # the weakly-taken initial state.
    assert predictor.predict(0x10) is False
    assert predictor.predict(0x4) is True


def test_gshare_history_disambiguates_aliases():
    """With history bits in the index, the same PC maps to different
    counters under different global histories — the point of gshare."""
    a = GSharePredictor(table_bits=6, history_length=6)
    idx_empty = a._index(0x100)
    a.update(0x200, True)  # shifts history
    assert a._index(0x100) != idx_empty


# ----------------------------------------------------------------------
# Perceptron internals: training dynamics
# ----------------------------------------------------------------------


def test_perceptron_stops_training_when_confident():
    """Once |y| exceeds θ and the prediction is correct, weights freeze —
    the Jiménez & Lin training rule."""
    predictor = PerceptronPredictor(num_perceptrons=4, history_length=4)
    for _ in range(100):
        predictor.update(0x0, True)
    frozen = [row[:] for row in predictor._weights]
    predictor.update(0x0, True)
    assert predictor._weights == frozen
    # ... but a misprediction always trains, even when |y| is large.
    predictor.update(0x0, False)
    assert predictor._weights != frozen


def test_perceptron_bias_learns_history_free_branch():
    """A branch uncorrelated with history is carried by the bias weight."""
    predictor = PerceptronPredictor(num_perceptrons=4, history_length=4)
    for _ in range(40):
        predictor.update(0x0, True)
    weights = predictor._weights[predictor._index(0x0)]
    assert weights[0] > 0  # bias votes taken


class TwoPassPerceptron:
    """Reference: the perceptron as it trained before its one-pass update.

    One dot product for the prediction and a second one for the training
    test, over a history list without the bias input (newest outcome at
    index 0, ``weights[i + 1]`` pairing with ``history[i]``).
    """

    def __init__(self, num_perceptrons=256, history_length=24, weight_bits=8):
        self.num_perceptrons = num_perceptrons
        self.history_length = history_length
        self.threshold = int(1.93 * history_length + 14)
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self._weight_min = -(1 << (weight_bits - 1))
        self._weights = [[0] * (history_length + 1) for _ in range(num_perceptrons)]
        self._history = [1] * history_length
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc):
        return (pc >> 2) & (self.num_perceptrons - 1)

    def _output(self, pc):
        w = self._weights[self._index(pc)]
        y = w[0]
        for i in range(self.history_length):
            y += w[i + 1] * self._history[i]
        return y

    def _saturate(self, value):
        return max(self._weight_min, min(self._weight_max, value))

    def _train(self, pc, taken, predicted):
        y = self._output(pc)
        t = 1 if taken else -1
        if predicted != taken or abs(y) <= self.threshold:
            w = self._weights[self._index(pc)]
            w[0] = self._saturate(w[0] + t)
            for i in range(self.history_length):
                w[i + 1] = self._saturate(w[i + 1] + t * self._history[i])
        self._history.insert(0, t)
        self._history.pop()

    def update(self, pc, taken):
        predicted = self._output(pc) >= 0
        self.predictions += 1
        if predicted != taken:
            self.mispredictions += 1
        self._train(pc, taken, predicted)
        return predicted == taken


def _conditional_branches(benchmark):
    trace = get_workload(benchmark).trace(10_000)
    return [(i.pc, bool(i.taken)) for i in trace if i.is_cond_branch]


def _saturating_stream():
    # Weights of 3 bits top out at +3, so |y| <= 9 * 4 stays within
    # theta = 29 long enough that an always-taken branch keeps training
    # into the bound, while a random branch pulls others to the floor.
    rng = random.Random(11)
    stream = [(0x40, True)] * 60
    stream += [(rng.randrange(64) * 4, rng.random() < 0.3) for _ in range(400)]
    return stream


@pytest.mark.parametrize(
    "stream,geometry",
    [
        pytest.param(lambda: _conditional_branches("mcf"), {}, id="mcf"),
        pytest.param(lambda: _conditional_branches("twolf"), {}, id="twolf"),
        pytest.param(
            _saturating_stream,
            {"num_perceptrons": 4, "history_length": 8, "weight_bits": 3},
            id="saturating",
        ),
    ],
)
def test_perceptron_one_pass_update_matches_two_pass_reference(stream, geometry):
    branches = stream()
    predictor = PerceptronPredictor(**geometry)
    reference = TwoPassPerceptron(**geometry)
    verdicts = [predictor.update(pc, taken) for pc, taken in branches]
    assert verdicts == [reference.update(pc, taken) for pc, taken in branches]
    assert (predictor.predictions, predictor.mispredictions) == (
        reference.predictions,
        reference.mispredictions,
    )
    assert predictor._weights == reference._weights
    # The one-pass history carries the constant bias input in slot 0.
    assert predictor._history == [1] + reference._history
    if geometry:
        flat = [w for row in reference._weights for w in row]
        assert reference._weight_max in flat and reference._weight_min in flat


# ----------------------------------------------------------------------
# Oracle bound
# ----------------------------------------------------------------------


def test_oracle_never_mispredicts():
    predictor = OraclePredictor()
    rng = random.Random(7)
    for _ in range(500):
        assert predictor.update(rng.randrange(1 << 20), rng.random() < 0.5)
    assert predictor.predictions == 500
    assert predictor.mispredictions == 0
    assert predictor.accuracy == 1.0


# ----------------------------------------------------------------------
# Parameterized factory spellings (the bp= axis of ooo-bp/dual)
# ----------------------------------------------------------------------


def test_factory_accepts_parameterized_spellings():
    gshare = make_predictor("gshare-14")
    assert isinstance(gshare, GSharePredictor)
    assert (gshare.table_bits, gshare.history_length) == (14, 14)
    perceptron = make_predictor("perceptron-64-16")
    assert isinstance(perceptron, PerceptronPredictor)
    assert (perceptron.num_perceptrons, perceptron.history_length) == (64, 16)
    assert isinstance(make_predictor("static"), AlwaysTakenPredictor)
    assert isinstance(make_predictor("oracle"), OraclePredictor)


def test_factory_rejects_kwargs_on_parameterized_spellings():
    with pytest.raises(ValueError, match="keyword arguments"):
        make_predictor("gshare-14", table_bits=10)


# ----------------------------------------------------------------------
# Cross-process determinism: prediction streams carry no hidden state
# ----------------------------------------------------------------------

_DETERMINISM_SCRIPT = """
import json, random
from repro.branch import make_predictor

results = {}
for spec in ("gshare-10", "perceptron-64-12", "bimodal-8"):
    rng = random.Random(1234)
    predictor = make_predictor(spec)
    correct = 0
    for _ in range(2000):
        pc = rng.randrange(0, 1 << 16) & ~0x3
        taken = rng.random() < 0.6
        correct += predictor.update(pc, taken)
    results[spec] = [correct, predictor.predictions, predictor.mispredictions]
print(json.dumps(results, sort_keys=True))
"""


def _run_determinism_probe() -> str:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout.strip()


def test_prediction_streams_deterministic_across_processes():
    """Two fresh interpreters produce bit-identical prediction streams —
    no dict-order, hash-seed or id()-derived state leaks into predictions
    (the property the result store's cache keys rely on)."""
    first = _run_determinism_probe()
    second = _run_determinism_probe()
    assert first == second
    stats = json.loads(first)
    for spec, (correct, predictions, mispredictions) in stats.items():
        assert predictions == 2000, spec
        assert correct + mispredictions == predictions, spec


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()), min_size=1, max_size=200)
)
def test_property_stats_always_consistent(events):
    """For any update sequence: mispredictions <= predictions, and accuracy
    stays within [0, 1]."""
    predictor = PerceptronPredictor(num_perceptrons=16, history_length=8)
    for pc, taken in events:
        predictor.update(pc, taken)
    assert 0 <= predictor.mispredictions <= predictor.predictions == len(events)
    assert 0.0 <= predictor.accuracy <= 1.0
