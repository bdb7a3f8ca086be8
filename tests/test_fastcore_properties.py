"""Property tests for the flat predictor kernels.

Drives random ``(pc, outcome)`` streams through an object predictor and
its kernel side by side via the scalar ABI — every prediction must
match at every step — and checks that kernel state survives a pickle
round trip mid-stream (warm tables keep predicting identically).
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors import (
    BimodalPredictor,
    GAgPredictor,
    GSelectPredictor,
    GSharePredictor,
    LocalPredictor,
    PerceptronPredictor,
    TagePredictor,
    TournamentPredictor,
)
from repro.predictors.perceptron import WeightRows
from repro.sim.fastcore import kernel_from_predictor

pytestmark = pytest.mark.fastcore

def _small_tage():
    predictor = TagePredictor(
        base_entries=64, table_entries=16, min_history=2,
        max_history=40, tag_bits=5,
    )
    predictor.aging_period = 8  # reach the global aging path
    return predictor


FACTORIES = {
    "bimodal": lambda: BimodalPredictor(entries=64),
    "gshare": lambda: GSharePredictor(entries=64, history_bits=6),
    "gselect": lambda: GSelectPredictor(entries=64, history_bits=3),
    "gag": lambda: GAgPredictor(entries=64),
    "local": lambda: LocalPredictor(
        entries=64, local_entries=8, history_bits=6
    ),
    "tournament": lambda: TournamentPredictor(
        entries=64,
        component_a=LocalPredictor(64, local_entries=8, history_bits=6),
        component_b=GSharePredictor(64),
    ),
    "tournament-gselect": lambda: TournamentPredictor(
        entries=32,
        component_a=BimodalPredictor(16),
        component_b=GSelectPredictor(64, history_bits=3),
    ),
    "perceptron": lambda: PerceptronPredictor(
        entries=8, history_bits=10, weight_bits=4
    ),
    "tage": _small_tage,
}

HISTORY_MASK = (1 << 32) - 1

#: A random branch stream: (pc, taken) pairs.
streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255), st.booleans()
    ),
    min_size=1,
    max_size=200,
)


def run_pair(predictor, kernel, stream):
    """Step both sides through the stream; history evolves as in the
    driver (outcome shifted in at predict time, LSB most recent)."""
    history = 0
    for pc, taken in stream:
        expected = predictor.predict(pc, history)
        got, _ = kernel.predict(pc, history)
        assert bool(got) == bool(expected), (pc, taken, history)
        predictor.update(pc, history, taken)
        kernel.train(pc, history, taken)
        history = ((history << 1) | int(taken)) & HISTORY_MASK


@pytest.mark.parametrize("label", sorted(FACTORIES))
@settings(max_examples=25, deadline=None)
@given(stream=streams)
def test_kernel_matches_object_predictor(label, stream):
    factory = FACTORIES[label]
    run_pair(factory(), kernel_from_predictor(factory()), stream)


@pytest.mark.parametrize("label", sorted(FACTORIES))
@settings(max_examples=25, deadline=None)
@given(stream=streams, split=st.integers(min_value=0, max_value=200))
def test_pickle_roundtrip_mid_stream(label, stream, split):
    """Pickling a warm kernel must not perturb later predictions."""
    factory = FACTORIES[label]
    predictor = factory()
    kernel = kernel_from_predictor(factory())
    split = min(split, len(stream))
    run_pair(predictor, kernel, stream[:split])
    kernel = pickle.loads(pickle.dumps(kernel))
    run_pair(predictor, kernel, stream[split:])


@pytest.mark.parametrize("label", sorted(FACTORIES))
def test_state_roundtrip(label):
    """state()/load_state() is an exact snapshot of a warm kernel."""
    factory = FACTORIES[label]
    warm = kernel_from_predictor(factory())
    history = 0
    for pc in range(300):
        taken = (pc * 7) % 3 == 0
        warm.train(pc & 255, history, taken)
        history = ((history << 1) | int(taken)) & HISTORY_MASK
    fresh = kernel_from_predictor(factory())
    fresh.load_state(warm.state())
    assert fresh.state() == warm.state()
    for pc in range(64):
        assert fresh.predict(pc, history) == warm.predict(pc, history)


def _reloaded(kernel):
    clone = kernel_from_predictor(_wide_perceptron())
    clone.load_state(kernel.state())
    return clone


def _wide_perceptron():
    return PerceptronPredictor(entries=4096, history_bits=10, weight_bits=4)


@pytest.mark.parametrize("duplicate", [
    lambda kernel: pickle.loads(pickle.dumps(kernel)),
    copy.deepcopy,
    _reloaded,
], ids=["pickle", "deepcopy", "load_state"])
def test_perceptron_untouched_rows_round_trip(duplicate):
    """A perceptron kernel that has touched 2 of its 4096 rows copies
    exactly; the copy makes an untouched row on first touch, and its
    rows are its own."""
    kernel = kernel_from_predictor(_wide_perceptron())
    for pc, taken in ((3, True), (3, True), (70, False)):
        kernel.train(pc, 0b1011, taken)
    assert sorted(kernel.weights) == [3, 70]
    clone = duplicate(kernel)
    assert type(clone.weights) is WeightRows
    assert clone.state() == kernel.state()
    assert len(clone.state()["weights"]) == 4096
    clone.train(4000, 5, True)
    assert 4000 not in kernel.weights
    assert clone.state() != kernel.state()
    kernel.train(4000, 5, True)
    assert clone.state() == kernel.state()
    for pc in (3, 70, 4000, 4001):
        assert clone.predict(pc, 0b1011) == kernel.predict(pc, 0b1011)


def test_load_state_rejects_wrong_size():
    kernel = kernel_from_predictor(FACTORIES["gshare"]())
    state = kernel.state()
    bad = dict(state)
    bad["table"] = bad["table"][:-1]
    with pytest.raises(ValueError):
        kernel.load_state(bad)


@pytest.mark.parametrize("label, key", [
    ("tournament", "chooser"),
    ("perceptron", "weights"),
    ("tage", "base"),
    ("tage", "useful"),
])
def test_composite_load_state_rejects_wrong_size(label, key):
    kernel = kernel_from_predictor(FACTORIES[label]())
    before = kernel.state()
    bad = dict(before)
    bad[key] = bad[key][:-1]
    with pytest.raises(ValueError):
        kernel.load_state(bad)
    assert kernel.state() == before  # a rejected load changes nothing
