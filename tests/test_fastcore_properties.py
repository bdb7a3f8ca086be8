"""Property tests for the flat predictor kernels.

Drives random ``(pc, outcome)`` streams, with and without read /
transition flags, through a kernel (:func:`fast_replay`, and
:func:`batch_replay` where the numpy backend takes the kernel) and
through its object predictor (:func:`object_replay`) over one replay
plan: every mispredicted branch and the trained tables must match.  It
also checks that kernel state survives a pickle round trip mid-stream
(warm tables keep replaying identically) and ``state``/``load_state``.
"""

import copy
import pickle

import numpy as np
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
from repro.sim.fastcore import (
    batch_replay,
    batch_supported,
    fast_replay,
    kernel_from_predictor,
    object_replay,
)
from tests.replay_oracle import make_plan, object_state

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
    "tournament-local-local": lambda: TournamentPredictor(
        entries=16,
        component_a=LocalPredictor(64, local_entries=8, history_bits=6),
        component_b=LocalPredictor(32, local_entries=4, history_bits=3),
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

HISTORY_MASK = (1 << 64) - 1


@st.composite
def streams(draw):
    """A random branch stream: ``(pc, taken)`` pairs, and per-event read
    and transition flags on about half of the streams."""
    stream = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.booleans()),
        min_size=1,
        max_size=200,
    ))
    flags = None
    if draw(st.booleans()):
        flags = draw(st.lists(
            st.tuples(st.booleans(), st.booleans()),
            min_size=len(stream), max_size=len(stream),
        ))
    return stream, flags


def stream_plan(stream, flags=None, history=0):
    """The plan of ``stream``, history evolving as in the driver
    (outcome shifted in at predict time, LSB most recent); returns the
    plan and the history after it."""
    ghr = []
    for _, taken in stream:
        ghr.append(history)
        history = ((history << 1) | int(taken)) & HISTORY_MASK
    read = trans = None
    if flags is not None:
        read = [r for r, _ in flags]
        trans = [t for _, t in flags]
    plan = make_plan(
        [pc for pc, _ in stream], [t for _, t in stream], read, trans, ghr
    )
    return plan, history


def replay_pair(predictor, kernel, plan, replay=fast_replay):
    """Replay ``plan`` through both sides; assert the same mispredicted
    branches and the same trained tables."""
    expected = object_replay(predictor, plan, np.full(plan.n, -1))
    assert replay(kernel, plan).tolist() == expected.tolist()
    assert kernel.state() == object_state(predictor)


@pytest.mark.parametrize("label", sorted(FACTORIES))
@settings(max_examples=25, deadline=None)
@given(stream=streams())
def test_kernel_matches_object_predictor(label, stream):
    factory = FACTORIES[label]
    plan, _ = stream_plan(*stream)
    replays = [fast_replay]
    if batch_supported(kernel_from_predictor(factory())):
        replays.append(batch_replay)
    for replay in replays:
        replay_pair(factory(), kernel_from_predictor(factory()), plan,
                    replay)


@pytest.mark.parametrize("label", sorted(FACTORIES))
@settings(max_examples=25, deadline=None)
@given(stream=streams(), split=st.integers(min_value=0, max_value=200))
def test_pickle_roundtrip_mid_stream(label, stream, split):
    """Pickling a warm kernel must not perturb later predictions."""
    factory = FACTORIES[label]
    stream, flags = stream
    predictor = factory()
    kernel = kernel_from_predictor(factory())
    split = min(split, len(stream))
    head, history = stream_plan(stream[:split], flags and flags[:split])
    replay_pair(predictor, kernel, head)
    kernel = pickle.loads(pickle.dumps(kernel))
    tail, _ = stream_plan(stream[split:], flags and flags[split:], history)
    replay_pair(predictor, kernel, tail)


@pytest.mark.parametrize("label", sorted(FACTORIES))
def test_state_roundtrip(label):
    """state()/load_state() is an exact snapshot of a warm kernel."""
    factory = FACTORIES[label]
    warm = kernel_from_predictor(factory())
    plan, history = stream_plan(
        [(pc & 255, (pc * 7) % 3 == 0) for pc in range(300)]
    )
    fast_replay(warm, plan)
    fresh = kernel_from_predictor(factory())
    fresh.load_state(warm.state())
    assert fresh.state() == warm.state()
    after, _ = stream_plan([(pc, pc % 3 == 1) for pc in range(64)],
                           history=history)
    assert fast_replay(fresh, after).tolist() == fast_replay(
        warm, after
    ).tolist()
    assert fresh.state() == warm.state()


def _reloaded(kernel):
    clone = kernel_from_predictor(_wide_perceptron())
    clone.load_state(kernel.state())
    return clone


def _wide_perceptron():
    return PerceptronPredictor(entries=4096, history_bits=10, weight_bits=4)


def _train(kernel, *events, ghr):
    fast_replay(kernel, make_plan(
        [pc for pc, _ in events], [t for _, t in events],
        ghr=[ghr] * len(events),
    ))


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
    _train(kernel, (3, True), (3, True), (70, False), ghr=0b1011)
    assert sorted(kernel.weights) == [3, 70]
    clone = duplicate(kernel)
    assert type(clone.weights) is WeightRows
    assert sorted(clone.weights) == [3, 70]
    assert clone.state() == kernel.state()
    assert len(clone.state()["weights"]) == 4096
    _train(clone, (4000, True), ghr=5)
    assert 4000 not in kernel.weights
    assert clone.state() != kernel.state()
    _train(kernel, (4000, True), ghr=5)
    assert clone.state() == kernel.state()
    # Read-only events: predictions without training.
    reads = make_plan([3, 70, 4000, 4001], [1, 0, 1, 0], trans=[0] * 4,
                      ghr=[0b1011] * 4)
    assert fast_replay(clone, reads).tolist() == fast_replay(
        kernel, reads
    ).tolist()


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
