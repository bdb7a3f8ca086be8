"""Property tests for the fast cores' replay of every predictor family.

Drives random ``(pc, outcome)`` streams, with and without read /
transition flags, through a predictor on the fast cores
(:func:`fast_replay`, and :func:`batch_replay` where the numpy backend
takes the predictor) and through its object ``predict``/``update``
(:func:`object_replay`) over one replay plan: every mispredicted branch
and the trained tables must match.  It also checks that a warm
predictor survives a pickle round trip mid-stream (warm tables keep
replaying identically) and that its tables are its whole state.
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


def replay_pair(predictor, replayed, plan, replay=fast_replay):
    """Replay ``plan`` through ``predictor``'s object ``update`` and
    through ``replay`` on ``replayed``; assert the same mispredicted
    branches and the same trained tables."""
    expected = object_replay(predictor, plan, np.full(plan.n, -1))
    assert replay(replayed, plan).tolist() == expected.tolist()
    assert object_state(replayed) == object_state(predictor)


@pytest.mark.parametrize("label", sorted(FACTORIES))
@settings(max_examples=25, deadline=None)
@given(stream=streams())
def test_kernel_matches_object_predictor(label, stream):
    factory = FACTORIES[label]
    plan, _ = stream_plan(*stream)
    replays = [fast_replay]
    if batch_supported(factory()):
        replays.append(batch_replay)
    for replay in replays:
        replay_pair(factory(), factory(), plan, replay)


@pytest.mark.parametrize("label", sorted(FACTORIES))
@settings(max_examples=25, deadline=None)
@given(stream=streams(), split=st.integers(min_value=0, max_value=200))
def test_pickle_roundtrip_mid_stream(label, stream, split):
    """Pickling a warm predictor must not perturb later predictions."""
    factory = FACTORIES[label]
    stream, flags = stream
    predictor = factory()
    replayed = factory()
    split = min(split, len(stream))
    head, history = stream_plan(stream[:split], flags and flags[:split])
    replay_pair(predictor, replayed, head)
    replayed = pickle.loads(pickle.dumps(replayed))
    tail, _ = stream_plan(stream[split:], flags and flags[split:], history)
    replay_pair(predictor, replayed, tail)


def _load_tables(predictor, state) -> None:
    """Give ``predictor`` copies of the tables in ``state`` (an
    :func:`object_state`), by assignment."""
    if isinstance(predictor, TournamentPredictor):
        predictor.chooser.table = list(state["chooser"])
        _load_tables(predictor.a, state["a"])
        _load_tables(predictor.b, state["b"])
    elif isinstance(predictor, PerceptronPredictor):
        predictor.weights.update(
            (i, row) for i, row in enumerate(state["weights"]) if any(row)
        )
    elif isinstance(predictor, TagePredictor):
        predictor.base.table = list(state["base"])
        for key in ("tags", "counters", "useful"):
            setattr(predictor, key, [list(t) for t in state[key]])
        predictor.ticks = state["ticks"]
    else:
        predictor.counters.table = list(state["table"])
        if "histories" in state:
            predictor.histories = list(state["histories"])


@pytest.mark.parametrize("label", sorted(FACTORIES))
def test_state_roundtrip(label):
    """A warm predictor's tables are its whole state: a fresh predictor
    given copies of them replays on exactly as the warm one does."""
    factory = FACTORIES[label]
    warm = factory()
    plan, history = stream_plan(
        [(pc & 255, (pc * 7) % 3 == 0) for pc in range(300)]
    )
    fast_replay(warm, plan)
    fresh = factory()
    _load_tables(fresh, object_state(warm))
    assert object_state(fresh) == object_state(warm)
    after, _ = stream_plan([(pc, pc % 3 == 1) for pc in range(64)],
                           history=history)
    assert fast_replay(fresh, after).tolist() == fast_replay(
        warm, after
    ).tolist()
    assert object_state(fresh) == object_state(warm)


def _wide_perceptron():
    return PerceptronPredictor(entries=4096, history_bits=10, weight_bits=4)


def _train(predictor, *events, ghr):
    fast_replay(predictor, make_plan(
        [pc for pc, _ in events], [t for _, t in events],
        ghr=[ghr] * len(events),
    ))


@pytest.mark.parametrize("duplicate", [
    lambda predictor: pickle.loads(pickle.dumps(predictor)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_perceptron_untouched_rows_round_trip(duplicate):
    """A perceptron that has touched 2 of its 4096 rows copies exactly;
    the copy makes an untouched row on first touch, and its rows are
    its own."""
    predictor = _wide_perceptron()
    _train(predictor, (3, True), (3, True), (70, False), ghr=0b1011)
    assert sorted(predictor.weights) == [3, 70]
    clone = duplicate(predictor)
    assert type(clone.weights) is WeightRows
    assert sorted(clone.weights) == [3, 70]
    assert object_state(clone) == object_state(predictor)
    assert len(object_state(clone)["weights"]) == 4096
    _train(clone, (4000, True), ghr=5)
    assert 4000 not in predictor.weights
    assert object_state(clone) != object_state(predictor)
    _train(predictor, (4000, True), ghr=5)
    assert object_state(clone) == object_state(predictor)
    # Read-only events: predictions without training.
    reads = make_plan([3, 70, 4000, 4001], [1, 0, 1, 0], trans=[0] * 4,
                      ghr=[0b1011] * 4)
    assert fast_replay(clone, reads).tolist() == fast_replay(
        predictor, reads
    ).tolist()
