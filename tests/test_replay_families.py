"""The vectorised family and fetch replays against their per-event
oracles.

Hypothesis drives random streams through the composed tournament
replay, the lane-packed perceptron loop and the vectorised fetch replay,
and through the per-event loops they replace (``_replay_tournament``
and ``tests/replay_oracle.py``).  Mispredict positions, every table,
local histories, perceptron weights and fetch cycle breakdowns must
match exactly.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import BranchKind
from repro.pipeline.fetchsim import FetchModel, simulate_frontend
from repro.predictors import (
    BimodalPredictor,
    GSharePredictor,
    PerceptronPredictor,
    TournamentPredictor,
)
from repro.sim.driver import BranchFlags
from repro.sim.fastcore import fast_replay, replay
from repro.sim.fastcore.replay import (
    _replay_perceptron,
    _replay_tournament,
    replay_tournament_runs,
)
from repro.trace.container import Trace, TraceMeta
from tests.replay_oracle import (
    make_plan,
    object_state,
    replay_perceptron,
    simulate_frontend_loop,
)
from tests.test_replay_runs import (
    FLAG_KINDS,
    SIZES,
    flag_arrays,
    local_streams,
    start_table,
)

pytestmark = pytest.mark.fastcore


@st.composite
def tournament_streams(draw):
    """A (local, table predictor) tournament with random start state and
    a uniform stream over it."""
    local, pc, taken, _, _ = draw(local_streams())
    b_entries = draw(st.sampled_from(SIZES))
    if draw(st.booleans()):
        b = GSharePredictor(
            b_entries, history_bits=draw(st.sampled_from((0, 4, 12)))
        )
    else:
        b = BimodalPredictor(b_entries)
    b.counters.table = start_table(draw, b_entries)
    chooser_entries = draw(st.sampled_from(SIZES))
    predictor = TournamentPredictor(chooser_entries, local, b)
    predictor.chooser.table = start_table(draw, chooser_entries)
    seed = draw(st.integers(0, 2**32 - 1))
    ghr = np.random.default_rng(seed).integers(
        0, 1 << 16, pc.shape[0]
    ).astype(np.uint64)
    return predictor, pc, ghr, taken


@settings(max_examples=200, deadline=None)
@given(stream=tournament_streams())
def test_composed_tournament_matches_loop(stream):
    predictor, pc, ghr, taken = stream
    ones = np.ones(pc.shape[0], dtype=np.uint8)
    oracle = copy.deepcopy(predictor)
    expected = _replay_tournament(oracle, pc, ghr, taken, ones, ones)
    got = replay_tournament_runs(predictor, pc, ghr, taken, ones)
    assert got.dtype == np.int64
    assert got.tolist() == expected
    assert object_state(predictor) == object_state(oracle)


@st.composite
def perceptron_streams(draw):
    """A perceptron, fresh (rows made on first touch) or with random
    start weights, and a stream whose pcs and histories repeat, so
    outputs are reused between trainings.  Weight limits cover 0-9,
    127 and two that widen the lanes, histories 0-64 bits;
    one-direction streams push weights into the clip.  Limits and
    thresholds the constructor does not make are set as attributes."""
    entries = draw(st.sampled_from((1, 4, 64, 4096)))
    history_bits = draw(st.sampled_from((0, 1, 5, 12)) | st.integers(1, 64))
    # The three widest need 32-, 64- and 128-bit lanes.
    limit = draw(st.integers(0, 9)
                 | st.sampled_from((127, 2**15 - 1, 2**31 - 1, 2**62 - 1)))
    predictor = _perceptron(entries, history_bits, limit,
                            draw(st.sampled_from((0, 1, 5, 37, 200))))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        predictor.weights.update(enumerate(rng.integers(
            -limit, limit + 1, (entries, history_bits + 1)
        ).tolist()))
    count = draw(st.integers(0, 300))
    pcs = rng.integers(0, 4 * entries, draw(st.integers(1, 6)))
    histories = rng.integers(0, 2**64, draw(st.integers(1, 6)),
                             dtype=np.uint64)
    pc = rng.choice(pcs, count).astype(np.int64)
    ghr = rng.choice(histories, count).astype(np.uint64)
    bias = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    taken = (rng.random(count) < bias).astype(np.uint8)
    read, trans = flag_arrays(draw(st.sampled_from(FLAG_KINDS)), rng, count)
    return predictor, pc, ghr, taken, read, trans


def _perceptron(entries, history_bits, limit, threshold):
    predictor = PerceptronPredictor(entries, history_bits)
    predictor.weight_limit = limit
    predictor.threshold = threshold
    return predictor


@settings(max_examples=300, deadline=None)
@given(stream=perceptron_streams())
def test_memoized_perceptron_matches_loop(stream):
    predictor, pc, ghr, taken, read, trans = stream
    oracle = copy.deepcopy(predictor)
    expected = replay_perceptron(oracle, pc, ghr, taken, read, trans)
    got = _replay_perceptron(predictor, pc, ghr, taken, read, trans)
    assert got == expected
    assert object_state(predictor) == object_state(oracle)
    assert sorted(predictor.weights) == sorted(oracle.weights)


@settings(max_examples=50, deadline=None)
@given(stream=perceptron_streams(), chunk=st.integers(1, 40))
def test_chunked_perceptron_matches_loop(stream, chunk):
    """Rows packed at every chunk's start and written back at its end
    carry the state across chunks exactly."""
    predictor, pc, ghr, taken, read, trans = stream
    oracle = copy.deepcopy(predictor)
    expected = replay_perceptron(oracle, pc, ghr, taken, read, trans)
    with mock.patch.object(replay, "CHUNK_EVENTS", chunk):
        got = fast_replay(predictor, make_plan(pc, taken, read, trans, ghr))
    assert got.tolist() == expected
    assert object_state(predictor) == object_state(oracle)


@pytest.mark.parametrize("limit", list(range(10)) + [127])
@pytest.mark.parametrize("history_bits", [1, 16, 64])
@pytest.mark.parametrize("taken", [0, 1])
def test_perceptron_lanes_clip(limit, history_bits, taken):
    """One row trained in one direction on alternating histories until
    its weights saturate: every lane reaches the clip, both ways."""
    predictor = _perceptron(4, history_bits, limit, threshold=10**6)
    oracle = copy.deepcopy(predictor)
    count = 2 * limit + 6
    ghr = np.tile(np.array([0, 2**history_bits - 1], dtype=np.uint64),
                  count)
    pc = np.full(2 * count, 2, dtype=np.int64)
    outcome = np.full(2 * count, taken, dtype=np.uint8)
    ones = np.ones(2 * count, dtype=np.uint8)
    expected = replay_perceptron(oracle, pc, ghr, outcome, ones, ones)
    got = _replay_perceptron(predictor, pc, ghr, outcome, ones, ones)
    assert got == expected
    assert object_state(predictor) == object_state(oracle)
    bias = limit if taken else -limit
    assert predictor.weights[2][0] == bias


def test_perceptron_rejects_negative_threshold():
    """The replay's training rule assumes a threshold of 0 or more."""
    predictor = _perceptron(4, 3, 2, -1)
    with pytest.raises(ValueError):
        fast_replay(predictor, make_plan([1], [1]))


def _fetch_case(idx, taken, correct, misfetch, instructions):
    n = len(idx)
    trace = Trace.from_lists(
        b_pc=[0] * n,
        b_idx=idx,
        b_taken=taken,
        b_guard=[0] * n,
        b_guard_def=[-1] * n,
        b_kind=[int(BranchKind.COND)] * n,
        b_region=[False] * n,
        b_target=[0] * n,
        d_pc=[], d_idx=[], d_value=[], d_pred=[],
        meta=TraceMeta(instructions=instructions),
    )
    flags = BranchFlags(
        correct=np.asarray(correct, dtype=bool).reshape(n),
        squashed=np.zeros(n, dtype=bool),
        misfetch=np.asarray(misfetch, dtype=bool).reshape(n),
    )
    return trace, flags


def _assert_same_frontend(trace, flags, model):
    expected = simulate_frontend_loop(trace, flags, model)
    got = simulate_frontend(trace, flags, model)
    assert got == expected
    for field in ("cycles", "fetch_cycles", "mispredict_cycles",
                  "misfetch_cycles", "bubble_cycles"):
        assert type(getattr(got, field)) is float, field


@st.composite
def fetch_streams(draw):
    count = draw(st.integers(0, 40))
    gaps = draw(st.lists(
        st.integers(1, 9), min_size=count, max_size=count
    ))
    idx = (np.cumsum(gaps) - 1).tolist()
    tail = draw(st.integers(0, 12))
    instructions = (idx[-1] + 1 if idx else 0) + tail
    bools = st.lists(st.booleans(), min_size=count, max_size=count)
    case = _fetch_case(
        idx, draw(bools), draw(bools), draw(bools), instructions
    )
    model = FetchModel(
        width=draw(st.sampled_from((1, 2, 6, 8))),
        mispredict_penalty=draw(st.integers(0, 12)),
        misfetch_penalty=draw(st.integers(0, 4)),
        taken_bubble=draw(st.integers(0, 2)),
    )
    return case + (model,)


@settings(max_examples=300, deadline=None)
@given(stream=fetch_streams())
def test_vectorised_fetch_matches_loop(stream):
    _assert_same_frontend(*stream)


@pytest.mark.parametrize("width", [1, 6])
@pytest.mark.parametrize(
    "idx, taken, correct, instructions",
    [
        ([], [], [], 0),  # no branches, no instructions
        ([], [], [], 13),  # no branches: one tail run
        ([3, 7, 12], [0, 1, 1], [1, 0, 1], 13),  # last branch ends it
        ([0, 4, 9], [0, 0, 0], [1, 1, 1], 20),  # no run ever breaks
        ([0, 1, 2], [1, 1, 0], [1, 1, 0], 3),  # back-to-back breaks
    ],
    ids=["empty", "no-branches", "zero-tail", "never-breaks", "dense"],
)
def test_vectorised_fetch_edge_cases(width, idx, taken, correct,
                                     instructions):
    trace, flags = _fetch_case(
        idx, taken, correct, [1] * len(idx), instructions
    )
    _assert_same_frontend(trace, flags, FetchModel(width=width))
