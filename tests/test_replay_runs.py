"""The run scan against the per-event oracles.

Hypothesis drives random event streams (indices, outcomes, read and
transition flags) through the replay paths of ``repro.sim.fastcore``, and
through the object predictors (:func:`object_replay`) or the per-event
loops of ``tests/replay_oracle.py``; mispredict positions, final tables
and local histories must match exactly.  The
streams draw their indices from a small pool, so counters see long
runs as well as alternating ones; their events read and train, or are
read-only, train-only and mixed (:data:`FLAG_KINDS`).  They cover
saturated and random start tables, tables and history tables beyond
65,536 entries (with keys too wide to pack, the argsort branch of
``group_events``), and local histories assigned to the predictor
(including bits above the history length).
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors import (
    BimodalPredictor,
    GSharePredictor,
    LocalPredictor,
    TournamentPredictor,
)
from repro.sim.fastcore import batch_replay, fast_replay, object_replay
from repro.sim.fastcore.kernels import group_events
from repro.sim.fastcore.replay import replay_runs
from tests.replay_oracle import (
    make_plan,
    object_state,
    oracle_replay,
    replay_local,
    replay_table_flags,
    replay_table_uniform,
)

pytestmark = pytest.mark.fastcore

SIZES = (1, 4, 64, 1 << 17)


def start_table(draw, entries):
    kind = draw(st.sampled_from(["fresh", "zeros", "threes", "random"]))
    if kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        return rng.integers(0, 4, entries).tolist()
    return [{"fresh": 1, "zeros": 0, "threes": 3}[kind]] * entries


@st.composite
def events(draw, span, flags):
    """(values, taken, read, trans): values drawn from a small pool of
    ``[0, span)``, each event repeated 1-5 times so runs form."""
    pool = draw(st.lists(
        st.integers(0, span - 1), min_size=1, max_size=6
    ))
    bias = draw(st.sampled_from([0.5, 0.9]))
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(0, 40))
    rng = np.random.default_rng(seed)
    repeats = rng.integers(1, 6, count)
    value = np.repeat(rng.choice(pool, count), repeats)
    taken = np.repeat(rng.random(count) < bias, repeats)
    n = int(value.shape[0])
    read, trans = flag_arrays(
        draw(st.sampled_from(FLAG_KINDS)) if flags else "uniform", rng, n
    )
    return (value.astype(np.int64), taken.astype(np.uint8), read, trans)


#: How a stream's events read and train: all read+train; read-only,
#: train-only and read+train events at random (flags drawn
#: independently); read-only and train-only events alternating at
#: random, as delayed update produces; every event read-only; every
#: event train-only.
FLAG_KINDS = ("uniform", "random", "split", "read", "train")


def flag_arrays(kind, rng, n):
    """``uint8`` per-event (read, trans) flags of one of
    :data:`FLAG_KINDS`."""
    ones = np.ones(n, dtype=bool)
    if kind == "random":
        read = rng.random(n) < 0.7
        trans = rng.random(n) < 0.7
    elif kind == "split":
        read = rng.random(n) < 0.5
        trans = ~read
    else:
        read = ones if kind != "train" else ~ones
        trans = ones if kind != "read" else ~ones
    return read.astype(np.uint8), trans.astype(np.uint8)


@st.composite
def table_streams(draw, flags=False):
    entries = draw(st.sampled_from(SIZES))
    table = start_table(draw, entries)
    return (table,) + draw(events(entries, flags))


@settings(max_examples=150, deadline=None)
@given(stream=table_streams())
def test_replay_runs_matches_oracle(stream):
    table, idx, taken, _, _ = stream
    expected_table = list(table)
    expected = replay_table_uniform(
        expected_table, idx.tolist(), taken.tolist()
    )
    got = replay_runs(table, idx, taken)
    assert got.tolist() == expected
    assert got.dtype == np.int64
    assert table == expected_table


@settings(max_examples=200, deadline=None)
@given(stream=table_streams(flags=True))
def test_flagged_scan_matches_oracle(stream):
    """The run scan on read-only, train-only and mixed events."""
    table, idx, taken, read, trans = stream
    expected_table = list(table)
    expected = replay_table_flags(
        expected_table, idx.tolist(), taken.tolist(), read.tolist(),
        trans.tolist(),
    )
    got = replay_runs(table, idx, taken, read, trans)
    assert got.tolist() == expected
    assert table == expected_table


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(FLAG_KINDS), seed=st.integers(0, 2**32 - 1))
def test_scan_on_wide_keys_matches_oracle(kind, seed):
    """2**17 counters and 20,000 events: index, position and symbol no
    longer pack into 32 bits, so ``group_events`` takes its argsort
    branch."""
    rng = np.random.default_rng(seed)
    entries = 1 << 17
    count = 20000
    assert 17 + (count - 1).bit_length() + 1 > 32
    pool = rng.integers(0, entries, 40)
    pc = np.repeat(rng.choice(pool, count // 4), 4)
    taken = np.repeat(rng.random(count // 4) < 0.8, 4).astype(np.uint8)
    read, trans = flag_arrays(kind, rng, count)
    table = rng.integers(0, 4, entries).tolist()
    plan = make_plan(pc, taken, read, trans)
    oracle = _bimodal(table)
    expected = oracle_replay(oracle, plan)
    predictor = _bimodal(table)
    assert fast_replay(predictor, plan).tolist() == expected.tolist()
    assert predictor.counters.table == oracle.counters.table


def _bimodal(table):
    """A bimodal predictor of ``len(table)`` counters holding ``table``."""
    predictor = BimodalPredictor(len(table))
    predictor.counters.table = list(table)
    return predictor


@settings(max_examples=150, deadline=None)
@given(stream=table_streams(flags=True))
def test_table_kernel_cores_match_per_event_replay(stream):
    """fast and numpy (both the run scan) against the object predictor,
    one event at a time."""
    table, idx, taken, read, trans = stream
    plan = make_plan(idx, taken, read, trans)
    reference = BimodalPredictor(len(table))
    reference.counters.table = list(table)
    expected = object_replay(reference, plan, np.full(plan.n, -1)).tolist()
    if plan.uniform:
        oracle_table = list(table)
        assert replay_table_uniform(
            oracle_table, idx.tolist(), taken.tolist()
        ) == expected
        assert oracle_table == reference.counters.table
    for replay in (fast_replay, batch_replay):
        predictor = _bimodal(table)
        got = replay(predictor, plan)
        assert got.tolist() == expected, replay.__name__
        assert predictor.counters.table == reference.counters.table, \
            replay.__name__


@st.composite
def local_streams(draw):
    entries = draw(st.sampled_from(SIZES))
    local_entries = draw(st.sampled_from((1, 8, 1 << 17)))
    history_bits = draw(st.sampled_from((0, 1, 3, 6, 12, 63, 70)))
    predictor = LocalPredictor(entries, local_entries, history_bits)
    predictor.counters.table = start_table(draw, entries)
    loaded = draw(st.lists(
        st.tuples(st.integers(0, local_entries - 1),
                  st.integers(0, 2**80)),
        max_size=6,
    ))
    for slot, value in loaded:
        predictor.histories[slot] = value
    # pcs span several history slots, aliasing beyond local_entries.
    return (predictor,) + draw(events(4 * local_entries, True))


@settings(max_examples=200, deadline=None)
@given(stream=local_streams())
def test_local_replay_matches_oracle(stream):
    predictor, pc, taken, read, trans = stream
    oracle = copy.deepcopy(predictor)
    expected = replay_local(
        oracle, pc.tolist(), taken.tolist(), read.tolist(), trans.tolist()
    )
    got = fast_replay(predictor, make_plan(pc, taken, read, trans))
    assert got.tolist() == expected
    assert object_state(predictor) == object_state(oracle)


@settings(max_examples=100, deadline=None)
@given(stream=local_streams(), seed=st.integers(0, 2**32 - 1))
def test_tournament_local_indices_match_object_predictor(stream, seed):
    local, pc, taken, read, trans = stream
    ghr = np.random.default_rng(seed).integers(
        0, 1 << 16, pc.shape[0]
    ).astype(np.uint64)
    predictor = TournamentPredictor(
        64, local, GSharePredictor(256, history_bits=8)
    )
    reference = copy.deepcopy(predictor)
    plan = make_plan(pc, taken, read, trans, ghr)
    expected = object_replay(reference, plan, np.full(plan.n, -1))
    got = fast_replay(predictor, plan)
    assert got.tolist() == expected.tolist()
    assert object_state(predictor) == object_state(reference)


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize("taken", [0, 1])
def test_empty_and_single_event_streams(count, taken):
    pc = [5] * count
    outcome = [taken] * count
    plan = make_plan(pc, outcome)
    for replay in (fast_replay, batch_replay):
        predictor = BimodalPredictor(4)
        got = replay(predictor, plan)
        assert got.dtype == np.int64
        # A fresh counter (1) predicts not taken.
        assert got.tolist() == ([0] if count and taken else [])
        trained = (2 if taken else 0) if count else 1
        assert predictor.counters.table == [1, trained, 1, 1]
    local = LocalPredictor(16, 4, 3)
    local.histories = [0, 0b1011, 0, 0]
    got = fast_replay(local, make_plan([1] * count, outcome))
    assert got.tolist() == ([0] if count and taken else [])
    expected = ((0b1011 & 0b111) << 1) | taken if count else 0b1011
    assert local.histories == [0, expected, 0, 0]
    assert replay_runs([1], np.zeros(0, np.int64),
                       np.zeros(0, np.uint8)).tolist() == []


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from((1, 8, 16, 17, 31)),
    symbol_bits=st.sampled_from((1, 3)),
    count=st.sampled_from((1, 7, 300, 40000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_events_is_a_stable_sort(bits, symbol_bits, count, seed):
    """Both the packed-key sort and the argsort fallback (keys wider
    than 32 bits) group stably."""
    rng = np.random.default_rng(seed)
    mask = (1 << bits) - 1
    values = rng.integers(0, min(mask, 50) + 1, count) * (mask // 50 or 1)
    symbol = rng.integers(0, 1 << symbol_bits, count).astype(np.uint8)
    order, grouped, grouped_symbol = group_events(
        values, mask, symbol, symbol_bits
    )
    expected = np.argsort(values, kind="stable")
    assert order.tolist() == expected.tolist()
    assert grouped.tolist() == values[expected].tolist()
    assert grouped_symbol.tolist() == symbol[expected].tolist()
