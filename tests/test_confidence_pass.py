"""The plan-based confidence pass against the per-branch oracle.

``simulate_with_confidence`` replays the predictor through ``simulate``
and classifies confidence with one vectorised pass over the JRS table
(:func:`repro.sim.fastcore.jrs_confidence`); ``tests/confidence_oracle.py``
keeps the per-branch loop it replaced.  Results and the estimator's
final table must match exactly: over the whole suite under E14's
configurations on every core, and on hypothesis streams with pre-loaded
and saturated tables, any threshold and ceiling, tables up to 2**17
entries, empty traces and traces whose every branch is squashed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.e14_confidence import CONFIGS
from repro.isa.opcodes import BranchKind
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.predictors.confidence import ConfidenceEstimator
from repro.sim import SimOptions, simulate, use_core
from repro.sim.confidence import simulate_with_confidence
from repro.sim.fastcore import jrs_confidence
from repro.sim.fastcore.decode import ReplayPlan
from repro.trace.container import Trace, TraceMeta
from repro.workloads import all_workloads, get_workload
from tests.confidence_oracle import oracle_confidence

CORES = ("object", "fast", "numpy")
SIZES = (1, 4, 64, 1 << 17)
GUARDS_ONLY = SimOptions(sfp=SFPConfig(), pgu=PGUConfig(which="guards_only"))


def gshare():
    return make_predictor("gshare", entries=1024)


def confidence(trace, estimator, options, core):
    with use_core(core):
        return simulate_with_confidence(trace, gshare(), estimator, options)


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_suite_matches_oracle_on_every_core(workload):
    trace = get_workload(workload).trace(scale="tiny")
    for label, options in {**CONFIGS, "guards-only": GUARDS_ONLY}.items():
        reference = ConfidenceEstimator()
        expected = oracle_confidence(trace, gshare(), reference, options)
        for core in CORES:
            estimator = ConfidenceEstimator()
            got = confidence(trace, estimator, options, core)
            assert got == expected, (label, core)
            assert estimator.table == reference.table, (label, core)


def test_guards_only_history_matches_simulate():
    """Under ``guards_only`` PGU the estimator's predictions are the
    ones ``simulate`` makes: only the guard predicates enter history."""
    for workload in ("compress", "grep", "lexer", "nbody"):
        trace = get_workload(workload).trace(scale="tiny")
        result = simulate_with_confidence(
            trace, gshare(), ConfidenceEstimator(), GUARDS_ONLY
        )
        reference = simulate(trace, gshare(), GUARDS_ONLY)
        assert result.high_correct + result.low_correct == (
            result.branches - result.perfect - reference.mispredictions
        ), workload


def test_delayed_update_is_rejected():
    trace = get_workload("crc").trace(scale="tiny")
    with pytest.raises(ValueError, match="delayed"):
        simulate_with_confidence(
            trace, gshare(), ConfidenceEstimator(),
            SimOptions(delayed_update=True),
        )


# -- the pass on its own ------------------------------------------------------


def make_plan(pc, ghr, squash):
    n = len(pc)
    return ReplayPlan(
        options=SimOptions(),
        workload="stream",
        instructions=n,
        n=n,
        pc=np.asarray(pc, dtype=np.int64).reshape(n),
        taken=np.zeros(n, dtype=np.uint8),
        ghr=np.asarray(ghr, dtype=np.uint64).reshape(n),
        cls=np.zeros(n, dtype=np.int8),
        squash=squash,
        ev_branch=np.arange(n, dtype=np.int64),
        ev_read=np.ones(n, dtype=np.uint8),
        ev_trans=np.ones(n, dtype=np.uint8),
        uniform=True,
        applied_updates=0,
    )


@st.composite
def estimators(draw):
    """A JRS table of any size, threshold and ceiling, fresh, saturated
    or pre-loaded with random counters."""
    entries = draw(st.sampled_from(SIZES))
    ceiling = draw(st.integers(1, 31))
    threshold = draw(st.integers(1, ceiling))
    estimator = ConfidenceEstimator(entries, threshold, ceiling)
    kind = draw(st.sampled_from(["fresh", "saturated", "random"]))
    if kind == "saturated":
        estimator.table = [ceiling] * entries
    elif kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        estimator.table = rng.integers(0, ceiling + 1, entries).tolist()
    return estimator


@st.composite
def streams(draw):
    """(pc, ghr, correct, squash): pcs and histories from small pools, so
    counters see long runs and saturate; squash is absent, random or
    total."""
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(0, 120))
    span = draw(st.sampled_from([4, 1 << 17]))
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, span, draw(st.integers(1, 6)))
    pc = rng.choice(pool, count)
    ghr = rng.integers(0, 4, count) << rng.integers(0, 20, count)
    correct = rng.random(count) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    kind = draw(st.sampled_from(["none", "random", "all"]))
    squash = {
        "none": None,
        "random": rng.random(count) < 0.3,
        "all": np.ones(count, dtype=bool),
    }[kind]
    return pc, ghr, correct, squash


@settings(max_examples=200, deadline=None)
@given(estimator=estimators(), stream=streams())
def test_pass_matches_per_event_training(estimator, stream):
    pc, ghr, correct, squash = stream
    reference = ConfidenceEstimator(
        estimator.mask + 1, estimator.threshold, estimator.ceiling
    )
    reference.table = list(estimator.table)
    expected = []
    for i, (p, h, c) in enumerate(zip(pc.tolist(), ghr.tolist(),
                                      correct.tolist())):
        if squash is not None and squash[i]:
            expected.append(False)
            continue
        expected.append(reference.is_confident(p, h))
        reference.update(p, h, c)
    got = jrs_confidence(make_plan(pc, ghr, squash), correct, estimator)
    assert got.tolist() == expected
    assert estimator.table == reference.table


# -- whole traces -------------------------------------------------------------


@st.composite
def traces(draw):
    """A random trace: predicate defines and guarded branches interleaved,
    each guard's defining write recorded; ``all_squashed`` makes every
    branch not-taken under a long-resolved guard."""
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(0, 150))
    all_squashed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    last_def = {}
    branches = []
    defines = []
    j = 0
    for _ in range(count):
        j += int(rng.integers(1, 4))
        if not all_squashed and rng.random() < 0.4:
            pred = int(rng.integers(1, 5))
            defines.append((j, bool(rng.random() < 0.5), pred))
            last_def[pred] = j
            continue
        if all_squashed:
            guard, guard_def, taken = 1, 0, False
            j += 8
        else:
            guard = int(rng.integers(0, 5))
            guard_def = last_def.get(guard, -1) if guard else -1
            taken = bool(rng.random() < 0.6)
        branches.append((int(rng.integers(0, 24)), j, taken, guard,
                         guard_def))
    if all_squashed:
        defines = [(0, False, 1)]
    return Trace.from_lists(
        b_pc=[b[0] for b in branches],
        b_idx=[b[1] for b in branches],
        b_taken=[b[2] for b in branches],
        b_guard=[b[3] for b in branches],
        b_guard_def=[b[4] for b in branches],
        b_kind=[int(BranchKind.COND)] * len(branches),
        b_region=[b[3] != 0 for b in branches],
        b_target=[0] * len(branches),
        d_pc=[0] * len(defines),
        d_idx=[d[0] for d in defines],
        d_value=[d[1] for d in defines],
        d_pred=[d[2] for d in defines],
        meta=TraceMeta(instructions=j + 1),
    )


OPTIONS = [
    SimOptions(),
    SimOptions(sfp=SFPConfig()),
    SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
    GUARDS_ONLY,
    SimOptions(sfp=SFPConfig(update_pht=True, update_history=False),
               pgu=PGUConfig(delay=0), history_bits=6),
    SimOptions(sfp=SFPConfig(squash_known_true=True), distance=2),
]


@settings(max_examples=60, deadline=None)
@given(trace=traces(), options=st.sampled_from(OPTIONS),
       estimator=estimators())
def test_traces_match_oracle(trace, options, estimator):
    start = list(estimator.table)
    reference = ConfidenceEstimator(
        estimator.mask + 1, estimator.threshold, estimator.ceiling
    )
    reference.table = list(start)
    expected = oracle_confidence(trace, gshare(), reference, options)
    for core in CORES:
        estimator.table = list(start)
        got = confidence(trace, estimator, options, core)
        assert got == expected, core
        assert estimator.table == reference.table, core


@pytest.mark.parametrize("core", CORES)
def test_empty_and_all_squashed_traces(core):
    blank = Trace.from_lists(
        b_pc=[], b_idx=[], b_taken=[], b_guard=[], b_guard_def=[],
        b_kind=[], b_region=[], b_target=[], d_pc=[], d_idx=[],
        d_value=[], d_pred=[], meta=TraceMeta(instructions=0),
    )
    estimator = ConfidenceEstimator(entries=16)
    result = confidence(blank, estimator, SimOptions(sfp=SFPConfig()), core)
    assert (result.branches, result.perfect, result.high, result.low) == (
        0, 0, 0, 0
    )
    assert estimator.table == [0] * 16
    squashed = Trace.from_lists(
        b_pc=[3, 5, 3], b_idx=[10, 20, 30], b_taken=[False] * 3,
        b_guard=[1] * 3, b_guard_def=[0] * 3,
        b_kind=[int(BranchKind.COND)] * 3, b_region=[True] * 3,
        b_target=[0] * 3, d_pc=[0], d_idx=[0], d_value=[False],
        d_pred=[1], meta=TraceMeta(instructions=31),
    )
    estimator = ConfidenceEstimator(entries=16)
    result = confidence(squashed, estimator, SimOptions(sfp=SFPConfig()),
                        core)
    assert (result.branches, result.perfect, result.high, result.low) == (
        3, 3, 0, 0
    )
    assert estimator.table == [0] * 16
