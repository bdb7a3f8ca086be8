"""The process-wide replay-plan cache behind ``plan_for``, and the
history memo behind every decode.

One LRU of plans serves every trace.  Its key keeps only what the
decode reads: options that differ in an unused ``distance`` (or in the
BTB, or in flag recording) share one plan, and that plan is exactly
the plan of the caller's own options.  Plans that read the same
history stream share one read-only ``ghr`` array from the history
memo, and it equals a decode that computes the stream afresh.
"""

import dataclasses
import gc
import pickle
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.experiments import get_experiment
from repro.experiments.e08_distance_sweep import DISTANCES, _variant_options
from repro.experiments.e10_ablations import VARIANTS
from repro.pipeline import BTBConfig
from repro.predictors import PGUConfig, SFPConfig
from repro.serve.executor import execute_job
from repro.serve.protocol import canonicalize
from repro.sim import SimOptions, fastcore, use_core
from repro.sim.fastcore import decode
from repro.trace.cache import clear_memo
from repro.trace.container import Trace
from repro.workloads import all_workloads, get_workload


@pytest.fixture(autouse=True)
def _empty_caches():
    fastcore._PLANS.clear()
    decode._HISTORY.clear()
    yield
    fastcore._PLANS.clear()
    decode._HISTORY.clear()


@pytest.fixture
def decodes(monkeypatch):
    """Counts the decodes ``plan_for`` performs."""
    calls = Counter()
    build = fastcore.build_plan

    def counting_build(trace, options):
        calls["decodes"] += 1
        return build(trace, options)

    monkeypatch.setattr(fastcore, "build_plan", counting_build)
    return calls


@pytest.fixture
def histories(monkeypatch):
    """Counts the history streams the decodes compute."""
    calls = Counter()
    compute = decode._history_values

    def counting_compute(trace, options, squash):
        calls["histories"] += 1
        return compute(trace, options, squash)

    monkeypatch.setattr(decode, "_history_values", counting_compute)
    return calls


def _memo_free_decode(trace, options):
    """``build_plan`` with a history memo of its own, empty at the start
    and dropped after, so every stream is computed afresh."""
    memo = decode._HISTORY
    decode._HISTORY = decode.TraceLRU()
    try:
        return fastcore.build_plan(trace, options)
    finally:
        decode._HISTORY = memo


def _fresh_copy(source):
    return Trace(
        **{name: value for name, value in vars(source).items()
           if not name.startswith("_")}
    )


def _assert_same_plan(plan, expected):
    for field in dataclasses.fields(expected):
        if field.name == "options":
            continue
        got = getattr(plan, field.name)
        want = getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name


def test_unused_distance_shares_one_plan():
    trace = get_workload("grep").trace(scale="tiny")
    plans = [
        fastcore.plan_for(trace, SimOptions(distance=d))
        for d in DISTANCES
    ]
    assert all(plan is plans[0] for plan in plans)
    delayed_pgu = fastcore.plan_for(
        trace, SimOptions(distance=5, pgu=PGUConfig(delay=3))
    )
    assert delayed_pgu is fastcore.plan_for(
        trace, SimOptions(distance=9, pgu=PGUConfig(delay=3))
    )
    assert delayed_pgu is not plans[0]
    plan = fastcore.plan_for(trace, SimOptions(distance=7))
    assert plan is fastcore.plan_for(
        trace,
        SimOptions(distance=3, btb=BTBConfig(sets=64, ways=1),
                   record_flags=True),
    )


@pytest.mark.parametrize("options", [
    SimOptions(sfp=SFPConfig()),
    SimOptions(pgu=PGUConfig()),
    SimOptions(delayed_update=True),
])
def test_distance_readers_keep_their_distance(options):
    trace = get_workload("grep").trace(scale="tiny")
    near = fastcore.plan_for(
        trace, dataclasses.replace(options, distance=0)
    )
    far = fastcore.plan_for(
        trace, dataclasses.replace(options, distance=16)
    )
    assert near is not far


@pytest.mark.parametrize(
    "workload", [w.name for w in all_workloads()]
)
def test_cached_plans_match_the_callers_decode(workload):
    trace = get_workload(workload).trace(scale="tiny")
    grid = [
        options
        for distance in DISTANCES
        for options in _variant_options(distance).values()
    ] + list(VARIANTS.values())
    for options in grid:
        _assert_same_plan(
            fastcore.plan_for(trace, options),
            _memo_free_decode(trace, options),
        )


def test_shared_arrays_are_read_only():
    trace = get_workload("grep").trace(scale="tiny")
    uniform = fastcore.plan_for(trace, SimOptions(pgu=PGUConfig()))
    squashed = fastcore.plan_for(trace, SimOptions(sfp=SFPConfig()))
    assert uniform.uniform
    for plan in (uniform, squashed):
        for name in ("ghr", "taken", "cls"):
            assert not getattr(plan, name).flags.writeable, name
    for name in ("ev_branch", "ev_read", "ev_trans"):
        assert not getattr(uniform, name).flags.writeable, name
    with pytest.raises(ValueError):
        uniform.ghr[0] = 1
    assert np.shares_memory(squashed.taken, trace.b_taken)
    other = fastcore.plan_for(
        get_workload("crc").trace(scale="tiny"), SimOptions()
    )
    assert np.shares_memory(other.ev_branch, uniform.ev_branch)


def test_plans_of_one_stream_share_its_history():
    trace = get_workload("grep").trace(scale="tiny")

    def ghr(**options):
        return fastcore.plan_for(trace, SimOptions(**options)).ghr

    plain = ghr()
    # Squashed branches that still shift history read the plain stream,
    # at any distance.
    for distance in (0, 4, 16):
        assert ghr(distance=distance, sfp=SFPConfig()) is plain
        assert ghr(distance=distance, delayed_update=True) is plain
    assert ghr(sfp=SFPConfig(update_pht=True)) is plain
    # PGU reads its effective delay: its own, or the distance.
    pgu = ghr(distance=4, pgu=PGUConfig())
    assert ghr(distance=4, sfp=SFPConfig(), pgu=PGUConfig()) is pgu
    assert ghr(distance=0, pgu=PGUConfig(delay=4)) is pgu
    assert ghr(distance=8, pgu=PGUConfig()) is not pgu
    assert ghr(distance=4, pgu=PGUConfig(which="guards_only")) is not pgu
    # Skipping squashed branches reads the squash mask's inputs.
    skip = ghr(distance=4, sfp=SFPConfig(update_history=False))
    assert skip is not plain
    assert ghr(distance=4, sfp=SFPConfig(update_history=False,
                                         update_pht=True)) is skip
    assert ghr(distance=8, sfp=SFPConfig(update_history=False)) is not skip
    assert ghr(distance=4, sfp=SFPConfig(
        update_history=False, squash_known_true=True
    )) is not skip
    assert ghr(history_bits=16) is not plain
    assert len(decode._HISTORY) == 8


def test_history_memo_is_bounded_in_bytes(monkeypatch, histories):
    trace = get_workload("grep").trace(scale="tiny")
    stream = trace.num_branches * 8
    monkeypatch.setattr(decode, "HISTORY_MEMO_BYTES", 3 * stream)
    grid = [SimOptions(pgu=PGUConfig(delay=d)) for d in range(5)]
    for options in grid:
        fastcore.plan_for(trace, options)
    assert len(decode._HISTORY) == 3
    assert decode._HISTORY.size == 3 * stream
    # The two oldest streams were evicted; the newest three still hit.
    fastcore._PLANS.clear()
    for options in grid[2:]:
        fastcore.plan_for(trace, options)
    assert histories["histories"] == 5
    fastcore.plan_for(trace, grid[0])
    assert histories["histories"] == 6
    monkeypatch.setattr(decode, "HISTORY_MEMO_BYTES", stream - 1)
    fastcore.plan_for(trace, SimOptions(history_bits=4))
    assert decode._HISTORY.size <= stream - 1


def test_entries_die_with_their_trace():
    trace = _fresh_copy(get_workload("crc").trace(scale="tiny"))
    fastcore.plan_for(trace, SimOptions())
    fastcore.plan_for(trace, SimOptions(sfp=SFPConfig(), pgu=PGUConfig()))
    assert len(fastcore._PLANS) == 2 and len(decode._HISTORY) == 2
    del trace
    gc.collect()
    assert len(fastcore._PLANS) == 0
    assert len(decode._HISTORY) == 0 and decode._HISTORY.size == 0


def test_a_trace_that_dies_under_the_lock_is_purged_next():
    keep = get_workload("grep").trace(scale="tiny")
    fastcore.plan_for(keep, SimOptions())
    trace = _fresh_copy(get_workload("crc").trace(scale="tiny"))
    fastcore.plan_for(trace, SimOptions(pgu=PGUConfig()))
    assert len(decode._HISTORY) == 2
    with decode._HISTORY._lock:
        del trace
        gc.collect()
        assert len(decode._HISTORY) == 2
    # Only the memo's lock was held: the plan cache purged at once.
    assert len(fastcore._PLANS) == 1
    assert decode._HISTORY.get(keep, "no such stream") is None
    assert len(decode._HISTORY) == 1


def test_cache_is_bounded_process_wide():
    traces = [w.trace(scale="tiny") for w in all_workloads()[:3]]
    for trace in traces:
        for distance in DISTANCES[:4]:
            fastcore.plan_for(trace, SimOptions(distance=distance,
                                                sfp=SFPConfig()))
    assert len(fastcore._PLANS) == fastcore._PLAN_CACHE_LIMIT


def test_concurrent_threads_share_one_bounded_cache(monkeypatch):
    traces = [w.trace(scale="tiny") for w in all_workloads()[:3]]
    grid = [
        SimOptions(distance=d, sfp=SFPConfig(), pgu=pgu)
        for d in (0, 4, 16) for pgu in (None, PGUConfig())
    ]
    expected = {}
    for t, trace in enumerate(traces):
        for o, options in enumerate(grid):
            plan = _memo_free_decode(trace, options)
            expected[t, o] = (plan.squash.tobytes(), plan.ghr.tobytes())
    # Room for about five of the twelve streams: the threads evict and
    # recompute them while others read.
    limit = 5 * max(trace.num_branches for trace in traces) * 8
    monkeypatch.setattr(decode, "HISTORY_MEMO_BYTES", limit)

    def worker(seed: int) -> int:
        wrong = 0
        for step in range(60):
            t = (seed + step) % len(traces)
            o = (seed * 5 + step * 7) % len(grid)
            plan = fastcore.plan_for(traces[t], grid[o])
            got = (plan.squash.tobytes(), plan.ghr.tobytes())
            wrong += int(got != expected[t, o])
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(worker, seed) for seed in range(8)]
            wrong = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [0] * 8
    assert len(fastcore._PLANS) == fastcore._PLAN_CACHE_LIMIT
    assert 0 < decode._HISTORY.size <= limit


def test_fresh_trace_object_decodes_again(decodes):
    source = get_workload("crc").trace(scale="tiny")
    fastcore.plan_for(source, SimOptions())
    fastcore.plan_for(source, SimOptions())
    fastcore.plan_for(_fresh_copy(source), SimOptions())
    # What a sweep worker receives: the same trace, unpickled.
    fastcore.plan_for(pickle.loads(pickle.dumps(source)), SimOptions())
    assert decodes["decodes"] == 3


def test_dead_trace_id_is_not_reused(decodes):
    source = get_workload("crc").trace(scale="tiny")
    fields = {name: value for name, value in vars(source).items()
              if not name.startswith("_")}
    # CPython tends to hand a freed trace's id to the next one.
    for _ in range(4):
        trace = Trace(**fields)
        fastcore.plan_for(trace, SimOptions())
        del trace
    assert decodes["decodes"] == 4


@pytest.mark.parametrize("exp_id, expected", [("E8", 420), ("E12", 45)])
def test_experiment_decodes(exp_id, expected, decodes):
    run = get_experiment(exp_id).run
    kwargs = {"workers": 1} if exp_id == "E8" else {}
    with use_core("fast"):
        run(scale="tiny", **kwargs)
    assert decodes["decodes"] == expected


@pytest.mark.parametrize("exp_id, budget, expected", [
    ("E8", None, 150),
    ("E10", 1 << 30, 156),
    ("E10", None, 159),
])
def test_experiment_history_computations(exp_id, budget, expected,
                                         histories, monkeypatch):
    """E8 computes 15 traces x {plain, 9 PGU delays} streams.  E10's
    156 distinct streams are 15 traces x 10 plus {plain, PGU} on three
    unscheduled traces; under the shipped budget its three
    ``sched/on+both`` points come back to PGU streams evicted since."""
    if budget is not None:
        monkeypatch.setattr(decode, "HISTORY_MEMO_BYTES", budget)
    with use_core("fast"):
        get_experiment(exp_id).run(scale="tiny", workers=1)
    assert histories["histories"] == expected


def test_serve_worker_loads_a_repeated_workload_once(monkeypatch):
    clear_memo()
    loads = Counter()
    load = Trace.load.__func__

    def counting_load(cls, path):
        loads[str(path)] += 1
        return load(cls, path)

    monkeypatch.setattr(Trace, "load", classmethod(counting_load))
    spec = canonicalize(
        "simulate", {"workload": "crc", "scale": "tiny"}
    ).spec
    first = execute_job(spec, "fast")
    second = execute_job(spec, "fast")
    assert first["metrics"] == second["metrics"]
    assert sum(loads.values()) == 1
