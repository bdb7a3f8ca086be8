"""The process-wide replay-plan cache behind ``plan_for``.

One LRU of plans serves every trace.  Its key keeps only what the
decode reads: options that differ in an unused ``distance`` (or in the
BTB, or in flag recording) share one plan, and that plan is exactly
the plan of the caller's own options.
"""

import dataclasses
import pickle
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.experiments import get_experiment
from repro.experiments.e08_distance_sweep import DISTANCES, _variant_options
from repro.pipeline import BTBConfig
from repro.predictors import PGUConfig, SFPConfig
from repro.serve.executor import execute_job
from repro.serve.protocol import canonicalize
from repro.sim import SimOptions, fastcore, use_core
from repro.trace.cache import clear_memo
from repro.trace.container import Trace
from repro.workloads import all_workloads, get_workload


@pytest.fixture(autouse=True)
def _empty_caches():
    fastcore._PLANS.clear()
    yield
    fastcore._PLANS.clear()


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
    for distance in DISTANCES:
        for options in _variant_options(distance).values():
            _assert_same_plan(
                fastcore.plan_for(trace, options),
                fastcore.build_plan(trace, options),
            )


def test_cache_is_bounded_process_wide():
    traces = [w.trace(scale="tiny") for w in all_workloads()[:3]]
    for trace in traces:
        for distance in DISTANCES[:4]:
            fastcore.plan_for(trace, SimOptions(distance=distance,
                                                sfp=SFPConfig()))
    assert len(fastcore._PLANS) == fastcore._PLAN_CACHE_LIMIT


def test_concurrent_threads_share_one_bounded_cache():
    traces = [w.trace(scale="tiny") for w in all_workloads()[:3]]
    grid = [SimOptions(distance=d, sfp=SFPConfig()) for d in (0, 4, 16)]
    expected = {
        (t, o): fastcore.build_plan(trace, options).squash.tobytes()
        for t, trace in enumerate(traces)
        for o, options in enumerate(grid)
    }

    def worker(seed: int) -> int:
        wrong = 0
        for step in range(60):
            t = (seed + step) % len(traces)
            o = (seed * 5 + step * 7) % len(grid)
            plan = fastcore.plan_for(traces[t], grid[o])
            wrong += int(plan.squash.tobytes() != expected[t, o])
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


def test_fresh_trace_object_decodes_again(decodes):
    source = get_workload("crc").trace(scale="tiny")
    fastcore.plan_for(source, SimOptions())
    fastcore.plan_for(source, SimOptions())
    copy = Trace(
        **{name: value for name, value in vars(source).items()
           if not name.startswith("_")}
    )
    fastcore.plan_for(copy, SimOptions())
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
