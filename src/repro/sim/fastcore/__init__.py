"""Flat-kernel fast simulation core.

``repro.sim.fastcore`` replays pre-decoded branch streams through
allocation-free predictor kernels, bit-identically to the reference
object-model loop in :mod:`repro.sim.driver` (the differential suite in
``tests/test_fastcore_differential.py`` enforces the equivalence over
the whole workload suite).  See ``docs/fast-core.md`` for the kernel
ABI, the pre-decode layout and how to add a kernel.

Entry point: :func:`run_fast`, reached through
``simulate(..., core="fast"|"numpy")``.  The object core remains the
reference and the only path for predictors without a kernel (static,
perfect) and for profiler collectors — ``simulate`` falls back
automatically (see :func:`supported`).  A BTB is modelled by an exact
post-pass over the replayed directions
(:func:`~repro.sim.fastcore.replay.btb_misfetches`); a JRS confidence
estimator by another (:func:`~repro.sim.fastcore.replay.jrs_confidence`,
used by :func:`repro.sim.confidence.simulate_with_confidence`).
"""

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro import telemetry
from repro.sim.driver import (
    BranchFlags,
    SimOptions,
    SimResult,
    record_sim_counters,
)
from repro.sim.fastcore.batch import batch_replay, batch_supported
from repro.sim.fastcore.decode import ReplayPlan, build_plan
from repro.sim.fastcore.kernels import (
    KERNEL_BUILDERS,
    KernelError,
    kernel_from_predictor,
    kernelizable,
)
from repro.sim.fastcore.replay import (
    btb_misfetches,
    fast_replay,
    jrs_confidence,
)
from repro.sim.stats import ClassStats
from repro.trace.container import BranchClass

__all__ = [
    "KERNEL_BUILDERS",
    "KernelError",
    "ReplayPlan",
    "batch_replay",
    "batch_supported",
    "btb_misfetches",
    "build_plan",
    "fast_replay",
    "jrs_confidence",
    "kernel_from_predictor",
    "kernelizable",
    "plan_for",
    "run_fast",
    "supported",
]


def supported(predictor, options: SimOptions, collector=None) -> bool:
    """Can the fast cores run this point exactly?

    Profiler collectors are object-core-only; so is any predictor
    without a registered kernel (static, perfect, subclasses).  BTB
    modelling runs on every core.
    """
    return collector is None and kernelizable(predictor)


#: Replay plans kept process-wide, least recently used out first:
#: (id of the trace, options repr) -> (weak reference to the trace, plan).
_PLAN_CACHE_LIMIT = 8
_PLANS: "OrderedDict[tuple, tuple]" = OrderedDict()
_PLANS_LOCK = threading.Lock()


def _reads_distance(options: SimOptions) -> bool:
    """Does the decode of ``options`` depend on ``options.distance``?"""
    return (
        options.sfp is not None
        or options.delayed_update
        or (options.pgu is not None and options.pgu.delay is None)
    )


def plan_for(trace, options: SimOptions) -> ReplayPlan:
    """Build (or reuse) the replay plan for ``(trace, options)``.

    Pre-decode depends only on the trace and the simulation options,
    never on the predictor, so a sweep grid replaying one workload
    under many predictors decodes it once.  The key keeps only what the
    decode reads: neither the BTB geometry nor flag recording changes
    it, and ``distance`` matters only to SFP, to PGU without its own
    delay and to delayed update — so BTB sweeps, and the distance
    points of a plain predictor, share one plan per trace.  The cache
    is one LRU of :data:`_PLAN_CACHE_LIMIT` plans for the whole
    process.  It is keyed by the trace object's identity, checked
    through a weak reference, so it never pins more than that many plans
    however many traces stay alive, and a later object that reuses a
    dead trace's id misses.
    """
    unused = {}
    if options.btb is not None:
        unused["btb"] = None
    if options.record_flags:
        unused["record_flags"] = False
    if options.distance and not _reads_distance(options):
        unused["distance"] = 0
    if unused:
        options = replace(options, **unused)
    key = (id(trace), repr(options))
    with _PLANS_LOCK:
        entry = _PLANS.get(key)
        if entry is not None and entry[0]() is trace:
            _PLANS.move_to_end(key)
            return entry[1]
    plan = build_plan(trace, options)
    with _PLANS_LOCK:
        _PLANS[key] = (weakref.ref(trace), plan)
        _PLANS.move_to_end(key)
        while len(_PLANS) > _PLAN_CACHE_LIMIT:
            _PLANS.popitem(last=False)
    return plan


def run_fast(
    trace,
    predictor,
    options: SimOptions = SimOptions(),
    core: str = "fast",
) -> SimResult:
    """Simulate on a flat kernel; bit-identical to the object core.

    ``core="numpy"`` uses the batched backend when the kernel supports
    it and the scalar fast loop otherwise; the ``sim.core.<used>``
    counter names the one that ran.
    """
    if core not in ("fast", "numpy"):
        raise ValueError(f"run_fast cannot execute core {core!r}")
    kernel = kernel_from_predictor(predictor)
    start = time.perf_counter()
    # Trace-only annotation (no registry instruments): the fastcore.*
    # counter set below must stay identical with tracing on or off.
    with telemetry.trace_span(
        "fastcore.replay",
        workload=trace.meta.workload or "<trace>",
        kernel=kernel.name,
    ):
        plan = plan_for(trace, options)
        if core == "numpy" and batch_supported(kernel):
            used = "numpy"
            mis = batch_replay(kernel, plan)
        else:
            used = "fast"
            mis = fast_replay(kernel, plan)
    wall = time.perf_counter() - start

    n = plan.n
    squash = plan.squash
    if options.btb is not None:
        misfetched = btb_misfetches(
            plan, mis, trace.b_target, options.btb
        )
    else:
        misfetched = np.zeros(0, dtype=np.int64)

    branch_counts = np.bincount(plan.cls, minlength=3)
    mis_counts = np.bincount(plan.cls[mis], minlength=3)
    if squash is not None:
        squash_counts = np.bincount(plan.cls[squash], minlength=3)
    else:
        squash_counts = np.zeros(3, dtype=np.int64)
    per_class = {
        branch_class: ClassStats(
            branches=int(branch_counts[int(branch_class)]),
            mispredictions=int(mis_counts[int(branch_class)]),
            squashed=int(squash_counts[int(branch_class)]),
        )
        for branch_class in (
            BranchClass.NORMAL, BranchClass.REGION, BranchClass.LOOP
        )
    }

    flags = None
    if options.record_flags:
        correct = np.ones(n, dtype=bool)
        correct[mis] = False
        misfetch = np.zeros(n, dtype=bool)
        misfetch[misfetched] = True
        flags = BranchFlags(
            correct=correct,
            squashed=(
                squash.copy()
                if squash is not None
                else np.zeros(n, dtype=bool)
            ),
            misfetch=misfetch,
        )

    result = SimResult(
        predictor=predictor.name,
        options=options,
        workload=plan.workload,
        instructions=plan.instructions,
        branches=n,
        mispredictions=int(mis.shape[0]),
        squashed=int(squash.sum()) if squash is not None else 0,
        per_class=per_class,
        misfetches=int(misfetched.shape[0]),
        flags=flags,
        attribution=None,
    )
    if telemetry.enabled():
        registry = telemetry.get_registry()
        record_sim_counters(registry, result, plan.applied_updates)
        registry.counter(f"sim.core.{used}").inc()
        if wall > 0.0:
            registry.gauge("fastcore.replay_branches_per_second").set(
                n / wall
            )
    return result
