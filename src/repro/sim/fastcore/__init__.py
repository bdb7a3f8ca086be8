"""The replay plan and the simulation cores that replay it.

:func:`plan_for` decodes (and caches) a (trace, options) pair into a
:class:`~repro.sim.fastcore.decode.ReplayPlan`, the only derivation of
the front end's event stream.  The ``object`` core replays it through
the object predictor (:func:`~repro.sim.fastcore.replay.object_replay`,
the only path for predictors without a kernel), ``fast`` and ``numpy``
through a flat kernel (:func:`kernel_replay`).  Each returns the
mispredicted branches, from which :func:`repro.sim.driver.simulate`
builds every statistic; profiler events, a BTB and a JRS confidence
estimator are post-passes over them (:func:`emit_events`,
:func:`btb_misfetches`, :func:`jrs_confidence`).  Every core is checked
against the branch-by-branch oracle ``tests/driver_oracle.py``; see
``docs/fast-core.md`` for the kernel ABI and the plan layout.
"""

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import replace
from typing import Optional

from repro import telemetry
from repro.sim.driver import SimOptions
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
    emit_events,
    fast_replay,
    jrs_confidence,
    object_replay,
)

__all__ = [
    "KERNEL_BUILDERS",
    "KernelError",
    "ReplayPlan",
    "batch_replay",
    "batch_supported",
    "btb_misfetches",
    "build_plan",
    "cached_plan",
    "emit_events",
    "fast_replay",
    "jrs_confidence",
    "kernel_from_predictor",
    "kernel_replay",
    "kernelizable",
    "object_replay",
    "plan_for",
]


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


def _plan_key(trace, options: SimOptions):
    """``(cache key, options the decode reads)`` for ``(trace, options)``."""
    unused = {}
    if options.btb is not None:
        unused["btb"] = None
    if options.record_flags:
        unused["record_flags"] = False
    if options.distance and not _reads_distance(options):
        unused["distance"] = 0
    if unused:
        options = replace(options, **unused)
    return (id(trace), repr(options)), options


def cached_plan(trace, options: SimOptions) -> Optional[ReplayPlan]:
    """The cached replay plan for ``(trace, options)``, or ``None``."""
    key, _ = _plan_key(trace, options)
    with _PLANS_LOCK:
        entry = _PLANS.get(key)
        if entry is None or entry[0]() is not trace:
            return None
        _PLANS.move_to_end(key)
        return entry[1]


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
    plan = cached_plan(trace, options)
    if plan is not None:
        return plan
    key, options = _plan_key(trace, options)
    plan = build_plan(trace, options)
    with _PLANS_LOCK:
        _PLANS[key] = (weakref.ref(trace), plan)
        _PLANS.move_to_end(key)
        while len(_PLANS) > _PLAN_CACHE_LIMIT:
            _PLANS.popitem(last=False)
    return plan


def kernel_replay(predictor, plan: ReplayPlan, core: str):
    """Replay ``plan`` on ``predictor``'s flat kernel.

    Returns ``(used, mis)``: the core that ran (``numpy`` runs the
    batched backend when the kernel supports it and the scalar fast
    loop otherwise) and the mispredicted branch indices.  The replay
    runs in a ``fastcore.replay`` trace span, which is trace-only: the
    registry's counter set is the same with tracing on or off.
    """
    kernel = kernel_from_predictor(predictor)
    used = "numpy" if core == "numpy" and batch_supported(kernel) else "fast"
    start = time.perf_counter()
    with telemetry.trace_span(
        "fastcore.replay", workload=plan.workload, kernel=kernel.name
    ):
        if used == "numpy":
            mis = batch_replay(kernel, plan)
        else:
            mis = fast_replay(kernel, plan)
    wall = time.perf_counter() - start
    if wall > 0.0 and telemetry.enabled():
        telemetry.get_registry().gauge(
            "fastcore.replay_branches_per_second"
        ).set(plan.n / wall)
    return used, mis
