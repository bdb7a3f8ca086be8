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

import time
from dataclasses import replace
from typing import Optional

from repro import telemetry
from repro.sim.driver import SimOptions
from repro.sim.fastcore.batch import batch_replay, batch_supported
from repro.sim.fastcore.decode import ReplayPlan, TraceLRU, build_plan
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


#: Replay plans kept process-wide, least recently used out first, keyed
#: by the trace object and the options repr.
_PLAN_CACHE_LIMIT = 8
_PLANS = TraceLRU()


def _reads_distance(options: SimOptions) -> bool:
    """Does the decode of ``options`` depend on ``options.distance``?"""
    return (
        options.sfp is not None
        or options.delayed_update
        or (options.pgu is not None and options.pgu.delay is None)
    )


def _plan_key(options: SimOptions):
    """``(cache key, options the decode reads)`` for ``options``."""
    unused = {}
    if options.btb is not None:
        unused["btb"] = None
    if options.record_flags:
        unused["record_flags"] = False
    if options.distance and not _reads_distance(options):
        unused["distance"] = 0
    if unused:
        options = replace(options, **unused)
    return repr(options), options


def cached_plan(trace, options: SimOptions) -> Optional[ReplayPlan]:
    """The cached replay plan for ``(trace, options)``, or ``None``."""
    return _PLANS.get(trace, _plan_key(options)[0])


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
    process (a :class:`~repro.sim.fastcore.decode.TraceLRU`).  It is
    keyed by the trace object's identity, checked through a weak
    reference, so it never pins more than that many plans however many
    traces stay alive, a later object that reuses a dead trace's id
    misses, and a trace's plans leave the cache when the trace is
    collected.  Plans of different options that read the same history
    stream share one read-only ``ghr`` array
    (:func:`~repro.sim.fastcore.decode.history_values`).
    """
    plan = cached_plan(trace, options)
    if plan is not None:
        return plan
    key, options = _plan_key(options)
    plan = build_plan(trace, options)
    _PLANS.put(trace, key, plan, _PLAN_CACHE_LIMIT)
    return plan


def kernel_replay(predictor, plan: ReplayPlan, core: str):
    """Replay ``plan`` on ``predictor``'s flat kernel.

    Returns ``(used, mis)``: the core that ran (``numpy`` runs the
    batched backend on table kernels and the fast loops otherwise) and
    the mispredicted branch indices.  While tracing, the replay runs
    in a ``fastcore.replay`` span; untraced, it opens none, so the
    per-point path times nothing and the counter set is the same
    either way.
    """
    kernel = kernel_from_predictor(predictor)
    used = "numpy" if core == "numpy" and batch_supported(kernel) else "fast"
    replay = batch_replay if used == "numpy" else fast_replay
    start = time.perf_counter()
    if telemetry.tracing_enabled():
        with telemetry.span(
            "fastcore.replay", workload=plan.workload, kernel=kernel.name
        ):
            mis = replay(kernel, plan)
    else:
        mis = replay(kernel, plan)
    wall = time.perf_counter() - start
    if wall > 0.0 and telemetry.enabled():
        telemetry.get_registry().gauge(
            "fastcore.replay_branches_per_second"
        ).set(plan.n / wall)
    return used, mis
