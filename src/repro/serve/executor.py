"""Job execution: the worker half of the daemon.

:func:`execute_job` is a plain picklable function the server submits to
its persistent :class:`~concurrent.futures.ProcessPoolExecutor` (or, in
``--workers 0`` inline mode, to a thread).  It replays a canonical job
spec through the existing simulate/sweep/profile machinery and returns
the *payload metrics* — exactly the flat dict a ``--record``-ed CLI run
would have written — plus the worker's telemetry registry, which the
server merges so daemon-side ``sim.*``/``sweep.*`` counters stay
comparable with the serial harness.

Warm state amortized across requests, per worker process:

* traces are fetched through :meth:`Workload.trace
  <repro.workloads.base.Workload.trace>`: the shared on-disk
  :class:`~repro.trace.TraceCache` gives cross-process warmth, and its
  process-wide decoded-trace memo lets repeat requests skip the npz
  decode entirely;
* the fast-core replay-plan cache inside :mod:`repro.sim.fastcore`
  persists with the process, so pre-decoded plans are reused too.

Core resolution (the ``--core`` satellite): the *server* resolves the
knob once at startup — argument > ambient ``use_core`` > ``$REPRO_SIM_CORE``
— and ships the resolved name both through the pool initializer (which
pins ``$REPRO_SIM_CORE`` in the worker, so any nested resolution agrees)
and as an explicit argument to every :func:`execute_job` call, mirroring
how the sweep engine threads the parent's resolution into its workers.
"""

import os
import time
from contextlib import ExitStack
from typing import Dict, Optional

from repro.profiler.collector import AggregatingCollector
from repro.profiler.spec import ProfileSpec
from repro.runstore.record import metrics_from_sim_result
from repro.serve.protocol import (
    build_options,
    build_predictor,
    predictor_description,
)
from repro.sim.core import CORE_ENV
from repro.sim.driver import simulate
from repro.sim.sweep import ParallelSweepRunner
from repro.telemetry import MetricsRegistry, span, tracing, use_registry
from repro.trace.container import Trace
from repro.workloads import get_workload

def init_worker(core: str) -> None:
    """Pool initializer: pin the daemon's resolved core in the worker."""
    os.environ[CORE_ENV] = core


def _trace(workload: str, scale: str, baseline: bool) -> Trace:
    with span("serve-trace-load", workload=workload, scale=scale):
        return get_workload(workload).trace(
            scale=scale, hyperblocks=not baseline
        )


def _exec_simulate(spec: dict, core: str) -> Dict[str, float]:
    trace = _trace(spec["workload"], spec["scale"], spec["baseline"])
    result = simulate(
        trace, build_predictor(spec), build_options(spec), core=core
    )
    # Same shape as cli._cmd_simulate's recorder.add_sim_result.
    return metrics_from_sim_result(result, prefix=spec["workload"])


def _exec_sweep(spec: dict, core: str) -> Dict[str, float]:
    traces = {
        name: _trace(name, spec["scale"], spec["baseline"])
        for name in spec["workloads"]
    }
    factories = {}
    for predictor in spec["predictors"]:
        label = predictor_description(
            predictor["name"], predictor["entries"]
        )
        factories[label] = (
            lambda p=predictor: build_predictor(
                {"predictor": p["name"], "entries": p["entries"]}
            )
        )
    grid = [build_options(options) for options in spec["options"]]
    # One job occupies one pool worker, so the grid runs serially here
    # (workers=1) through the standard runner — canonical point order,
    # deterministic merged telemetry, identical to the CLI sweep path.
    runner = ParallelSweepRunner(workers=1, core=core)
    results = runner.run(traces, factories, grid)
    metrics: Dict[str, float] = {}
    for result in results:
        prefix = (
            f"{result.workload}.{result.predictor}."
            f"{result.options.describe()}"
        )
        metrics.update(metrics_from_sim_result(result, prefix=prefix))
    return metrics


def _exec_profile(spec: dict, core: str) -> Dict[str, float]:
    trace = _trace(spec["workload"], spec["scale"], spec["baseline"])
    profile = ProfileSpec(rate=spec["rate"], seed=spec["seed"])
    collector = AggregatingCollector(profile, workload=spec["workload"])
    result = simulate(
        trace, build_predictor(spec), build_options(spec),
        collector=collector, core=core,
    )
    metrics = metrics_from_sim_result(result, prefix=spec["workload"])
    aggregator = collector.aggregator
    totals = aggregator.totals()
    metrics.update({
        "profile.events": float(totals["events"]),
        "profile.mispredictions": float(totals["mispredictions"]),
        "profile.filtered": float(totals["filtered"]),
        "profile.static_sites": float(totals["static_sites"]),
        "profile.h2p_90": float(aggregator.h2p_count(0.9)),
    })
    for rank, record in enumerate(aggregator.top_branches(5), start=1):
        head = f"profile.top{rank:02d}"
        metrics[f"{head}.pc"] = float(record.pc)
        metrics[f"{head}.mispredictions"] = float(
            record.mispredictions
        )
    return metrics


_EXECUTORS = {
    "simulate": _exec_simulate,
    "sweep": _exec_sweep,
    "profile": _exec_profile,
}


def execute_job(spec: dict, core: Optional[str] = None,
                traceparent: Optional[str] = None) -> dict:
    """Run one canonical job spec; returns metrics + worker telemetry.

    ``core`` is the server's resolved knob, passed explicitly exactly
    like the sweep parent does for its workers; ``None`` falls back to
    the worker's pinned ``$REPRO_SIM_CORE`` (set by :func:`init_worker`)
    via the normal resolution inside :func:`simulate`.

    The job runs under a fresh :class:`MetricsRegistry` which rides back
    in the return value (registries pickle), so the server can merge
    worker counters deterministically — the same protocol the sweep
    engine uses for its points.

    ``traceparent`` (the server's ``serve.execute`` span) turns tracing
    on for the job: the ``serve-job`` span and everything under it —
    trace loads, ``sim.driver``, sweep points — link into the request's
    trace, and the records ride back in ``"spans"`` (a pickled
    :class:`~repro.telemetry.SpanCollector`), mirroring the registry.
    """
    start = time.perf_counter()
    with ExitStack() as stack:
        spans_out = None
        if traceparent is not None:
            spans_out = tracing.SpanCollector()
            stack.enter_context(tracing.use_tracing(True))
            stack.enter_context(tracing.use_collector(spans_out))
            stack.enter_context(tracing.use_context(
                tracing.from_traceparent(traceparent)
            ))
        registry = stack.enter_context(use_registry(MetricsRegistry()))
        with span("serve-job", op=spec["op"]):
            metrics = _EXECUTORS[spec["op"]](spec, core)
    return {
        "metrics": metrics,
        "registry": registry,
        "seconds": time.perf_counter() - start,
        "spans": spans_out,
    }
