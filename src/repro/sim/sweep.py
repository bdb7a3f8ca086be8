"""Parameter sweeps: run a grid of (trace, predictor, options) points.

Grid points are fully independent, so the sweep can fan them out over a
:class:`concurrent.futures.ProcessPoolExecutor`.  The parallel path is
bit-identical to the serial one: predictors are constructed in the parent
(one fresh instance per point, exactly as the serial loop does), shipped
to workers by pickle, and results are reassembled into the canonical
(trace, predictor, options) nesting order regardless of completion order.

Worker count resolution, in priority order:

1. an explicit ``workers=`` argument,
2. the ``REPRO_SWEEP_WORKERS`` environment variable,
3. ``1`` (serial, in-process — the historical behaviour).

``workers=0`` (or ``REPRO_SWEEP_WORKERS=0``) means "all CPUs".

Telemetry: each grid point is simulated under a *fresh*
:class:`~repro.telemetry.MetricsRegistry` (in the worker process for the
parallel path), which travels back with the result and is merged into
the parent's current registry in canonical point order — so merged
counters are bit-identical between the serial and parallel paths.  The
runner itself records ``sweep.*`` counters, per-point wall-time and
queue-wait histograms, and a worker-utilisation gauge.
"""

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro import telemetry
from repro.profiler.collector import AggregatingCollector
from repro.profiler.spec import ProfileSpec
from repro.sim.core import resolve_core
from repro.sim.driver import SimOptions, SimResult, simulate
from repro.telemetry import MetricsRegistry, span, tracing, use_registry
from repro.trace.container import Trace

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


class SweepError(RuntimeError):
    """A sweep grid point failed (worker exception or crashed worker)."""


@dataclass(frozen=True)
class SweepPoint:
    """Identity of one grid point, in canonical nesting order."""

    index: int  #: position in the (trace, predictor, options) ordering
    total: int  #: number of points in the whole grid
    workload: str
    predictor: str
    options: SimOptions


@dataclass(frozen=True)
class SweepProgress:
    """One per-point progress report, delivered as points *complete*."""

    point: SweepPoint
    seconds: float  #: wall-clock simulation time of this point
    completed: int  #: points finished so far (including this one)


#: Signature of the pluggable progress callback.
ProgressCallback = Callable[[SweepProgress], None]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``$REPRO_SWEEP_WORKERS`` > 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


# -- worker side --------------------------------------------------------------

#: Per-worker trace table, installed once by the pool initializer so each
#: trace crosses the process boundary once per worker, not once per point.
_WORKER_TRACES: Optional[Dict[str, Trace]] = None


def _init_worker(traces_blob: bytes) -> None:
    global _WORKER_TRACES
    _WORKER_TRACES = pickle.loads(traces_blob)


def _simulate_point(trace, point, predictor, profile, core, sweep_ctx):
    """Simulate one grid point; the one body of both sweep paths.

    The point runs under a fresh registry so its counters can be merged
    deterministically in the parent.  With a
    :class:`~repro.profiler.spec.ProfileSpec` the point also runs under
    a fresh attribution aggregator, which rides back on
    ``result.attribution`` exactly like the registry.

    ``sweep_ctx`` (the sweep span's trace context) turns tracing on for
    the point: it runs under a ``sweep-point`` span whose id is
    derived from the sweep context and the point's canonical index —
    not from scheduling — and its spans come back in a fresh
    :class:`~repro.telemetry.SpanCollector`, mirroring the registry.
    Returns ``(result, registry, spans)``; ``spans`` is ``None`` when
    not tracing.
    """
    collector = (
        AggregatingCollector(profile, workload=point.workload)
        if profile is not None
        else None
    )
    spans = None
    with ExitStack() as stack:
        # The point's registry is entered first, so the span histograms
        # of the point (``sweep-point`` included) land in it whichever
        # process ran the point.
        registry = stack.enter_context(use_registry(MetricsRegistry()))
        if sweep_ctx is not None:
            spans = tracing.SpanCollector()
            stack.enter_context(tracing.use_tracing(True))
            stack.enter_context(tracing.use_collector(spans))
            stack.enter_context(
                tracing.use_context(sweep_ctx, next_seq=point.index)
            )
            stack.enter_context(span(
                "sweep-point", index=point.index, workload=point.workload,
                predictor=point.predictor,
            ))
        result = simulate(
            trace, predictor, point.options, collector=collector, core=core
        )
    result.workload = point.workload
    result.predictor = point.predictor
    return result, registry, spans


def _run_point(point, predictor, profile, core, traceparent):
    """Simulate one grid point inside a worker process.

    ``started_at`` (wall clock) lets the parent estimate how long the
    point sat in the pool's queue; ``traceparent`` carries the sweep
    span's context across the process boundary.
    """
    started_at = time.time()
    start = time.perf_counter()
    sweep_ctx = (
        tracing.from_traceparent(traceparent)
        if traceparent is not None
        else None
    )
    result, registry, spans = _simulate_point(
        _WORKER_TRACES[point.workload], point, predictor, profile, core,
        sweep_ctx,
    )
    return (
        point.index, result, time.perf_counter() - start, registry,
        started_at, spans,
    )


# -- parent side --------------------------------------------------------------


class ParallelSweepRunner:
    """Executes a sweep grid, serially or over a process pool.

    Results always come back in (trace, predictor, options) nesting
    order and are bit-identical to the serial path: each point gets a
    fresh predictor built in the parent by its factory, and
    :func:`~repro.sim.driver.simulate` is deterministic given (trace,
    predictor initial state, options).

    ``progress`` is called once per point, in *completion* order, with a
    :class:`SweepProgress` carrying identity, timing and running count.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        mp_context=None,
        core: Optional[str] = None,
    ):
        self.workers = resolve_workers(workers)
        self.progress = progress
        self.mp_context = mp_context
        self.core = core  #: simulation core knob; resolved at run()
        self._busy = 0.0  #: summed per-point seconds of the current run

    def run(
        self,
        traces: Dict[str, Trace],
        predictor_factories: Dict[str, Callable[[], "BranchPredictor"]],
        options_grid: Iterable[SimOptions],
        profile: Optional[ProfileSpec] = None,
    ) -> List[SimResult]:
        # Resolve the core in the parent so the ambient use_core() /
        # $REPRO_SIM_CORE context applies identically to the serial
        # path and to pool workers (which see neither).
        core = resolve_core(self.core)
        points = self._enumerate(traces, predictor_factories, options_grid)
        serial = self.workers <= 1 or len(points) <= 1
        effective = 1 if serial else min(self.workers, len(points))
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter("sweep.runs").inc()
            registry.counter("sweep.points_total").inc(len(points))
            registry.gauge("sweep.workers").set(effective)
        self._busy = 0.0
        start = time.perf_counter()
        with span("sweep", points=len(points), workers=effective):
            if serial:
                results = self._run_serial(traces, points, profile, core)
            else:
                results = self._run_parallel(traces, points, profile, core)
        wall = time.perf_counter() - start
        if telemetry.enabled() and wall > 0.0:
            registry = telemetry.get_registry()
            # Busy-time over capacity: 1.0 means no worker ever idled.
            registry.gauge("sweep.worker_utilisation").set(
                min(1.0, self._busy / (wall * effective))
            )
            # Wall clock of the grid: with sweep.points_completed this
            # gives the points/second throughput RunRecords capture.
            registry.gauge("sweep.wall_seconds").set(wall)
            registry.gauge("sweep.points_per_second").set(
                len(points) / wall
            )
        return results

    def _enumerate(self, traces, predictor_factories, options_grid):
        """Materialise the grid in canonical nesting order.

        Each entry is ``(point, predictor)`` — the predictor is built
        here, in the parent, so construction order (and hence any
        factory-side state) matches the serial path exactly.
        """
        options_list = list(options_grid)
        total = (
            len(traces) * len(predictor_factories) * len(options_list)
        )
        points = []
        for trace_name in traces:
            for label, factory in predictor_factories.items():
                for options in options_list:
                    point = SweepPoint(
                        index=len(points),
                        total=total,
                        workload=trace_name,
                        predictor=label,
                        options=options,
                    )
                    points.append((point, factory()))
        return points

    def _report(self, point, seconds, completed):
        self._busy += seconds
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter("sweep.points_completed").inc()
            registry.histogram("sweep.point_seconds").observe(seconds)
        if self.progress is not None:
            self.progress(
                SweepProgress(
                    point=point, seconds=seconds, completed=completed
                )
            )

    @staticmethod
    def _sweep_context():
        """The sweep span's trace context, if tracing is active.

        Inside ``run()``'s ``span("sweep")`` this is the context every
        per-point ``sweep-point`` span hangs off — the serial loop and
        the pool workers both derive point contexts from it by canonical
        index, which is what makes the two span sets identical.
        """
        if not tracing.tracing_enabled():
            return None
        return tracing.current_context()

    def _run_serial(self, traces, points, profile=None, core="object"):
        parent_registry = telemetry.get_registry()
        sweep_ctx = self._sweep_context()
        parent_spans = tracing.get_collector() if sweep_ctx else None
        results = []
        for point, predictor in points:
            start = time.perf_counter()
            try:
                result, registry, point_spans = _simulate_point(
                    traces[point.workload], point, predictor, profile,
                    core, sweep_ctx,
                )
            except Exception as exc:
                raise SweepError(self._describe_failure(point, exc)) from exc
            parent_registry.merge(registry)
            if sweep_ctx is not None:
                parent_spans.merge(point_spans)
            results.append(result)
            self._report(point, time.perf_counter() - start, len(results))
        return results

    def _run_parallel(self, traces, points, profile=None, core="object"):
        traces_blob = pickle.dumps(traces, protocol=pickle.HIGHEST_PROTOCOL)
        slots: List[Optional[SimResult]] = [None] * len(points)
        registries: List[Optional[MetricsRegistry]] = [None] * len(points)
        queue_waits: List[float] = [0.0] * len(points)
        sweep_ctx = self._sweep_context()
        traceparent = (
            sweep_ctx.to_traceparent() if sweep_ctx is not None else None
        )
        span_sets: List[Optional[tracing.SpanCollector]] = (
            [None] * len(points)
        )
        completed = 0
        max_workers = min(self.workers, len(points))
        with ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=self.mp_context,
            initializer=_init_worker,
            initargs=(traces_blob,),
        ) as pool:
            futures = {}
            submitted_at = {}
            for point, predictor in points:
                futures[
                    pool.submit(
                        _run_point, point, predictor, profile, core,
                        traceparent,
                    )
                ] = point
                submitted_at[point.index] = time.time()
            for future in as_completed(futures):
                point = futures[future]
                try:
                    (
                        index, result, seconds, registry,
                        started_at, point_spans,
                    ) = future.result()
                except BrokenProcessPool as exc:
                    raise SweepError(
                        "sweep worker process died unexpectedly (while "
                        f"running {len(futures)} points with "
                        f"{max_workers} workers); first affected point: "
                        f"{self._describe_point(point)}"
                    ) from exc
                except Exception as exc:
                    # Fail fast: drop queued points so the error isn't
                    # stuck behind the rest of the grid.
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise SweepError(
                        self._describe_failure(point, exc)
                    ) from exc
                slots[index] = result
                registries[index] = registry
                span_sets[index] = point_spans
                queue_waits[index] = max(
                    0.0, started_at - submitted_at[index]
                )
                completed += 1
                self._report(point, seconds, completed)
        # Merge the worker registries in canonical point order — the
        # same order the serial path merges in, so the merged counters
        # are identical however the points were scheduled.
        if telemetry.enabled():
            parent_registry = telemetry.get_registry()
            for registry in registries:
                if registry is not None:
                    parent_registry.merge(registry)
            queue_wait = parent_registry.histogram(
                "sweep.queue_wait_seconds"
            )
            for wait in queue_waits:
                queue_wait.observe(wait)
        if sweep_ctx is not None:
            # Same protocol for spans: canonical point order, so the
            # merged record list matches the serial path exactly.
            parent_spans = tracing.get_collector()
            for point_spans in span_sets:
                if point_spans is not None:
                    parent_spans.merge(point_spans)
        return slots

    @staticmethod
    def _describe_point(point: SweepPoint) -> str:
        return (
            f"point {point.index + 1}/{point.total} "
            f"(workload={point.workload!r}, predictor={point.predictor!r}, "
            f"options={point.options.describe()})"
        )

    def _describe_failure(self, point: SweepPoint, exc: Exception) -> str:
        return (
            f"sweep {self._describe_point(point)} failed: "
            f"{type(exc).__name__}: {exc}"
        )


def sweep(
    traces: Dict[str, Trace],
    predictor_factories: Dict[str, Callable[[], "BranchPredictor"]],
    options_grid: Iterable[SimOptions],
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    profile: Optional[ProfileSpec] = None,
    core: Optional[str] = None,
) -> List[SimResult]:
    """Simulate every combination, with a *fresh* predictor per point.

    ``predictor_factories`` maps a label to a zero-argument constructor —
    predictors are stateful, so each grid point gets its own instance.
    Results come back in (trace, predictor, options) nesting order,
    identically for the serial and parallel paths.

    ``workers`` > 1 fans points out over a process pool (``0`` = all
    CPUs, default serial; ``$REPRO_SWEEP_WORKERS`` overrides when the
    argument is omitted).  ``progress`` receives one
    :class:`SweepProgress` per completed point.

    ``profile`` turns on per-point misprediction attribution: each
    point's :class:`~repro.sim.driver.SimResult` carries an
    ``attribution`` aggregator, and
    :func:`repro.profiler.merge_attributions` folds them (pass results
    in the returned canonical order) into one deterministic report —
    identical for serial and parallel runs.

    ``core`` selects the simulation core for every point (argument >
    ambient :func:`repro.sim.core.use_core` > ``$REPRO_SIM_CORE`` >
    ``"object"``); it is resolved once in the parent, so pool workers
    honour the caller's context.  Fast cores are bit-identical to the
    object core and fall back to it per point where unsupported, so
    results never depend on the knob.
    """
    runner = ParallelSweepRunner(
        workers=workers, progress=progress, core=core
    )
    return runner.run(
        traces, predictor_factories, options_grid, profile=profile
    )
