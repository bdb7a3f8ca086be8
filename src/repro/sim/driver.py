"""The trace-driven simulation driver.

:func:`simulate` replays a trace's branch stream through one predictor
under a front-end configuration: the availability distance ``D``, the
squash false-path filter, and predicate global update.  The front end
is decoded once, into a replay plan
(:func:`repro.sim.fastcore.plan_for`): every branch's predict-time
global history (branch outcomes and predicate defines shifted in the
order fetch sees them), the squash mask, and the ordered stream of
predictor reads and table updates, delayed-update drains included.
Predictors just consume the history value they are handed.

Every core shares one body.  A core only decides which branches
mispredicted — the object predictor stepping through the plan's events
(``object``) or its own tables (``fast``, ``numpy``) — and everything
else derives from that mispredict vector here: per-class statistics,
flags, BTB misfetches, profiler events and the ``sim.*`` counters.  The
branch-by-branch loop this replaced is the independent oracle
``tests/driver_oracle.py``.
"""

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import telemetry
from repro.pipeline.availability import DEFAULT_DISTANCE
from repro.pipeline.btb import BTBConfig
from repro.predictors.base import BranchPredictor
from repro.predictors.pgu import PGUConfig
from repro.predictors.sfp import SFPConfig
from repro.sim.stats import ClassStats
from repro.trace.container import BranchClass, Trace

@dataclass(frozen=True)
class SimOptions:
    """Front-end configuration for one simulation run.

    ``delayed_update`` models trainer latency: pattern tables are updated
    only once the branch has resolved — ``distance`` dynamic instructions
    after its fetch — instead of instantly.  Global history still updates
    at predict time (it is speculative in hardware, and trace-driven
    simulation follows the correct path).
    """

    distance: int = DEFAULT_DISTANCE
    history_bits: int = 32
    sfp: Optional[SFPConfig] = None  #: None disables the squash filter
    pgu: Optional[PGUConfig] = None  #: None disables predicate update
    delayed_update: bool = False
    btb: Optional["BTBConfig"] = None  #: None models a perfect BTB
    #: record per-branch flags for the fetch simulator
    record_flags: bool = False

    def describe(self) -> str:
        parts = [f"D={self.distance}"]
        if self.sfp is not None:
            parts.append(self.sfp.describe())
        if self.pgu is not None:
            parts.append(self.pgu.describe())
        if self.delayed_update:
            parts.append("delayed-update")
        if self.btb is not None:
            parts.append(self.btb.describe())
        return ",".join(parts)


@dataclass
class BranchFlags:
    """Per-branch outcome flags for the fetch simulator."""

    correct: "np.ndarray"  #: prediction (or squash) matched the outcome
    squashed: "np.ndarray"  #: handled by the squash filter
    misfetch: "np.ndarray"  #: right direction, BTB had no target


@dataclass
class SimResult:
    """Outcome of one (trace, predictor, options) simulation."""

    predictor: str
    options: SimOptions
    workload: str
    instructions: int
    branches: int
    mispredictions: int
    squashed: int
    per_class: dict = field(default_factory=dict)
    #: direction was predicted taken and was right, but the BTB had no
    #: target (only counted when a BTB is modelled)
    misfetches: int = 0
    #: per-branch flags (only with ``SimOptions(record_flags=True)``)
    flags: Optional["BranchFlags"] = None
    #: misprediction attribution (only when :func:`simulate` was given a
    #: collector that aggregates, e.g. an ``AggregatingCollector``)
    attribution: Optional["AttributionAggregator"] = None  # noqa: F821

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def accuracy(self) -> float:
        return 1.0 - self.misprediction_rate

    @property
    def mpki(self) -> float:
        """Mispredictions per 1000 dynamic instructions."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.mispredictions / self.instructions

    @property
    def squash_coverage(self) -> float:
        return self.squashed / self.branches if self.branches else 0.0

    @property
    def misfetch_rate(self) -> float:
        return self.misfetches / self.branches if self.branches else 0.0

    def class_stats(self, branch_class: BranchClass) -> ClassStats:
        return self.per_class.get(branch_class, ClassStats())

    def headline_metrics(self) -> dict:
        """Flat ``name -> number`` summary for the run-history store.

        Deterministic given (trace, predictor, options) — everything
        here derives from the integer outcome counters, so recorded
        payloads are byte-identical across serial and parallel sweeps.
        Keys are stable API: ``repro history diff`` matches on them.
        """
        metrics = {
            "branches": float(self.branches),
            "mispredictions": float(self.mispredictions),
            "misprediction_rate": self.misprediction_rate,
            "mpki": self.mpki,
            "squashed": float(self.squashed),
            "squash_coverage": self.squash_coverage,
            "misfetches": float(self.misfetches),
        }
        for branch_class, stats in sorted(
            self.per_class.items(), key=lambda item: int(item[0])
        ):
            name = branch_class.name.lower()
            metrics[f"class.{name}.branches"] = float(stats.branches)
            metrics[f"class.{name}.misprediction_rate"] = (
                stats.misprediction_rate
            )
            metrics[f"class.{name}.squash_coverage"] = (
                stats.squash_coverage
            )
        return metrics


def simulate(
    trace: Trace,
    predictor: BranchPredictor,
    options: SimOptions = SimOptions(),
    collector=None,
    core: Optional[str] = None,
) -> SimResult:
    """Run ``trace`` through ``predictor`` under ``options``.

    ``collector`` (an :class:`repro.profiler.EventCollector`) receives a
    :class:`~repro.profiler.events.PredictionEvent` for every sampled
    dynamic branch — sampling is the collector's deterministic
    1-in-``rate`` decision keyed on the branch's stream index, so the
    event stream is identical run to run and core to core.  The events
    come from a post-pass over the finished replay; with no collector,
    or one whose first sample lies past the last branch, that pass
    does nothing.

    ``core`` selects who replays the plan: ``"object"`` (the object
    predictor, event by event), ``"fast"`` (its own tables) or
    ``"numpy"`` (batched table replay); ``None`` resolves through
    :func:`repro.sim.core.resolve_core` (context, then
    ``$REPRO_SIM_CORE``, then ``"object"``).  Results are bit-identical
    across cores, and every core trains ``predictor``; one the fast
    cores do not take (static, perfect, subclasses) runs on the object
    core regardless of the knob.  Every
    call counts ``sim.core.<used>``; such a fallback also counts
    ``sim.fallback.predictor``.

    With tracing on (:mod:`repro.telemetry.tracing`) the run is wrapped
    in a ``sim.driver`` span, which also observes
    ``span.sim.driver.seconds``; the span opens only while tracing, so
    an untraced call times nothing, and the ``sim.*`` counters are the
    same either way.
    """
    from repro.sim.core import resolve_core

    core = resolve_core(core)
    if not telemetry.tracing_enabled():
        return _simulate(trace, predictor, options, collector, core)
    with telemetry.span(
        "sim.driver",
        workload=trace.meta.workload or "<trace>",
        predictor=predictor.name,
        core=core,
    ):
        return _simulate(trace, predictor, options, collector, core)


def _simulate(
    trace: Trace,
    predictor: BranchPredictor,
    options: SimOptions,
    collector,
    core: str,
) -> SimResult:
    """The driver body; ``core`` arrives resolved (see :func:`simulate`)."""
    from repro.sim import fastcore

    fallback = None
    if core != "object" and not fastcore.kernelizable(predictor):
        core, fallback = "object", "predictor"
    # While tracing, a decode on a kernel core gets its own span; a
    # cache hit still takes its sequence number, so the replay span's id
    # does not depend on what this process decoded before.
    decode = nullcontext()
    if core != "object" and telemetry.tracing_enabled():
        if fastcore.cached_plan(trace, options) is None:
            decode = telemetry.span(
                "fastcore.decode", workload=trace.meta.workload or "<trace>"
            )
        else:
            telemetry.skip_span()
    with decode:
        plan = fastcore.plan_for(trace, options)
    if core == "object":
        mis = fastcore.object_replay(predictor, plan, trace.b_target)
    else:
        core, mis = fastcore.kernel_replay(predictor, plan, core)

    n = plan.n
    squash = plan.squash
    if options.btb is not None:
        misfetched = fastcore.btb_misfetches(
            plan, mis, trace.b_target, options.btb
        )
    else:
        misfetched = np.zeros(0, dtype=np.int64)

    # Only the mispredictions depend on the replay; the plan holds the
    # per-class branch and squash counts.
    mis_counts = np.bincount(plan.cls[mis], minlength=3)
    per_class = {
        branch_class: ClassStats(
            branches=int(plan.class_counts[int(branch_class)]),
            mispredictions=int(mis_counts[int(branch_class)]),
            squashed=int(plan.squash_class_counts[int(branch_class)]),
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
        squashed = (
            squash.copy() if squash is not None else np.zeros(n, dtype=bool)
        )
        flags = BranchFlags(correct, squashed, misfetch)

    attribution = None
    if collector is not None:
        fastcore.emit_events(collector, trace, plan, mis)
        # Duck-typed: any collector that exposes an `aggregator` (e.g.
        # AggregatingCollector, or a Tee wrapping one) rides back on the
        # result, which is how sweep workers ship attribution to the
        # parent.
        attribution = getattr(collector, "aggregator", None)
    result = SimResult(
        predictor=predictor.name,
        options=options,
        workload=plan.workload,
        instructions=plan.instructions,
        branches=n,
        mispredictions=int(mis.shape[0]),
        squashed=plan.squashed,
        per_class=per_class,
        misfetches=int(misfetched.shape[0]),
        flags=flags,
        attribution=attribution,
    )
    if telemetry.enabled():
        registry = telemetry.get_registry()
        record_sim_counters(registry, result, plan.applied_updates)
        registry.counter(f"sim.core.{core}").inc()
        if fallback is not None:
            registry.counter(f"sim.fallback.{fallback}").inc()
    return result


def record_sim_counters(registry, result: SimResult,
                        applied_delayed: int) -> None:
    """Count one finished run into ``registry``'s ``sim.*`` counters.

    Every core records exactly this set, so merged sweep registries are
    identical whichever core ran each point; the caller adds only the
    counters naming its path (``sim.core.<used>``,
    ``sim.fallback.<reason>``).  ``applied_delayed`` is the number of
    delayed updates that reached the tables before the trace ended
    (read only under ``delayed_update``).
    """
    options = result.options
    predicts = result.branches - result.squashed
    updates = applied_delayed if options.delayed_update else predicts
    if options.sfp is not None and options.sfp.update_pht:
        updates += result.squashed
    registry.counter("sim.runs").inc()
    registry.counter("sim.instructions").inc(result.instructions)
    registry.counter("sim.branches").inc(result.branches)
    registry.counter("sim.predicts").inc(predicts)
    registry.counter("sim.updates").inc(updates)
    registry.counter("sim.mispredictions").inc(result.mispredictions)
    registry.counter("sim.squashed").inc(result.squashed)
    registry.counter("sim.misfetches").inc(result.misfetches)
    for branch_class, stats in result.per_class.items():
        prefix = f"sim.class.{branch_class.name.lower()}"
        registry.counter(f"{prefix}.branches").inc(stats.branches)
        registry.counter(f"{prefix}.mispredictions").inc(
            stats.mispredictions
        )
        registry.counter(f"{prefix}.squashed").inc(stats.squashed)
