"""The trace-driven simulation loop.

:func:`simulate` replays a trace's branch stream through one predictor
under a front-end configuration: the availability distance ``D``, the
squash false-path filter, and predicate global update.  The driver owns
the global history register because the paper's mechanisms manipulate it;
predictors just consume the history value they are handed.

Event ordering: branches are processed in fetch order.  Before predicting
the branch at dynamic index ``j``, every predicate define that became
visible by ``j`` (``d_idx + delay <= j``) is shifted into history — this
interleaves predicate bits and branch outcomes in the order the front end
would see them.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import telemetry
from repro.pipeline.availability import (
    DEFAULT_DISTANCE,
    pgu_defines,
    squash_mask,
)
from repro.pipeline.btb import BTBConfig, BranchTargetBuffer
from repro.pipeline.frontend import GlobalHistory
from repro.predictors.base import BranchPredictor
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.pgu import PGUConfig
from repro.predictors.sfp import SFPConfig
from repro.predictors.static import StaticPredictor
from repro.profiler.events import (
    AVAIL_NEVER,
    CONF_PERFECT,
    CONF_UNKNOWN,
    PGUPath,
    PredictionEvent,
    SFPDecision,
)
from repro.sim.stats import ClassStats
from repro.trace.container import BranchClass, Trace

# Enum values pre-bound as ints: the profiled event path is inside the
# per-branch loop, where attribute lookups on IntEnum members cost real
# time at sampling rate 1.
_SFP_NOT_FILTERED = int(SFPDecision.NOT_FILTERED)
_SFP_FILTERED_CORRECT = int(SFPDecision.FILTERED_CORRECT)
_SFP_FILTERED_WRONG = int(SFPDecision.FILTERED_WRONG)
_PGU_OFF = int(PGUPath.OFF)
_PGU_UPDATE = int(PGUPath.UPDATE)
_PGU_INSERT = int(PGUPath.INSERT)


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
    event stream is identical run to run.  With no collector the event
    path reduces to one sentinel comparison per branch.

    ``core`` selects the execution engine: ``"object"`` (this loop, the
    reference), ``"fast"`` (flat kernels over a pre-decoded stream) or
    ``"numpy"`` (batched table replay); ``None`` resolves through
    :func:`repro.sim.core.resolve_core` (context, then
    ``$REPRO_SIM_CORE``, then ``"object"``).  Results are bit-identical
    across cores; points the fast cores cannot model exactly —
    predictors without a kernel (static, perfect) and profiler
    collectors — run here regardless of the knob.  Every call counts
    ``sim.core.<used>``; a fallback also counts
    ``sim.fallback.<reason>`` (``predictor`` or ``collector``).

    With tracing on (:mod:`repro.telemetry.tracing`) the run is wrapped
    in a ``sim.driver`` trace span; this is trace-only — the ``sim.*``
    counter set recorded into the metrics registry never changes.
    """
    from repro.sim.core import resolve_core

    core = resolve_core(core)
    if not telemetry.tracing_enabled():
        return _simulate(trace, predictor, options, collector, core)
    with telemetry.trace_span(
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
    fallback = None
    if core != "object":
        from repro.sim import fastcore

        if fastcore.supported(predictor, options, collector):
            return fastcore.run_fast(
                trace, predictor, options, core=core
            )
        fallback = (
            "collector" if fastcore.kernelizable(predictor)
            else "predictor"
        )
    history = GlobalHistory(options.history_bits)
    sfp = options.sfp
    pgu = options.pgu
    squashable = squash_mask(trace, options)
    d_idx, d_value, delay = pgu_defines(trace, options)
    d_idx = d_idx.tolist()
    d_value = d_value.tolist()
    num_defs = len(d_idx)

    b_pc = trace.b_pc.tolist()
    b_idx = trace.b_idx.tolist()
    b_taken = trace.b_taken.tolist()
    b_target = trace.b_target.tolist()
    classes = trace.branch_classes().tolist()
    squash_list = squashable.tolist() if squashable is not None else None

    is_static = isinstance(predictor, StaticPredictor)
    is_perfect = isinstance(predictor, PerfectPredictor)
    predict = predictor.predict
    update = predictor.update
    shift = history.shift

    mispredictions = 0
    squashed = 0
    per_class = {
        BranchClass.NORMAL: ClassStats(),
        BranchClass.REGION: ClassStats(),
        BranchClass.LOOP: ClassStats(),
    }
    dptr = 0
    delayed = options.delayed_update
    resolve_after = options.distance
    pending = []  # (apply_at, pc, ghr, taken) when delayed_update
    pptr = 0
    btb = (
        BranchTargetBuffer(options.btb) if options.btb is not None else None
    )
    misfetches = 0
    record = options.record_flags
    f_correct = [] if record else None
    f_squashed = [] if record else None
    f_misfetch = [] if record else None

    # Profiling: `next_sample` is the only per-branch cost when no
    # collector is installed (it stays -1, which no index reaches).
    # A first sample past the last branch can never fire (sample
    # indices only grow), so skip the event plumbing entirely: a
    # disarmed contract checker or a past-the-end phase costs nothing.
    emitting = (
        collector is not None
        and (-collector.seed) % collector.rate < len(b_pc)
    )
    if emitting:
        p_rate = collector.rate
        next_sample = (-collector.seed) % p_rate
        collect = collector.collect
        pb_guard = trace.b_guard.tolist()
        pb_guard_def = trace.b_guard_def.tolist()
        pb_region = trace.b_region.tolist()
        pgu_on = pgu is not None

        def emit_event(i, j, predicted, taken, sfp_code, conf):
            # Predicate bits inserted since the previous branch: the
            # defines whose visibility index lands in (j_prev, j].
            if pgu_on:
                prev_j = b_idx[i - 1] if i else -1
                k = dptr
                while k and d_idx[k - 1] + delay > prev_j:
                    k -= 1
                bits = dptr - k
                pgu_code = _PGU_INSERT if bits else _PGU_UPDATE
            else:
                bits = 0
                pgu_code = _PGU_OFF
            guard_def = pb_guard_def[i]
            collect(PredictionEvent(
                seq=i,
                pc=b_pc[i],
                branch_class=classes[i],
                region_based=pb_region[i],
                guard=pb_guard[i],
                avail=(j - guard_def) if guard_def >= 0 else AVAIL_NEVER,
                sfp=sfp_code,
                pgu=pgu_code,
                pgu_bits=bits,
                predicted=predicted,
                taken=taken,
                conf=conf,
            ))
    else:
        p_rate = 0
        next_sample = -1
        emit_event = None

    for i in range(len(b_pc)):
        j = b_idx[i]
        while dptr < num_defs and d_idx[dptr] + delay <= j:
            shift(d_value[dptr])
            dptr += 1
        if delayed:
            while pptr < len(pending) and pending[pptr][0] <= j:
                __, pc_, ghr_, taken_ = pending[pptr]
                update(pc_, ghr_, taken_)
                pptr += 1

        stats = per_class[classes[i]]
        stats.branches += 1
        taken = b_taken[i]

        if squash_list is not None and squash_list[i]:
            # Guard resolved by fetch: the direction is certain (a guard
            # known false cannot be taken; with squash_known_true, a
            # guard known true must be).
            squashed += 1
            stats.squashed += 1
            if sfp.update_pht:
                update(b_pc[i], history.bits, taken)
            if sfp.update_history:
                shift(taken)
            missed_target = False
            if btb is not None and taken:
                # A known-true squash still needs the target.
                if btb.lookup(b_pc[i]) is None:
                    misfetches += 1
                    missed_target = True
                if b_target[i] >= 0:
                    btb.insert(b_pc[i], b_target[i])
            if record:
                f_correct.append(True)
                f_squashed.append(True)
                f_misfetch.append(missed_target)
            if i == next_sample:
                next_sample += p_rate
                asserted = taken if sfp.squash_known_true else False
                emit_event(
                    i, j, asserted, taken,
                    _SFP_FILTERED_CORRECT if asserted == taken
                    else _SFP_FILTERED_WRONG,
                    CONF_PERFECT,
                )
            continue

        if is_static:
            predictor.set_target(b_target[i])
        elif is_perfect:
            predictor.set_outcome(taken)
        ghr = history.bits
        predicted = predict(b_pc[i], ghr)
        if delayed:
            pending.append((j + resolve_after, b_pc[i], ghr, taken))
        else:
            update(b_pc[i], ghr, taken)
        shift(taken)
        if predicted != taken:
            mispredictions += 1
            stats.mispredictions += 1
        missed_target = False
        if btb is not None:
            if predicted and taken and btb.lookup(b_pc[i]) is None:
                # Right direction, no target by fetch: a misfetch.
                misfetches += 1
                missed_target = True
            if taken and b_target[i] >= 0:
                btb.insert(b_pc[i], b_target[i])
        if record:
            f_correct.append(predicted == taken)
            f_squashed.append(False)
            f_misfetch.append(missed_target)
        if i == next_sample:
            next_sample += p_rate
            emit_event(
                i, j, predicted, taken, _SFP_NOT_FILTERED, CONF_UNKNOWN
            )

    # Duck-typed: any collector that exposes an `aggregator` (e.g.
    # AggregatingCollector, or a Tee wrapping one) rides back on the
    # result, which is how sweep workers ship attribution to the parent.
    attribution = (
        getattr(collector, "aggregator", None)
        if collector is not None
        else None
    )
    result = SimResult(
        predictor=predictor.name,
        options=options,
        workload=trace.meta.workload or "<trace>",
        instructions=trace.meta.instructions,
        branches=trace.num_branches,
        mispredictions=mispredictions,
        squashed=squashed,
        per_class=per_class,
        misfetches=misfetches,
        flags=(
            BranchFlags(
                correct=np.asarray(f_correct, dtype=bool),
                squashed=np.asarray(f_squashed, dtype=bool),
                misfetch=np.asarray(f_misfetch, dtype=bool),
            )
            if record
            else None
        ),
        attribution=attribution,
    )
    if telemetry.enabled():
        # Coarse end-of-run counters only: the per-branch loop above is
        # the hot path and stays uninstrumented.
        registry = telemetry.get_registry()
        record_sim_counters(registry, result, pptr)
        registry.counter("sim.core.object").inc()
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
