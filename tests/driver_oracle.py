"""The branch-by-branch simulation loop: the simulator's independent oracle.

This is the simulation driver's former object-model loop, kept as the
reference the differential suite (``tests/test_driver_oracle.py``)
checks every core against.  It owns a real :class:`GlobalHistory`,
drains a delayed-update queue, models the BTB inline and emits profiler
events as it goes, one branch at a time — none of it shares code with
the replay plan the simulator decodes.  Its squash and define
selection comes from :func:`tests.confidence_oracle.frontend_rules`,
which is written independently of the simulator's shared front-end
rules.

Nothing in ``src/`` uses it.
"""

import numpy as np

from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.frontend import GlobalHistory
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.static import StaticPredictor
from repro.profiler.events import (
    AVAIL_NEVER,
    CONF_PERFECT,
    CONF_UNKNOWN,
    PGUPath,
    PredictionEvent,
    SFPDecision,
)
from repro.sim.driver import BranchFlags, SimOptions, SimResult
from repro.sim.stats import ClassStats
from repro.trace.container import BranchClass
from tests.confidence_oracle import frontend_rules

_SFP_NOT_FILTERED = int(SFPDecision.NOT_FILTERED)
_SFP_FILTERED_CORRECT = int(SFPDecision.FILTERED_CORRECT)
_SFP_FILTERED_WRONG = int(SFPDecision.FILTERED_WRONG)
_PGU_OFF = int(PGUPath.OFF)
_PGU_UPDATE = int(PGUPath.UPDATE)
_PGU_INSERT = int(PGUPath.INSERT)


def oracle_simulate(trace, predictor, options: SimOptions = SimOptions(),
                    collector=None):
    """Simulate branch by branch; returns ``(result, applied_updates)``.

    ``applied_updates`` counts the delayed updates that reached the
    tables before the trace ended (0 without ``delayed_update``).
    """
    history = GlobalHistory(options.history_bits)
    sfp = options.sfp
    pgu = options.pgu
    squash_list, defines, delay = frontend_rules(trace, options)
    d_idx = [j for j, _ in defines]
    d_value = [value for _, value in defines]
    num_defs = len(d_idx)

    b_pc = trace.b_pc.tolist()
    b_idx = trace.b_idx.tolist()
    b_taken = trace.b_taken.tolist()
    b_target = trace.b_target.tolist()
    classes = trace.branch_classes().tolist()

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

    # Profiling: `next_sample` stays -1, which no index reaches, when
    # no collector is installed or its first sample lies past the end.
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
        attribution=getattr(collector, "aggregator", None),
    )
    return result, pptr
