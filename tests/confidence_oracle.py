"""Per-branch reference loop for confidence-instrumented simulation.

The oracle of ``tests/test_confidence_pass.py`` and of
``benchmarks/test_bench_confidence.py``: one branch at a time, the
predictor and the JRS estimator both index with the driver's global
history (predicate defines shifted in at their availability points,
only the guard predicates' under ``PGUConfig(which="guards_only")``),
and the estimator trains right after every prediction.

Its selection of squashed branches and PGU defines,
:func:`frontend_rules`, is written independently of the simulator's
shared rules, which ``tests/test_frontend_rules.py`` checks against it.
"""

from repro.pipeline.availability import AvailabilityModel
from repro.pipeline.frontend import GlobalHistory
from repro.predictors.confidence import ConfidenceResult
from repro.sim.driver import SimOptions


def frontend_rules(trace, options: SimOptions):
    """The squash filter's and PGU's selections, restated with lists.

    Returns ``(squash, defines, delay)``: ``squash`` is a per-branch
    list of bools (``None`` without SFP), ``defines`` the
    ``(d_idx, value)`` pairs PGU shifts into history, in execution
    order, and ``delay`` their visibility lag in dynamic instructions.
    """
    availability = AvailabilityModel(options.distance)
    sfp = options.sfp
    if sfp is None:
        squash = None
    elif sfp.squash_known_true:
        squash = (
            availability.guard_known_mask(trace) & (trace.b_guard != 0)
        ).tolist()
    else:
        squash = availability.squashable_mask(trace).tolist()

    pgu = options.pgu
    if pgu is None:
        return squash, [], 0
    delay = options.distance if pgu.delay is None else pgu.delay
    guards = set(trace.b_guard[trace.b_guard > 0].tolist())
    defines = [
        (j, value)
        for j, value, pred in zip(
            trace.d_idx.tolist(),
            trace.d_value.tolist(),
            trace.d_pred.tolist(),
        )
        if pgu.which != "guards_only" or pred in guards
    ]
    return squash, defines, delay


def oracle_confidence(trace, predictor, estimator,
                      options: SimOptions = SimOptions()):
    """The :class:`ConfidenceResult` of ``trace``, branch by branch."""
    history = GlobalHistory(options.history_bits)
    sfp = options.sfp
    squash_list, defines, delay = frontend_rules(trace, options)
    num_defs = len(defines)

    b_pc = trace.b_pc.tolist()
    b_idx = trace.b_idx.tolist()
    b_taken = trace.b_taken.tolist()
    dptr = 0

    perfect = high = high_correct = low = low_correct = 0

    for i in range(len(b_pc)):
        j = b_idx[i]
        while dptr < num_defs and defines[dptr][0] + delay <= j:
            history.shift(defines[dptr][1])
            dptr += 1
        pc = b_pc[i]
        taken = b_taken[i]
        if squash_list is not None and squash_list[i]:
            perfect += 1
            if sfp.update_pht:
                predictor.update(pc, history.bits, taken)
            if sfp.update_history:
                history.shift(taken)
            continue
        ghr = history.bits
        predicted = predictor.predict(pc, ghr)
        confident = estimator.is_confident(pc, ghr)
        correct = predicted == taken
        predictor.update(pc, ghr, taken)
        estimator.update(pc, ghr, correct)
        history.shift(taken)
        if confident:
            high += 1
            high_correct += int(correct)
        else:
            low += 1
            low_correct += int(correct)

    return ConfidenceResult(
        branches=len(b_pc),
        perfect=perfect,
        high=high,
        high_correct=high_correct,
        low=low,
        low_correct=low_correct,
    )
