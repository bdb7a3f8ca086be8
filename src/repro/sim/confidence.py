"""Confidence-instrumented simulation (feeds experiment E14)."""

from dataclasses import replace

from repro.predictors.base import BranchPredictor
from repro.predictors.confidence import ConfidenceEstimator, ConfidenceResult
from repro.sim.driver import SimOptions, simulate
from repro.sim.fastcore import jrs_confidence, plan_for
from repro.trace.container import Trace


def simulate_with_confidence(
    trace: Trace,
    predictor: BranchPredictor,
    estimator: ConfidenceEstimator,
    options: SimOptions = SimOptions(),
) -> ConfidenceResult:
    """Replay ``trace`` classifying every prediction's confidence.

    Squashed branches (when the options enable SFP) are *perfect*
    confidence; the estimator classifies the rest as high/low, indexing
    its table with the same predict-time history as the predictor (PGU
    included).  The predictor replays through :func:`simulate` on the
    ambient core; the estimator is a post-pass over the replay plan
    (:func:`~repro.sim.fastcore.replay.jrs_confidence`), which leaves
    its table exactly as training after every prediction would.

    The estimator trains as soon as a prediction resolves, so
    ``options.delayed_update`` is rejected.
    """
    if options.delayed_update:
        raise ValueError(
            "simulate_with_confidence does not model delayed updates"
        )
    result = simulate(trace, predictor, replace(options, record_flags=True))
    correct = result.flags.correct
    confident = jrs_confidence(plan_for(trace, options), correct, estimator)
    perfect = result.squashed
    high = int(confident.sum())
    high_correct = int((confident & correct).sum())
    predicted_correct = int(correct.sum()) - perfect
    return ConfidenceResult(
        branches=result.branches,
        perfect=perfect,
        high=high,
        high_correct=high_correct,
        low=result.branches - perfect - high,
        low_correct=predicted_correct - high_correct,
    )
