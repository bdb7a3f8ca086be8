"""Confidence gate: E14's plan-based pass against the per-branch oracle.

Run with::

    pytest benchmarks/test_bench_confidence.py --benchmark-only -s

Every suite trace at the benchmark scale runs under E14's three
configurations (gshare-1024 plus a 1024-entry JRS estimator), once
through :func:`~repro.sim.confidence.simulate_with_confidence` on the
fast core (kernel replay, then one vectorised pass over the estimator
table) and once through the per-branch loop kept in
``tests/confidence_oracle.py``.  Each side's fastest of three passes
counts; replay plans are decoded in an untimed warm-up pass, so the
fast side times replay and the confidence pass only.  The process-wide
plan cache holds 8 plans, so the bench widens it to the grid's 45 for
the warm-up to last.

* ``bench_confidence_gate`` — every :class:`ConfidenceResult` and
  final estimator table must be bit-identical, and the plan-based pass
  must take at most a third of the oracle's time over the 45 points.

The numbers ride out through :func:`emit_gate`; with
``REPRO_BENCH_JSON=BENCH_confidence.json`` they land in the committed
``BENCH_confidence.json``.
"""

import time

from benchmarks.conftest import BENCH_SCALE, emit_gate, run_once
from repro.experiments.e14_confidence import CONFIGS
from repro.predictors import make_predictor
from repro.predictors.confidence import ConfidenceEstimator
from repro.sim import fastcore, use_core
from repro.sim.confidence import simulate_with_confidence
from repro.workloads import all_workloads
from tests.confidence_oracle import oracle_confidence

#: Minimum accepted speedup, plan-based pass vs per-branch oracle.
SPEEDUP_FLOOR = 3.0

#: Timed passes per side; each side's fastest pass counts.
ROUNDS = 3


def _pass(classify, traces):
    """One pass over the grid: (seconds, outputs)."""
    outputs = []
    start = time.perf_counter()
    for trace in traces:
        for options in CONFIGS.values():
            estimator = ConfidenceEstimator(entries=1024)
            result = classify(
                trace, make_predictor("gshare", entries=1024), estimator,
                options,
            )
            outputs.append((result, estimator.table))
    return time.perf_counter() - start, outputs


def bench_confidence_gate(benchmark, monkeypatch):
    """Plan-based confidence >= 3x the per-branch oracle, identically."""
    traces = [w.trace(scale=BENCH_SCALE) for w in all_workloads()]
    points = len(traces) * len(CONFIGS)
    monkeypatch.setattr(fastcore, "_PLAN_CACHE_LIMIT", points)
    branches = sum(trace.num_branches for trace in traces) * len(CONFIGS)
    best = {}
    identical = []

    def compare():
        with use_core("fast"):
            _pass(simulate_with_confidence, traces)  # decode the plans
            for _ in range(ROUNDS):
                for side, classify in (("oracle", oracle_confidence),
                                       ("plan", simulate_with_confidence)):
                    seconds, outputs = _pass(classify, traces)
                    best[side] = min(best.get(side, seconds), seconds)
                    if side == "oracle":
                        expected = outputs
                    else:
                        identical.append(outputs == expected)

    run_once(benchmark, compare)
    speedup = best["oracle"] / best["plan"]
    emit_gate(
        "confidence_pass",
        points=points,
        branches=branches,
        oracle_seconds=best["oracle"],
        plan_seconds=best["plan"],
        oracle_mbranch_per_second=branches / best["oracle"] / 1e6,
        plan_mbranch_per_second=branches / best["plan"] / 1e6,
        speedup=speedup,
        identical=float(all(identical)),
    )
    print(
        f"\n{points} points, {branches} branches: oracle "
        f"{best['oracle']:.3f} s, plan-based {best['plan']:.3f} s, "
        f"speedup {speedup:.2f}x"
    )
    assert all(identical), "plan-based confidence diverged from the oracle"
    assert speedup >= SPEEDUP_FLOOR, (
        f"confidence speedup {speedup:.2f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x floor"
    )
