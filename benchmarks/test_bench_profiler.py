"""Profiler overhead benchmarks.

Run with::

    pytest benchmarks/test_bench_profiler.py --benchmark-only -s

Two acceptance gates guard :func:`simulate` against its profiler
events, which a post-pass builds after the replay from the trace, the
replay plan and the mispredict vector:

* ``bench_collector_disabled_gate`` — a collector that samples no
  branch must cost < 3%.  The post-pass then returns as soon as it has
  found no sampled index, so anything above noise level fails.
* ``bench_sampled_collection_gate`` — an :class:`AggregatingCollector`
  at 1-in-64 sampling must stay < 15% over the no-collector run.

Both compare interleaved A/B pairs and take the median pairwise ratio,
the same scheme as the telemetry gates: drift or a load spike hits both
halves of a pair alike, and the median discards the pairs it didn't.
"""

import time

from benchmarks.conftest import emit_gate, run_once
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.profiler import AggregatingCollector, ProfileSpec
from repro.sim import SimOptions, simulate
from repro.workloads import get_workload

#: Interleaved A/B repetitions per batch.
REPS = 11

#: Extra batches allowed when the first median lands over the gate.
MAX_BATCHES = 3

#: Simulations per measurement: enough that one pass takes a few
#: hundred milliseconds, keeping timer noise well under the gates.
SIMS_PER_REP = 8


def _one_pass(trace, options, collector_factory=None):
    start = time.perf_counter()
    for _ in range(SIMS_PER_REP):
        collector = collector_factory() if collector_factory else None
        simulate(
            trace,
            make_predictor("gshare", entries=4096),
            options,
            collector=collector,
        )
    return time.perf_counter() - start


def _gated_ratio(trace, options, collector_factory, gate):
    """Median instrumented/plain ratio over interleaved pairs."""
    _one_pass(trace, options)  # warm caches before timing anything
    measured = {}
    ratios = []
    for _ in range(MAX_BATCHES):
        for _ in range(REPS):
            with_collector = _one_pass(trace, options, collector_factory)
            plain = _one_pass(trace, options)
            ratios.append(with_collector / plain)
        ordered = sorted(ratios)
        measured["ratio"] = ordered[len(ordered) // 2]
        measured["ratios"] = ordered
        measured["pairs"] = len(ratios)
        if measured["ratio"] - 1.0 < gate:
            break  # settled under the gate; don't burn more time
    return measured


def _report(measured, label):
    overhead = measured["ratio"] - 1.0
    print(
        f"\n{label}: {100 * overhead:+.2f}% (median of "
        f"{measured['pairs']} interleaved pairs, {SIMS_PER_REP} sims "
        f"each; spread "
        f"{100 * (measured['ratios'][0] - 1):+.2f}% .. "
        f"{100 * (measured['ratios'][-1] - 1):+.2f}%)"
    )
    return overhead


def bench_collector_disabled_gate(benchmark):
    """Event machinery armed but never sampling vs no collector: < 3%.

    The gate installs a collector whose sampling phase lies past the end
    of the trace.  The event post-pass finds no sampled index and
    returns before building anything, so the gate requires that
    installing it costs < 3%.  Any regression that charges the common
    case for a collector that never fires trips this.
    """
    trace = get_workload("compress").trace(scale="small")
    options = SimOptions()
    # seed=1 puts the first (only) sample at seq rate-1, past the
    # last branch: armed, never fires.
    spec = ProfileSpec(rate=trace.num_branches + 2, seed=1)

    def factory():
        return AggregatingCollector(spec, workload="compress")

    measured = {}

    def compare():
        measured.update(_gated_ratio(trace, options, factory, gate=0.03))

    run_once(benchmark, compare)
    overhead = _report(measured, "armed-but-idle collector overhead")
    emit_gate(
        "profiler_idle_overhead",
        overhead=overhead, pairs=measured["pairs"],
    )
    assert overhead < 0.03, (
        "idle-collector overhead on simulate() exceeded 3%: "
        f"{100 * overhead:.2f}%"
    )


def bench_sampled_collection_gate(benchmark):
    """AggregatingCollector at 1-in-64 sampling vs no collector: < 15%."""
    trace = get_workload("compress").trace(scale="small")
    options = SimOptions(sfp=SFPConfig(), pgu=PGUConfig())
    spec = ProfileSpec(rate=64)

    def factory():
        return AggregatingCollector(spec, workload="compress")

    measured = {}

    def compare():
        measured.update(_gated_ratio(trace, options, factory, gate=0.15))

    run_once(benchmark, compare)
    overhead = _report(measured, "1-in-64 sampling overhead")
    emit_gate(
        "profiler_sampled_overhead",
        overhead=overhead, pairs=measured["pairs"],
    )
    assert overhead < 0.15, (
        "1-in-64 sampled profiling overhead on simulate() exceeded "
        f"15%: {100 * overhead:.2f}%"
    )
