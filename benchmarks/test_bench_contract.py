"""Contract-checker overhead benchmark.

Run with::

    pytest benchmarks/test_bench_contract.py --benchmark-only -s

One acceptance gate guards the static/dynamic contract checker:

* ``bench_contract_disarmed_gate`` — a disarmed
  :class:`~repro.analysis.ContractChecker` installed as the simulation
  collector must cost < 5% over a plain no-collector run.  Disarmed,
  the checker advertises an unreachable sampling phase (rate
  ``2**60``, seed 1); the driver's event post-pass finds no sampled
  index and returns, so the whole checker reduces to one reachability
  test after the replay.  A regression
  here means contract checking leaked work into the common case.

Unlike the profiler/telemetry gates (median of interleaved pair
ratios), this gate compares the *minimum* pass time of each arm over
interleaved A/B runs.  Load spikes only ever inflate a timing, never
deflate it, so the min-to-min ratio converges on the systematic
overhead even on a noisy box where pairwise medians cannot settle
under a 5% gate.
"""

import time

from benchmarks.conftest import emit_gate, run_once
from repro.analysis import ContractChecker, StaticContract
from repro.compiler.config import HYPERBLOCK
from repro.predictors import make_predictor
from repro.sim import SimOptions, simulate
from repro.workloads import get_workload

#: Interleaved A/B repetitions per batch.
REPS = 11

#: Extra batches allowed when the first ratio lands over the gate.
MAX_BATCHES = 3

#: Simulations per measurement: enough that one pass takes a few
#: hundred milliseconds, keeping timer noise well under the gate.
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
    """Best-instrumented over best-plain ratio, interleaved arms."""
    _one_pass(trace, options)  # warm caches before timing anything
    measured = {}
    instrumented = []
    plain = []
    for _ in range(MAX_BATCHES):
        for _ in range(REPS):
            instrumented.append(
                _one_pass(trace, options, collector_factory)
            )
            plain.append(_one_pass(trace, options))
        measured["ratio"] = min(instrumented) / min(plain)
        measured["pairs"] = len(plain)
        if measured["ratio"] - 1.0 < gate:
            break  # settled under the gate; don't burn more time
    return measured


def bench_contract_disarmed_gate(benchmark):
    """Disarmed ContractChecker vs no collector: < 5%."""
    workload = get_workload("compress")
    executable = workload.compile("small", HYPERBLOCK).executable
    contract = StaticContract.for_executable(executable, name="compress")
    trace = workload.trace(scale="small")
    options = SimOptions()

    def factory():
        return ContractChecker(contract, armed=False)

    measured = {}

    def compare():
        measured.update(_gated_ratio(trace, options, factory, gate=0.05))

    run_once(benchmark, compare)
    overhead = measured["ratio"] - 1.0
    print(
        f"\ndisarmed contract-checker overhead: {100 * overhead:+.2f}% "
        f"(min-to-min over {measured['pairs']} interleaved passes, "
        f"{SIMS_PER_REP} sims each)"
    )
    emit_gate(
        "contract_disarmed_overhead",
        overhead=overhead, pairs=measured["pairs"],
    )
    assert overhead < 0.05, (
        "disarmed contract-checker overhead on simulate() exceeded 5%: "
        f"{100 * overhead:.2f}%"
    )
