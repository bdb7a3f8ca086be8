"""Families gate: E11's composite families and E13's fetch replay against
their per-event oracles.

Run with::

    pytest benchmarks/test_bench_families.py --benchmark-only -s

Three paths replay every suite trace at the benchmark scale twice:
once through the fast core and once through the per-event loops they
replaced.

* tournament — E11's tournament (local + gshare) on uniform plans,
  composed from three run replays, against the tournament loop;
* perceptron — E11's perceptron with each row's outputs memoized
  between its trainings, against the loop that recomputes every dot
  product (``tests/replay_oracle.py``);
* fetch — E13's 60 fetch replays (baseline and hyperblock traces,
  plain and SFP+PGU front ends, gshare with a 256x2 BTB), vectorised,
  against the branch-by-branch loop.

The tournament and perceptron replay under E11's plain and SFP+PGU
front ends.  Replay plans and fetch flags are built before timing, and
each side's fastest of :data:`ROUNDS` passes counts.

* ``bench_families_gate`` — mispredicted branches, final predictor state
  and fetch results must be bit-identical, and each path must reach its
  :data:`FLOORS` ratio of the oracle's branches per second.

The numbers ride out through :func:`emit_gate`; with
``REPRO_BENCH_JSON=BENCH_families.json`` they land in the committed
``BENCH_families.json``.
"""

import time
from functools import partial

from benchmarks.conftest import BENCH_SCALE, emit_gate, run_once
from repro.experiments.e11_families import FAMILIES
from repro.pipeline import BTBConfig
from repro.pipeline.fetchsim import FetchModel, simulate_frontend
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.sim import SimOptions, simulate
from repro.sim.fastcore import build_plan, fast_replay
from repro.sim.fastcore.replay import _replay_tournament
from repro.workloads import all_workloads
from tests.replay_oracle import (
    object_state,
    oracle_composite,
    replay_perceptron,
    simulate_frontend_loop,
)

#: Minimum accepted branches-per-second ratio, new path vs oracle.
FLOORS = {"tournament": 2.0, "perceptron": 1.4, "fetch": 10.0}

#: Passes per side; each side's fastest pass counts.
ROUNDS = 3

#: E11's table size.
ENTRIES = 1024

GRID = (SimOptions(), SimOptions(sfp=SFPConfig(), pgu=PGUConfig()))

ORACLES = {
    "tournament": partial(oracle_composite, _replay_tournament),
    "perceptron": partial(oracle_composite, replay_perceptron),
}


def _replay_pass(family, replay, plans):
    """One pass of a family over the plans: (seconds, outputs)."""
    seconds = 0.0
    outputs = []
    for plan in plans:
        predictor = FAMILIES[family](ENTRIES)
        start = time.perf_counter()
        mis = replay(predictor, plan)
        seconds += time.perf_counter() - start
        outputs.append((mis.tolist(), object_state(predictor)))
    return seconds, outputs


def _fetch_pass(frontend, cases):
    """One pass over the fetch replays: (seconds, outputs)."""
    start = time.perf_counter()
    outputs = [
        frontend(trace, flags, model) for trace, flags, model in cases
    ]
    return time.perf_counter() - start, outputs


def _fetch_cases():
    """E13's (trace, flags, model) triples, flags from the fast core."""
    model = FetchModel(width=6)
    btb = BTBConfig(sets=256, ways=2)
    grid = (
        SimOptions(record_flags=True, btb=btb),
        SimOptions(record_flags=True, btb=btb, sfp=SFPConfig(),
                   pgu=PGUConfig()),
    )
    cases = []
    for workload in all_workloads():
        for hyperblocks in (False, True):
            trace = workload.trace(
                scale=BENCH_SCALE, hyperblocks=hyperblocks
            )
            for options in grid:
                result = simulate(
                    trace, make_predictor("gshare", entries=ENTRIES),
                    options, core="fast",
                )
                cases.append((trace, result.flags, model))
    return cases


def bench_families_gate(benchmark):
    """Composed tournament, memoized perceptron and vectorised fetch
    reach their floors against the oracles, identically."""
    plans = [
        build_plan(workload.trace(scale=BENCH_SCALE), options)
        for workload in all_workloads()
        for options in GRID
    ]
    assert all(plan.uniform for plan in plans)
    cases = _fetch_cases()
    branches = {
        family: sum(int(plan.ev_branch.shape[0]) for plan in plans)
        for family in ORACLES
    }
    branches["fetch"] = sum(trace.num_branches for trace, _, _ in cases)
    sides = {
        family: {
            "oracle": partial(_replay_pass, family, oracle, plans),
            "new": partial(_replay_pass, family, fast_replay, plans),
        }
        for family, oracle in ORACLES.items()
    }
    sides["fetch"] = {
        "oracle": partial(_fetch_pass, simulate_frontend_loop, cases),
        "new": partial(_fetch_pass, simulate_frontend, cases),
    }
    best = {path: dict.fromkeys(("oracle", "new"), float("inf"))
            for path in sides}
    identical = []

    def compare():
        for _ in range(ROUNDS):
            for path, passes in sides.items():
                outputs = {}
                for side, replay in passes.items():
                    seconds, outputs[side] = replay()
                    best[path][side] = min(best[path][side], seconds)
                identical.append(outputs["new"] == outputs["oracle"])

    run_once(benchmark, compare)
    metrics = {}
    lines = []
    speedups = {}
    for path, fastest in best.items():
        oracle = branches[path] / fastest["oracle"] / 1e6
        new = branches[path] / fastest["new"] / 1e6
        speedups[path] = new / oracle
        metrics[f"{path}_branches"] = branches[path]
        metrics[f"{path}_oracle_mbranch_per_second"] = oracle
        metrics[f"{path}_new_mbranch_per_second"] = new
        metrics[f"{path}_speedup"] = speedups[path]
        lines.append(
            f"{path:10s} oracle {oracle:7.2f}  new {new:8.2f} Mbranch/s "
            f"({speedups[path]:.2f}x, floor {FLOORS[path]:.1f}x)"
        )
    emit_gate("families", identical=float(all(identical)), **metrics)
    print("\n" + "\n".join(lines))
    assert all(identical), "a replay path diverged from its oracle"
    for path, speedup in speedups.items():
        assert speedup >= FLOORS[path], (
            f"{path} speedup {speedup:.2f}x is below the "
            f"{FLOORS[path]:.1f}x floor"
        )
