"""Replay gate: grouped run replay against the per-event oracle.

Run with::

    pytest benchmarks/test_bench_replay.py --benchmark-only -s

The 2-bit counter families of the kernel-sweep grid (bimodal, gshare,
gselect, GAg and local at four table sizes, under the plain and the
SFP+PGU front ends, and under the flagged plans of delayed update and
SFP training the PHT) replay every trace of the BENCH subset twice:
once through :func:`~repro.sim.fastcore.replay.fast_replay` (events
grouped by counter into runs, each run's counter function scanned
with numpy) and once through the per-event loops kept in
``tests/replay_oracle.py``.  Replay plans are decoded before timing,
so both sides time index computation and replay only.

* ``bench_replay_runs_gate`` — mispredicted branches, final tables and
  local histories must be bit-identical, and the grouped replay must
  reach at least 2x the oracle's branches per second over the grid.

The numbers ride out through :func:`emit_gate`, per family and over the
grid; with ``REPRO_BENCH_JSON=BENCH_replay.json`` they land in the
committed ``BENCH_replay.json``.
"""

import time

from benchmarks.conftest import BENCH_SCALE, BENCH_SUBSET, emit_gate, run_once
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.sim import SimOptions
from repro.sim.fastcore import build_plan, fast_replay
from repro.workloads import get_workload
from tests.replay_oracle import object_state, oracle_replay

#: Minimum accepted branches-per-second ratio, grouped vs per-event.
SPEEDUP_FLOOR = 2.0

#: Passes per side; each side's fastest pass counts.
ROUNDS = 3

FAMILIES = ("bimodal", "gshare", "gselect", "gag", "local")
SIZES = (256, 1024, 4096, 16384)
GRID = (
    SimOptions(),
    SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
    SimOptions(delayed_update=True, distance=8),
    SimOptions(sfp=SFPConfig(update_pht=True)),
)


def _replay_pass(replay, plans):
    """One pass over the grid: (seconds per family, outputs)."""
    seconds = dict.fromkeys(FAMILIES, 0.0)
    outputs = []
    for family in FAMILIES:
        for size in SIZES:
            for plan in plans:
                predictor = make_predictor(family, entries=size)
                start = time.perf_counter()
                mis = replay(predictor, plan)
                seconds[family] += time.perf_counter() - start
                outputs.append((mis.tolist(), object_state(predictor)))
    return seconds, outputs


def bench_replay_runs_gate(benchmark):
    """Grouped run replay >= 2x the per-event oracle, identically."""
    plans = [
        build_plan(get_workload(name).trace(scale=BENCH_SCALE), options)
        for name in BENCH_SUBSET
        for options in GRID
    ]
    branches = sum(int(plan.ev_branch.shape[0]) for plan in plans)
    branches *= len(SIZES)
    best = {"oracle": None, "grouped": None}
    identical = []

    def compare():
        for _ in range(ROUNDS):
            for side, replay in (("oracle", oracle_replay),
                                 ("grouped", fast_replay)):
                seconds, outputs = _replay_pass(replay, plans)
                if best[side] is None:
                    best[side] = seconds
                else:
                    best[side] = {
                        family: min(best[side][family], seconds[family])
                        for family in FAMILIES
                    }
                if side == "oracle":
                    expected = outputs
                else:
                    identical.append(outputs == expected)

    run_once(benchmark, compare)
    metrics = {}
    lines = []
    for family in FAMILIES:
        oracle = branches / best["oracle"][family] / 1e6
        grouped = branches / best["grouped"][family] / 1e6
        metrics[f"{family}_oracle_mbranch_per_second"] = oracle
        metrics[f"{family}_grouped_mbranch_per_second"] = grouped
        lines.append(
            f"{family:8s} oracle {oracle:6.2f}  grouped {grouped:6.2f} "
            f"Mbranch/s  ({grouped / oracle:.2f}x)"
        )
    total = branches * len(FAMILIES)
    oracle = total / sum(best["oracle"].values()) / 1e6
    grouped = total / sum(best["grouped"].values()) / 1e6
    speedup = grouped / oracle
    emit_gate(
        "replay_runs",
        branches=total,
        oracle_mbranch_per_second=oracle,
        grouped_mbranch_per_second=grouped,
        speedup=speedup,
        identical=float(all(identical)),
        **metrics,
    )
    print("\n" + "\n".join(lines))
    print(
        f"grid: oracle {oracle:.2f}, grouped {grouped:.2f} Mbranch/s, "
        f"speedup {speedup:.2f}x over {total} branch events"
    )
    assert all(identical), "grouped replay diverged from the oracle"
    assert speedup >= SPEEDUP_FLOOR, (
        f"grouped replay speedup {speedup:.2f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x floor"
    )
