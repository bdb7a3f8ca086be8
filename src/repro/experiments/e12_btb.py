"""E12 — branch target buffer interplay (extension beyond the paper).

Direction prediction is only useful if the target arrives in time.
This experiment sweeps BTB capacity and asks two questions the paper's
setting raises naturally:

* does if-converted code, having fewer (but more distinct) branches,
  put more or less pressure on the BTB than the baseline compile?
* do the predicate techniques still pay off once misfetches are
  charged in the cycle model?
"""

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    suite_workloads,
)
from repro.pipeline import BTBConfig, CostModel
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.sim import SimOptions, simulate

SPEC = ExperimentSpec(
    id="E12",
    title="Branch target buffer interplay (extension)",
    paper_artifact="Extension: target pressure under if-conversion",
    description="misfetch rates and cycle impact across BTB sizes",
)

DEFAULT_GEOMETRIES = ((64, 1), (256, 2), (1024, 2))
FAST_GEOMETRIES = ((64, 1), (256, 2))


def run(scale: str = "small", workloads=None, fast: bool = False,
        entries: int = 1024, geometries=None) -> ExperimentResult:
    geometries = geometries or (
        FAST_GEOMETRIES if fast else DEFAULT_GEOMETRIES
    )
    model = CostModel()
    both = {"sfp": SFPConfig(), "pgu": PGUConfig()}
    btbs = [BTBConfig(sets=sets, ways=ways) for sets, ways in geometries]
    # One accumulator per geometry, each summed in trace order.
    totals = [
        {
            "base_misfetch": [0, 0],
            "hyper_misfetch": [0, 0],
            "hyper_both_misfetch": [0, 0],
        }
        for _ in btbs
    ]
    base_cycles = [0.0] * len(btbs)
    hyper_cycles = [0.0] * len(btbs)
    # Trace-major: the replay plan ignores the BTB, so on the fast cores
    # a trace's geometries run back to back on its three cached plans.
    for workload in suite_workloads(workloads):
        base_trace = workload.trace(scale=scale, hyperblocks=False)
        hyper_trace = workload.trace(scale=scale, hyperblocks=True)
        for g, btb in enumerate(btbs):
            base = simulate(
                base_trace,
                make_predictor("gshare", entries=entries),
                SimOptions(btb=btb),
            )
            hyper = simulate(
                hyper_trace,
                make_predictor("gshare", entries=entries),
                SimOptions(btb=btb),
            )
            treated = simulate(
                hyper_trace,
                make_predictor("gshare", entries=entries),
                SimOptions(btb=btb, **both),
            )
            total = totals[g]
            total["base_misfetch"][0] += base.misfetches
            total["base_misfetch"][1] += base.branches
            total["hyper_misfetch"][0] += hyper.misfetches
            total["hyper_misfetch"][1] += hyper.branches
            total["hyper_both_misfetch"][0] += treated.misfetches
            total["hyper_both_misfetch"][1] += treated.branches
            base_cycles[g] += model.cycles(
                base.instructions, base.mispredictions, base.misfetches
            )
            hyper_cycles[g] += model.cycles(
                treated.instructions, treated.mispredictions,
                treated.misfetches,
            )
    rows = []
    for g, (sets, ways) in enumerate(geometries):
        row = {"btb": f"{sets}x{ways}"}
        for key, (misfetches, branches) in totals[g].items():
            row[key] = misfetches / branches if branches else 0.0
        row["techniques_speedup"] = (
            base_cycles[g] / hyper_cycles[g] if hyper_cycles[g] else 0.0
        )
        rows.append(row)
    return ExperimentResult(
        spec=SPEC,
        columns=["btb", "base_misfetch", "hyper_misfetch",
                 "hyper_both_misfetch", "techniques_speedup"],
        rows=rows,
        notes=(
            "Misfetch = direction right, target missing at fetch. "
            "techniques_speedup: cycles(baseline+gshare+BTB) / "
            "cycles(hyperblocks+both+BTB), misfetches charged "
            f"{model.misfetch_penalty} cycles."
        ),
    )
