"""E11 — predictor-family comparison.

Do the predicate techniques help beyond gshare?  Every family gets the
same front end; history consumers (gshare/gselect/gag/tournament/
perceptron) can exploit PGU, history-free ones (bimodal/local) only
benefit from SFP's certain squashes.
"""

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    suite_traces,
)
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.sim import SimOptions
from repro.sim.sweep import sweep

SPEC = ExperimentSpec(
    id="E11",
    title="Predictor families with and without predicate techniques",
    paper_artifact="Figure: techniques across predictor organisations",
    description="bimodal/gshare/gselect/gag/local/tournament/perceptron",
)

FAMILIES = {
    "bimodal": lambda entries: make_predictor("bimodal", entries=entries),
    "gshare": lambda entries: make_predictor("gshare", entries=entries),
    "gselect": lambda entries: make_predictor("gselect", entries=entries),
    "gag": lambda entries: make_predictor("gag", entries=entries),
    "local": lambda entries: make_predictor("local", entries=entries),
    "tournament": lambda entries: make_predictor(
        "tournament", entries=entries
    ),
    "perceptron": lambda entries: make_predictor(
        "perceptron", entries=max(64, entries // 16)
    ),
    "tage": lambda entries: make_predictor("tage", entries=entries),
}

FAST_FAMILIES = ("bimodal", "gshare", "local")


def run(scale: str = "small", workloads=None, fast: bool = False,
        entries: int = 1024, workers=None) -> ExperimentResult:
    traces = suite_traces(scale=scale, workloads=workloads)
    names = FAST_FAMILIES if fast else tuple(FAMILIES)
    factories = {
        family: (lambda family=family: FAMILIES[family](entries))
        for family in names
    }
    grid = [SimOptions(), SimOptions(sfp=SFPConfig(), pgu=PGUConfig())]
    results = sweep(traces, factories, grid, workers=workers)
    rows = []
    # Results nest (trace, family, option); fold the trace axis into
    # suite totals per family.
    for j, family in enumerate(names):
        plain = [0, 0]
        treated = [0, 0]
        for i in range(len(traces)):
            base_index = (i * len(names) + j) * len(grid)
            p = results[base_index]
            t = results[base_index + 1]
            plain[0] += p.mispredictions
            plain[1] += p.branches
            treated[0] += t.mispredictions
            treated[1] += t.branches
        base_rate = plain[0] / plain[1] if plain[1] else 0.0
        both_rate = treated[0] / treated[1] if treated[1] else 0.0
        rows.append(
            {
                "predictor": family,
                "base": base_rate,
                "with_techniques": both_rate,
                "improvement": (
                    (base_rate - both_rate) / base_rate if base_rate else 0.0
                ),
            }
        )
    return ExperimentResult(
        spec=SPEC,
        columns=["predictor", "base", "with_techniques", "improvement"],
        rows=rows,
        notes=(
            "Suite-total rates. History consumers gain from PGU; "
            "history-free predictors gain only SFP's squashes."
        ),
    )
