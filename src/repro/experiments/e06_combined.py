"""E6 — the paper's headline: base vs +SFP vs +PGU vs both."""

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    arithmetic_mean,
    suite_traces,
)
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.sim import SimOptions
from repro.sim.sweep import sweep

SPEC = ExperimentSpec(
    id="E6",
    title="Combined techniques",
    paper_artifact="Figure: per-benchmark misprediction, all four configs",
    description="gshare alone, +SFP, +PGU, +both",
)

CONFIGS = {
    "base": SimOptions(),
    "sfp": SimOptions(sfp=SFPConfig()),
    "pgu": SimOptions(pgu=PGUConfig()),
    "both": SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
}


def run(scale: str = "small", workloads=None, entries: int = 1024,
        workers=None) -> ExperimentResult:
    traces = suite_traces(scale=scale, workloads=workloads)
    labels = list(CONFIGS)
    factories = {
        "gshare": lambda: make_predictor("gshare", entries=entries)
    }
    results = sweep(
        traces, factories, list(CONFIGS.values()), workers=workers
    )
    rows = []
    # One factory: results nest (trace, option), period len(CONFIGS).
    for i, name in enumerate(traces):
        row = {"workload": name}
        for k, label in enumerate(labels):
            row[label] = results[i * len(labels) + k].misprediction_rate
        row["improvement"] = (
            (row["base"] - row["both"]) / row["base"] if row["base"] else 0.0
        )
        rows.append(row)
    mean = {"workload": "MEAN"}
    for label in labels:
        mean[label] = arithmetic_mean([r[label] for r in rows])
    mean["improvement"] = (
        (mean["base"] - mean["both"]) / mean["base"] if mean["base"] else 0.0
    )
    rows.append(mean)
    return ExperimentResult(
        spec=SPEC,
        columns=["workload", "base", "sfp", "pgu", "both", "improvement"],
        rows=rows,
        notes="improvement: relative misprediction reduction of both vs base.",
    )
