"""E2 — baseline misprediction vs predictor size (paper's baseline figure).

gshare over a range of pattern-history-table sizes, on hyperblock code:
the starting point both paper mechanisms improve on.
"""

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    arithmetic_mean,
    suite_traces,
)
from repro.predictors import make_predictor
from repro.sim import SimOptions
from repro.sim.sweep import sweep

SPEC = ExperimentSpec(
    id="E2",
    title="Baseline gshare misprediction vs table size",
    paper_artifact="Figure: misprediction rate across predictor budgets",
    description="gshare with 256..16384 entries on hyperblock traces",
)

DEFAULT_SIZES = (256, 1024, 4096, 16384)
FAST_SIZES = (256, 1024)


def run(scale: str = "small", workloads=None, fast: bool = False,
        sizes=None, workers=None) -> ExperimentResult:
    sizes = sizes or (FAST_SIZES if fast else DEFAULT_SIZES)
    traces = suite_traces(scale=scale, workloads=workloads)
    factories = {
        f"gshare_{size}": (
            lambda size=size: make_predictor("gshare", entries=size)
        )
        for size in sizes
    }
    results = sweep(traces, factories, [SimOptions()], workers=workers)
    rows = []
    for i, name in enumerate(traces):
        row = {"workload": name}
        for j, size in enumerate(sizes):
            result = results[i * len(sizes) + j]
            row[f"gshare_{size}"] = result.misprediction_rate
        rows.append(row)
    mean_row = {"workload": "MEAN"}
    for size in sizes:
        mean_row[f"gshare_{size}"] = arithmetic_mean(
            [row[f"gshare_{size}"] for row in rows]
        )
    rows.append(mean_row)
    return ExperimentResult(
        spec=SPEC,
        columns=["workload"] + [f"gshare_{s}" for s in sizes],
        rows=rows,
        notes="Misprediction rate; larger tables reduce aliasing.",
    )
