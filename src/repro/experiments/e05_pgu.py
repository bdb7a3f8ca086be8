"""E5 — predicate global update benefit (paper's second result figure).

gshare with and without predicate-define bits in the global history,
across table sizes: the mechanism should help at every size because it
adds *information*, not capacity.
"""

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    arithmetic_mean,
    suite_traces,
)
from repro.predictors import PGUConfig, make_predictor
from repro.sim import SimOptions
from repro.sim.sweep import sweep

SPEC = ExperimentSpec(
    id="E5",
    title="Predicate global update",
    paper_artifact="Figure: misprediction with/without predicate history",
    description="gshare vs gshare+PGU per workload and across sizes",
)

DEFAULT_SIZES = (1024, 4096)
FAST_SIZES = (1024,)


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
    grid = [SimOptions(), SimOptions(pgu=PGUConfig())]
    results = sweep(traces, factories, grid, workers=workers)
    rows = []
    # Results nest (trace, size, option): base and pgu alternate.
    for i, name in enumerate(traces):
        row = {"workload": name}
        for j, size in enumerate(sizes):
            base_index = (i * len(sizes) + j) * len(grid)
            row[f"base_{size}"] = results[base_index].misprediction_rate
            row[f"pgu_{size}"] = results[base_index + 1].misprediction_rate
        rows.append(row)
    mean_row = {"workload": "MEAN"}
    for size in sizes:
        for kind in ("base", "pgu"):
            mean_row[f"{kind}_{size}"] = arithmetic_mean(
                [row[f"{kind}_{size}"] for row in rows]
            )
    rows.append(mean_row)
    columns = ["workload"]
    for size in sizes:
        columns += [f"base_{size}", f"pgu_{size}"]
    return ExperimentResult(
        spec=SPEC,
        columns=columns,
        rows=rows,
        notes=(
            "PGU shifts each visible predicate define into the GHR; "
            "correlated region branches gain context."
        ),
    )
