"""E13 — front-end-limited IPC under the discrete fetch model
(extension beyond the paper).

The analytic model (E9) prices mispredictions only; this replays the
fetch stream, also charging fragmentation at taken branches and redirect
bubbles.  That surfaces the *other* half of the EPIC argument:
if-conversion removes taken branches from the fetch stream, and the
predicate techniques then recover prediction on what remains.
"""

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    geometric_mean,
    suite_workloads,
)
from repro.pipeline import BTBConfig
from repro.pipeline.fetchsim import FetchModel, simulate_frontend
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.sim import SimOptions, simulate

SPEC = ExperimentSpec(
    id="E13",
    title="Front-end fetch simulation (extension)",
    paper_artifact="Extension: fetch-limited IPC with fragmentation",
    description=(
        "Discrete fetch replay: baseline vs hyperblocks vs "
        "hyperblocks+techniques, with a real BTB"
    ),
)


def _frontend(trace, entries, options, model):
    result = simulate(
        trace, make_predictor("gshare", entries=entries), options
    )
    return simulate_frontend(trace, result.flags, model)


def run(scale: str = "small", workloads=None, entries: int = 1024,
        fetch_width: int = 6) -> ExperimentResult:
    model = FetchModel(width=fetch_width)
    btb = BTBConfig(sets=256, ways=2)
    plain = SimOptions(record_flags=True, btb=btb)
    both = SimOptions(
        record_flags=True, btb=btb, sfp=SFPConfig(), pgu=PGUConfig()
    )
    rows = []
    for workload in suite_workloads(workloads):
        base_trace = workload.trace(scale=scale, hyperblocks=False)
        hyper_trace = workload.trace(scale=scale, hyperblocks=True)
        base = _frontend(base_trace, entries, plain, model)
        hyper = _frontend(hyper_trace, entries, plain, model)
        treated = _frontend(hyper_trace, entries, both, model)
        rows.append(
            {
                "workload": workload.name,
                "base_ipc": base.ipc,
                "hyper_ipc": hyper.ipc,
                "both_ipc": treated.ipc,
                "hyper_speedup": base.cycles / hyper.cycles,
                "both_speedup": base.cycles / treated.cycles,
            }
        )
    rows.append(
        {
            "workload": "GEOMEAN",
            "base_ipc": geometric_mean([r["base_ipc"] for r in rows]),
            "hyper_ipc": geometric_mean([r["hyper_ipc"] for r in rows]),
            "both_ipc": geometric_mean([r["both_ipc"] for r in rows]),
            "hyper_speedup": geometric_mean(
                [r["hyper_speedup"] for r in rows]
            ),
            "both_speedup": geometric_mean(
                [r["both_speedup"] for r in rows]
            ),
        }
    )
    return ExperimentResult(
        spec=SPEC,
        columns=["workload", "base_ipc", "hyper_ipc", "both_ipc",
                 "hyper_speedup", "both_speedup"],
        rows=rows,
        notes=(
            f"FetchModel(width={model.width}, "
            f"mispredict={model.mispredict_penalty}, "
            f"misfetch={model.misfetch_penalty}, "
            f"taken-bubble={model.taken_bubble}), "
            f"BTB {btb.sets}x{btb.ways}. Speedups: cycles(baseline) / "
            "cycles(config), same source program."
        ),
    )
