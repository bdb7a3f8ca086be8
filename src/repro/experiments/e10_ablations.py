"""E10 — design-choice ablations (DESIGN.md's ablation index).

Four sub-studies, one table:

* ``sfp/*`` — what a squashed branch does to the PHT and the GHR;
* ``pgu/*`` — insertion delay (0 = idealized, D = realistic, 2D = late)
  and the oracle guards-only filter;
* ``hist/*`` — global history length with and without PGU (predicate
  bits consume history capacity — is the information worth the dilution?);
* ``sched/*`` — recompile with compare scheduling / region merging /
  unrolling disabled: with no predicate lead time the techniques starve.
"""

from repro.compiler.config import HYPERBLOCK
from dataclasses import replace

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    suite_option_aggregates,
    suite_traces,
)
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.sim import SimOptions

SPEC = ExperimentSpec(
    id="E10",
    title="Design-choice ablations",
    paper_artifact="Ablations of the mechanisms' design space",
    description=(
        "SFP update policies, PGU insertion delay/filter, history "
        "length, compiler scheduling"
    ),
)

#: Workloads where the techniques are most active: a representative,
#: cheap subset for the recompile-based scheduling ablation.
SCHED_WORKLOADS = ("compress", "grep", "nbody")


#: The front-end variants of the ablation table, in row order.
VARIANTS = {
    "none": SimOptions(),
    # SFP policy space.
    "sfp/filter+shift": SimOptions(sfp=SFPConfig()),
    "sfp/train-pht": SimOptions(sfp=SFPConfig(update_pht=True)),
    "sfp/skip-history": SimOptions(sfp=SFPConfig(update_history=False)),
    # Extension: squash both directions once the guard is resolved.
    "sfp/both-dirs": SimOptions(sfp=SFPConfig(squash_known_true=True)),
    # Trainer latency: tables update at resolve, not at predict.
    "train/delayed": SimOptions(delayed_update=True),
    "train/delayed+both": SimOptions(
        delayed_update=True, sfp=SFPConfig(), pgu=PGUConfig()
    ),
    # PGU insertion policy.
    "pgu/delay=D": SimOptions(pgu=PGUConfig()),
    "pgu/delay=0": SimOptions(pgu=PGUConfig(delay=0)),
    "pgu/delay=2D": SimOptions(pgu=PGUConfig(delay=8)),
    "pgu/guards-only": SimOptions(pgu=PGUConfig(which="guards_only")),
    # History length with/without predicate bits.
    **{
        f"hist{bits}/{name}": SimOptions(history_bits=bits, pgu=pgu)
        for bits in (8, 16, 32)
        for name, pgu in (("plain", None), ("pgu", PGUConfig()))
    },
}


def run(scale: str = "small", workloads=None, fast: bool = False,
        entries: int = 1024, workers=None) -> ExperimentResult:
    traces = suite_traces(scale=scale, workloads=workloads)
    factory = lambda: make_predictor("gshare", entries=entries)  # noqa: E731

    aggregates = suite_option_aggregates(
        traces, VARIANTS, factory, workers=workers
    )
    rows = [
        {"config": config, "misprediction": aggregates[config].rate}
        for config in VARIANTS
    ]
    if not fast:
        # Compiler scheduling ablation: recompile a subset without the
        # passes that create predicate lead time.
        subset = [w for w in SCHED_WORKLOADS
                  if workloads is None or w in workloads]
        no_sched = replace(
            HYPERBLOCK,
            schedule_compares=False,
            merge_adjacent_regions=False,
            unroll=1,
        )
        sched_traces = {name: traces[name] for name in subset}
        flat_traces = suite_traces(
            scale=scale, workloads=subset, config=no_sched
        )
        both = SimOptions(sfp=SFPConfig(), pgu=PGUConfig())
        sched_on = suite_option_aggregates(
            sched_traces, {"both": both}, factory, workers=workers
        )
        sched_off = suite_option_aggregates(
            flat_traces,
            {"both": both, "none": SimOptions()},
            factory,
            workers=workers,
        )
        rows.append(
            {"config": "sched/on+both",
             "misprediction": sched_on["both"].rate}
        )
        rows.append(
            {"config": "sched/off+both",
             "misprediction": sched_off["both"].rate}
        )
        rows.append(
            {"config": "sched/off+none",
             "misprediction": sched_off["none"].rate}
        )
    return ExperimentResult(
        spec=SPEC,
        columns=["config", "misprediction"],
        rows=rows,
        notes=(
            "Suite-total misprediction rate, gshare-"
            f"{entries}. sched/* rows cover only "
            f"{', '.join(SCHED_WORKLOADS)} (recompile required)."
        ),
    )
