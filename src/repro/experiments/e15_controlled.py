"""E15 — controlled correlation/spacing study (extension).

The mechanism-isolation experiment the paper could not run on SPEC:
synthetic workloads where the statistics are knobs
(:mod:`repro.workloads.synthetic`).

Part 1 sweeps *noise* — how loosely the region-based branch tracks the
predicate define.  PGU's benefit must be a monotone function of the
correlation: near-perfect at noise 0, zero at noise 50 (independence).

Part 2 sweeps *spacing* — the dynamic define-to-branch distance.  SFP's
coverage must switch on once the distance clears the pipeline's D.
"""

from repro.experiments.common import ExperimentResult, ExperimentSpec
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.sim import SimOptions, simulate
from repro.workloads.synthetic import make_synthetic

SPEC = ExperimentSpec(
    id="E15",
    title="Controlled correlation and spacing study (extension)",
    paper_artifact="Extension: mechanism isolation on synthetic knobs",
    description="PGU benefit vs correlation noise; SFP vs define spacing",
)

NOISES = (0, 5, 15, 30, 50)
SPACINGS = (0, 2, 5, 9)
FAST_NOISES = (0, 15, 50)
FAST_SPACINGS = (0, 5)


def run(scale: str = "small", workloads=None, fast: bool = False,
        entries: int = 1024, bias: int = 50) -> ExperimentResult:
    """``workloads`` is accepted for interface uniformity but ignored —
    this experiment generates its own synthetic programs."""
    noises = FAST_NOISES if fast else NOISES
    spacings = FAST_SPACINGS if fast else SPACINGS
    traces = {}

    def synthetic_trace(noise: int, spacing: int):
        # Both parts run noise=15, spacing=0: load that trace once.
        key = (noise, spacing)
        if key not in traces:
            workload = make_synthetic(
                bias=bias, noise=noise, spacing=spacing
            )
            traces[key] = workload.trace(scale=scale, hyperblocks=True)
        return traces[key]

    rows = []
    for noise in noises:
        # spacing=0 keeps the branch's own guard *fresh* (invisible at
        # fetch), so what remains is pure cross-predicate correlation:
        # the hammock's define vs the branch outcome.
        trace = synthetic_trace(noise, 0)
        base = simulate(
            trace, make_predictor("gshare", entries=entries), SimOptions()
        )
        pgu = simulate(
            trace,
            make_predictor("gshare", entries=entries),
            SimOptions(pgu=PGUConfig()),
        )
        rows.append(
            {
                "knob": f"noise={noise}",
                "base": base.misprediction_rate,
                "treated": pgu.misprediction_rate,
                "benefit": base.misprediction_rate
                - pgu.misprediction_rate,
                "squash_coverage": 0.0,
            }
        )
    for spacing in spacings:
        trace = synthetic_trace(15, spacing)
        base = simulate(
            trace, make_predictor("gshare", entries=entries), SimOptions()
        )
        sfp = simulate(
            trace,
            make_predictor("gshare", entries=entries),
            SimOptions(sfp=SFPConfig()),
        )
        rows.append(
            {
                "knob": f"spacing={spacing}",
                "base": base.misprediction_rate,
                "treated": sfp.misprediction_rate,
                "benefit": base.misprediction_rate
                - sfp.misprediction_rate,
                "squash_coverage": sfp.squash_coverage,
            }
        )
    return ExperimentResult(
        spec=SPEC,
        columns=["knob", "base", "treated", "benefit", "squash_coverage"],
        rows=rows,
        notes=(
            f"Synthetic workloads, bias={bias}%. noise rows: treated = "
            "+PGU; spacing rows: treated = +SFP (noise fixed at 15)."
        ),
    )
