"""Differential-equivalence harness: the simulation cores vs the oracle.

The cores are only trustworthy because they are *checkable*: the
branch-by-branch loop in ``tests/driver_oracle.py``, which shares no
code with the replay plan every core replays, is the reference.  This
module runs one (trace, predictor, options) point through the oracle
and through a core and compares per-branch correctness flags bit for
bit.  On a mismatch the report names the predictor, the core and the
**first diverging branch index**, which is the piece of information
that actually localises a kernel bug (aggregate counts only say
"something, somewhere").

Used by ``tests/test_fastcore_differential.py`` across the whole
workload suite, and handy interactively when writing a new kernel.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro import telemetry
from repro.sim import fastcore
from repro.sim.driver import SimOptions, simulate
from tests.driver_oracle import oracle_simulate

#: The replay each fast core runs once its plan is decoded.
REPLAYS = {"fast": fastcore.fast_replay, "numpy": fastcore.batch_replay}


@dataclass
class DivergenceReport:
    """Outcome of one oracle-vs-core differential comparison."""

    predictor: str
    workload: str
    core: str  #: the core that was checked
    matches: bool
    #: branch index of the first differing correctness flag
    #: (``None`` when the cores agree branch for branch)
    first_divergence: Optional[int]
    oracle_metrics: dict
    core_metrics: dict

    def summary(self) -> str:
        if self.matches:
            return (
                f"{self.predictor} on {self.workload}: the oracle and "
                f"the {self.core} core agree on every branch"
            )
        where = (
            f"first divergence at branch {self.first_divergence}"
            if self.first_divergence is not None
            else "aggregate metrics differ"
        )
        return (
            f"{self.predictor} on {self.workload}: {self.core} core "
            f"diverges from the oracle ({where})"
        )


def _first_divergence(pairs) -> Optional[int]:
    for a, b in pairs:
        differ = np.nonzero(a != b)[0]
        if differ.size:
            return int(differ[0])
    return None


def differential_check(
    trace,
    predictor_factory: Callable,
    options: SimOptions = SimOptions(),
    core: str = "fast",
    kernel=None,
) -> DivergenceReport:
    """Run one point through the oracle and on ``core``; compare.

    ``predictor_factory`` is called once per path so each trains fresh
    state.  The core runs through :func:`simulate`, and its
    ``sim.core.<core>`` counter must show that ``core`` really ran: a
    silent drop to another backend would make the check vacuous.

    ``kernel`` instead replays a pre-built (possibly corrupted) kernel
    over the point's replay plan on ``core``'s backend and compares the
    correctness flags alone — the seeded-divergence tests use this to
    prove the harness actually localises disagreements.
    """
    opts = replace(options, record_flags=True)
    ref, _ = oracle_simulate(trace, predictor_factory(), opts)
    ref_metrics = ref.headline_metrics()
    if kernel is None:
        with telemetry.use_registry(telemetry.MetricsRegistry()) as reg:
            got = simulate(trace, predictor_factory(), opts, core=core)
        ran = reg.snapshot()["counters"].get(f"sim.core.{core}")
        assert ran == 1, f"the {core} core did not run"
        first = _first_divergence(
            (getattr(ref.flags, name), getattr(got.flags, name))
            for name in ("correct", "squashed", "misfetch")
        )
        got_metrics = got.headline_metrics()
        matches = (
            first is None
            and ref_metrics == got_metrics
            and ref.per_class == got.per_class
        )
    else:
        mis = REPLAYS[core](kernel, fastcore.plan_for(trace, opts))
        correct = np.ones(ref.branches, dtype=bool)
        correct[mis] = False
        first = _first_divergence([(ref.flags.correct, correct)])
        got_metrics = {"mispredictions": float(mis.shape[0])}
        matches = first is None
    return DivergenceReport(
        predictor=ref.predictor,
        workload=ref.workload,
        core=core,
        matches=matches,
        first_divergence=first,
        oracle_metrics=ref_metrics,
        core_metrics=got_metrics,
    )
