"""Differential-equivalence harness: object core vs fast kernels.

The fast cores are only trustworthy because they are *checkable*: the
object-model loop in :mod:`repro.sim.driver` stays the reference, and
this module replays the same (trace, predictor, options) point through
both paths and compares per-branch correctness flags bit for bit.  On
a mismatch the report names the predictor, the core and the **first
diverging branch index**, which is the piece of information that
actually localises a kernel bug (aggregate counts only say "something,
somewhere").

Used by ``tests/test_fastcore_differential.py`` across the whole
workload suite, and handy interactively when writing a new kernel.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro import telemetry
from repro.sim import fastcore
from repro.sim.driver import SimOptions, simulate

#: The replay each fast core runs once its plan is decoded.
REPLAYS = {"fast": fastcore.fast_replay, "numpy": fastcore.batch_replay}


@dataclass
class DivergenceReport:
    """Outcome of one object-vs-fast differential comparison."""

    predictor: str
    workload: str
    core: str  #: the fast core that was checked ("fast" or "numpy")
    matches: bool
    #: branch index of the first differing correctness flag
    #: (``None`` when the cores agree branch for branch)
    first_divergence: Optional[int]
    object_metrics: dict
    fast_metrics: dict

    def summary(self) -> str:
        if self.matches:
            return (
                f"{self.predictor} on {self.workload}: object and "
                f"{self.core} cores agree on every branch"
            )
        where = (
            f"first divergence at branch {self.first_divergence}"
            if self.first_divergence is not None
            else "aggregate metrics differ"
        )
        return (
            f"{self.predictor} on {self.workload}: {self.core} core "
            f"diverges from object core ({where})"
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
    """Replay one point on the object core and on ``core``; compare.

    ``predictor_factory`` is called once per path so each trains fresh
    state.  The fast path runs through :func:`simulate`, and its
    ``sim.core.<core>`` counter must show that ``core`` really ran: a
    silent drop to another backend would make the check vacuous.

    ``kernel`` instead replays a pre-built (possibly corrupted) kernel
    over the point's replay plan on ``core``'s backend and compares the
    correctness flags alone — the seeded-divergence tests use this to
    prove the harness actually localises disagreements.
    """
    opts = replace(options, record_flags=True)
    ref = simulate(trace, predictor_factory(), opts)
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
        object_metrics=ref_metrics,
        fast_metrics=got_metrics,
    )
