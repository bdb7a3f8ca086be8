"""Discrete front-end fetch simulation.

A step up from the analytic :class:`~repro.pipeline.cost.CostModel`: the
fetch stream is replayed, charging

* ``ceil(run / width)`` cycles per straight-line fetch run (a taken
  branch ends its fetch cycle — *fragmentation*, the second cost
  if-conversion removes besides mispredictions);
* the full ``mispredict_penalty`` per wrong direction;
* ``misfetch_penalty`` when the direction was right but the BTB missed;
* ``taken_bubble`` cycles per correctly predicted taken branch (the
  one-cycle redirect of front ends without a next-line predictor).

The model consumes the per-branch flags a simulation run records with
``SimOptions(record_flags=True)``, so the same replay prices any
predictor/front-end configuration.  Unconditional jumps are not branch
events in our traces; their (identical in every configuration)
fragmentation is left out, which cancels in speedup ratios.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.trace.container import Trace


@dataclass(frozen=True)
class FetchModel:
    """Front-end fetch parameters."""

    width: int = 6
    mispredict_penalty: int = 10
    misfetch_penalty: int = 2
    taken_bubble: int = 1

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")
        for name in ("mispredict_penalty", "misfetch_penalty",
                     "taken_bubble"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer")


@dataclass
class FrontendResult:
    """Cycle breakdown of one fetch replay."""

    cycles: float
    instructions: int
    fetch_cycles: float
    mispredict_cycles: float
    misfetch_cycles: float
    bubble_cycles: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def simulate_frontend(trace: Trace, flags, model: FetchModel = FetchModel()
                      ) -> FrontendResult:
    """Replay the fetch stream of ``trace`` under ``model``.

    ``flags`` is the :class:`~repro.sim.driver.BranchFlags` recorded by a
    simulation run over the *same trace*.

    A fetch run ends at every taken branch and at every wrongly
    predicted one (a not-taken branch predicted taken still breaks the
    run: fetch went down the wrong path); a correctly predicted
    not-taken branch lets the run continue.  Every run costs ``ceil(run / width)``
    cycles, the instructions after the last break form a tail run, and
    each penalty is its event count times its cost.  All terms are
    integers, so the cycle counts are exact.
    """
    taken = np.asarray(trace.b_taken, dtype=bool)
    correct = np.asarray(flags.correct, dtype=bool)
    misfetch = np.asarray(flags.misfetch, dtype=bool)
    if correct.shape[0] != trace.num_branches:
        raise ValueError("flags do not match the trace")

    width = model.width
    wrong = ~correct
    ends = trace.b_idx[taken | wrong] + 1
    runs = np.diff(ends, prepend=0)
    fetch = int((-(-runs // width)).sum())
    tail = trace.meta.instructions - (int(ends[-1]) if ends.size else 0)
    if tail > 0:
        fetch += -(-tail // width)
    right_taken = taken & correct
    misfetched = int(np.count_nonzero(right_taken & misfetch))
    fetch_cycles = float(fetch)
    mispredict_cycles = float(
        int(np.count_nonzero(wrong)) * model.mispredict_penalty
    )
    misfetch_cycles = float(misfetched * model.misfetch_penalty)
    bubble_cycles = float(
        (int(np.count_nonzero(right_taken)) - misfetched)
        * model.taken_bubble
    )
    cycles = (
        fetch_cycles + mispredict_cycles + misfetch_cycles + bubble_cycles
    )
    return FrontendResult(
        cycles=cycles,
        instructions=trace.meta.instructions,
        fetch_cycles=fetch_cycles,
        mispredict_cycles=mispredict_cycles,
        misfetch_cycles=misfetch_cycles,
        bubble_cycles=bubble_cycles,
    )
