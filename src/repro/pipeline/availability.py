"""Predicate-availability model.

A value produced by the instruction at dynamic index ``i`` has been
computed by the time the front end fetches the instruction at index
``i + D``, where ``D`` approximates (cycles from a compare's execute
stage to the earliest fetch stage that can consume its predicate) x
(sustained fetch rate in instructions per cycle).  For a 2003-era EPIC
core sustaining ~2 IPC on integer code with the predicate forwarded a
couple of cycles after the compare issues, ``D`` around 4 dynamic
instructions is representative; experiment E8 sweeps 0..32 (``D = 0`` is
the perfect-predicate-knowledge bound).

This single parameter stands in for the authors' concrete pipeline: any
machine maps onto some ``D``, and every paper mechanism consumes
availability only through this interface.  :func:`squash_mask` and
:func:`pgu_defines` are the front end's two selection rules — which
branches the squash filter handles and which predicate defines reach
global history — and every simulation core applies exactly these.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.trace.container import Trace

#: Representative front-end distance for a 2003-era EPIC pipeline.
DEFAULT_DISTANCE = 4


@dataclass(frozen=True)
class AvailabilityModel:
    """Visibility of computed predicate values at fetch."""

    distance: int = DEFAULT_DISTANCE

    def __post_init__(self):
        if self.distance < 0:
            raise ValueError("distance must be non-negative")

    def value_visible(self, produced_at: int, fetch_at: int) -> bool:
        """Is a value produced at ``produced_at`` visible when fetching
        the instruction at ``fetch_at``?"""
        return produced_at >= 0 and fetch_at - produced_at >= self.distance

    def squashable_mask(self, trace: Trace) -> np.ndarray:
        """Per-branch mask: guard known false at fetch (see
        :meth:`repro.trace.container.Trace.guard_known_false`)."""
        return trace.guard_known_false(self.distance)

    def guard_known_mask(self, trace: Trace) -> np.ndarray:
        """Per-branch mask: guard value (either way) visible at fetch."""
        return trace.guard_known(self.distance)

    def coverage(self, trace: Trace) -> dict:
        """Headline coverage numbers for experiment E3."""
        branches = max(trace.num_branches, 1)
        known = self.guard_known_mask(trace)
        false_known = self.squashable_mask(trace)
        region = trace.b_region
        region_total = max(int(region.sum()), 1)
        return {
            "distance": self.distance,
            "guard_known": float(known.sum() / branches),
            "guard_known_false": float(false_known.sum() / branches),
            "region_guard_known": float(known[region].sum() / region_total),
            "region_guard_known_false": float(
                false_known[region].sum() / region_total
            ),
        }


def squash_mask(trace: Trace, options) -> Optional[np.ndarray]:
    """Per-branch bool mask of the branches SFP squashes under
    ``options`` (a :class:`~repro.sim.driver.SimOptions`); ``None``
    without the filter.

    The paper's filter squashes a guarded branch whose guard is known
    false at fetch (it cannot be taken).  With ``squash_known_true``
    any guarded branch whose guard is known either way is squashed:
    the resolved guard fixes its direction.
    """
    sfp = options.sfp
    if sfp is None:
        return None
    if sfp.squash_known_true:
        return trace.guard_known(options.distance) & (trace.b_guard != 0)
    return trace.guard_known_false(options.distance)


def pgu_delay(options) -> int:
    """Instructions between a define and the first fetch that sees it
    under ``options``' PGU: its own ``delay``, or the availability
    distance when it has none."""
    delay = options.pgu.delay
    return options.distance if delay is None else delay


def pgu_defines(
    trace: Trace, options
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(d_idx, d_value, delay)`` of the predicate defines PGU shifts
    into global history under ``options``.

    A define written at ``d_idx`` becomes visible to the fetch of
    dynamic instruction ``d_idx + delay``; ``delay`` is the PGU's own,
    or the availability distance when it has none.  Under
    ``which="guards_only"`` only writes to predicates that guard some
    branch of the trace are kept.  Without PGU there are no defines.
    """
    pgu = options.pgu
    if pgu is None:
        return trace.d_idx[:0], trace.d_value[:0], 0
    delay = pgu_delay(options)
    d_idx = trace.d_idx
    d_value = trace.d_value
    if pgu.which == "guards_only":
        guards = np.unique(trace.b_guard[trace.b_guard > 0])
        keep = np.isin(trace.d_pred, guards)
        d_idx = d_idx[keep]
        d_value = d_value[keep]
    return d_idx, d_value, delay
