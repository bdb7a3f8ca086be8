"""Per-site misprediction analysis.

Identifies the static branch sites that contribute the most
mispredictions under a given configuration — the view an architect uses
to see *which* branches a mechanism fixed and which remain.  Returns
structured records; the CLI's ``hotspots`` command prints them alongside
the disassembled site.

Since the profiler landed this is a thin view over
:class:`~repro.profiler.attribution.AttributionAggregator`: the trace is
replayed once through the real driver, on the ambient simulation core,
with an unsampled :class:`~repro.profiler.collector.AggregatingCollector`,
so per-site accounting lives in exactly one place and hotspots see the
driver's full semantics (SFP, PGU — including ``guards_only`` filtering
— delayed update) instead of a hand-maintained mirror loop.
"""

from dataclasses import dataclass
from typing import List

from repro.predictors.base import BranchPredictor
from repro.profiler.collector import AggregatingCollector
from repro.profiler.spec import ProfileSpec
from repro.sim.driver import SimOptions, simulate
from repro.trace.container import Trace


@dataclass
class SiteStats:
    """Aggregate behaviour of one static branch site."""

    pc: int
    executions: int = 0
    taken: int = 0
    mispredictions: int = 0
    squashed: int = 0
    region_based: bool = False

    @property
    def misprediction_rate(self) -> float:
        return (
            self.mispredictions / self.executions if self.executions else 0.0
        )

    @property
    def taken_rate(self) -> float:
        return self.taken / self.executions if self.executions else 0.0


def per_site_stats(
    trace: Trace,
    predictor: BranchPredictor,
    options: SimOptions = SimOptions(),
) -> List[SiteStats]:
    """Simulate and aggregate per static branch site.

    One rate-1 profiled :func:`~repro.sim.driver.simulate` pass; sites
    come back sorted by absolute mispredictions (ties keep first-seen
    order, as the dynamic stream encounters them).
    """
    collector = AggregatingCollector(
        ProfileSpec(), workload=trace.meta.workload
    )
    simulate(trace, predictor, options, collector=collector)
    sites = [
        SiteStats(
            pc=record.pc,
            executions=record.executions,
            taken=record.taken,
            mispredictions=record.mispredictions,
            squashed=record.filtered,
            region_based=record.region_based,
        )
        for record in collector.aggregator.records()
    ]
    return sorted(sites, key=lambda s: s.mispredictions, reverse=True)


def top_hotspots(
    trace: Trace,
    predictor: BranchPredictor,
    options: SimOptions = SimOptions(),
    limit: int = 10,
) -> List[SiteStats]:
    """The ``limit`` worst sites by absolute mispredictions."""
    return per_site_stats(trace, predictor, options)[:limit]
