"""Misprediction attribution over a prediction-event stream.

An :class:`AttributionAggregator` folds
:class:`~repro.profiler.events.PredictionEvent` records into the views an
architect actually reads:

* **per-static-branch attribution** with H2P ranking — the handful of
  hard-to-predict sites covering most mispredictions (Lin & Tarsa 2019's
  observation, measured here per workload and compile config);
* **per-region and per-class breakdowns** — where region-based branches
  inside hyperblocks stand relative to normal and loop branches;
* **per-mechanism breakdowns** — squash-filter accuracy
  (filtered-correct vs filtered-wrong), PGU insert-vs-update path
  accuracy, and predicate-availability-at-fetch histograms;
* **a phase timeline** — branches/mispredictions per fixed interval of
  the dynamic branch stream.

Aggregators pickle and :meth:`~AttributionAggregator.merge`, exactly like
:class:`~repro.telemetry.MetricsRegistry`: sweep workers profile their
points under private aggregators and the parent folds them in canonical
point order, so a 4-worker sweep's merged attribution is bit-identical
to a serial one.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.profiler.events import (
    AVAIL_NEVER,
    PGUPath,
    PredictionEvent,
    SFPDecision,
)
from repro.profiler.spec import ProfileSpec
from repro.trace.container import BranchClass

#: Report/JSON schema version for :meth:`AttributionAggregator.to_dict`.
REPORT_SCHEMA_VERSION = 1

#: Inclusive upper bounds of the availability-distance histogram; one
#: extra overflow bucket catches larger distances, and guards that were
#: never written are counted separately (``AVAIL_NEVER``).
AVAIL_BUCKETS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64)

_NOT_FILTERED = int(SFPDecision.NOT_FILTERED)


def avail_bucket_labels() -> List[str]:
    """Human-readable labels for :data:`AVAIL_BUCKETS` (+ overflow)."""
    labels = []
    lower = None
    for bound in AVAIL_BUCKETS:
        if lower is None or bound == lower + 1:
            labels.append(str(bound))
        else:
            labels.append(f"{lower + 1}-{bound}")
        lower = bound
    labels.append(f">{AVAIL_BUCKETS[-1]}")
    return labels


@dataclass
class BranchRecord:
    """Attribution counts for one static branch site."""

    workload: str
    pc: int
    function: str = ""
    region_id: int = -1
    region_based: bool = False
    branch_class: int = int(BranchClass.NORMAL)
    executions: int = 0
    taken: int = 0
    mispredictions: int = 0
    filtered: int = 0
    filtered_wrong: int = 0

    @property
    def misprediction_rate(self) -> float:
        return (
            self.mispredictions / self.executions if self.executions else 0.0
        )

    @property
    def taken_rate(self) -> float:
        return self.taken / self.executions if self.executions else 0.0

    def merge(self, other: "BranchRecord") -> None:
        self.executions += other.executions
        self.taken += other.taken
        self.mispredictions += other.mispredictions
        self.filtered += other.filtered
        self.filtered_wrong += other.filtered_wrong
        if not self.function and other.function:
            self.function = other.function
        if self.region_id < 0 <= other.region_id:
            self.region_id = other.region_id

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "pc": self.pc,
            "function": self.function,
            "region_id": self.region_id,
            "region": self.region_based,
            "class": int(self.branch_class),
            "executions": self.executions,
            "taken": self.taken,
            "mispredictions": self.mispredictions,
            "filtered": self.filtered,
            "filtered_wrong": self.filtered_wrong,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BranchRecord":
        return cls(
            workload=data["workload"],
            pc=int(data["pc"]),
            function=data.get("function", ""),
            region_id=int(data.get("region_id", -1)),
            region_based=bool(data["region"]),
            branch_class=int(data["class"]),
            executions=int(data["executions"]),
            taken=int(data["taken"]),
            mispredictions=int(data["mispredictions"]),
            filtered=int(data["filtered"]),
            filtered_wrong=int(data["filtered_wrong"]),
        )


@dataclass
class _Bucketed:
    """One availability histogram: fixed buckets + a "never" slot."""

    counts: List[int] = field(
        default_factory=lambda: [0] * (len(AVAIL_BUCKETS) + 1)
    )
    never: int = 0

    def observe(self, avail: int) -> None:
        if avail == AVAIL_NEVER:
            self.never += 1
        else:
            self.counts[bisect_left(AVAIL_BUCKETS, avail)] += 1

    def merge(self, other: "_Bucketed") -> None:
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.never += other.never

    def to_dict(self) -> dict:
        return {"counts": list(self.counts), "never": self.never}


class AttributionAggregator:
    """Streaming attribution state; picklable and mergeable.

    ``workload`` labels every site record this aggregator creates, so
    merging aggregators from different traces keeps their static pcs
    apart (pc 12 of ``crc`` is not pc 12 of ``grep``).
    """

    def __init__(self, spec: ProfileSpec = ProfileSpec(),
                 workload: str = ""):
        self.spec = spec
        self.workload = workload
        self.events = 0
        self.sites: Dict[Tuple[str, int], BranchRecord] = {}
        #: per-BranchClass [branches, mispredictions, filtered]
        self.classes: Dict[int, List[int]] = {}
        #: SFPDecision value -> event count
        self.sfp: Dict[int, int] = {}
        #: PGUPath value -> [events, correct]
        self.pgu: Dict[int, List[int]] = {}
        self.avail_all = _Bucketed()
        self.avail_region = _Bucketed()
        #: timeline interval index -> [branches, mispredictions, filtered]
        self.timeline: Dict[int, List[int]] = {}

    # -- ingestion ---------------------------------------------------------

    def add(self, event: PredictionEvent) -> None:
        """Fold one event into every view."""
        self.events += 1
        branch_class = int(event.branch_class)
        key = (self.workload, event.pc)
        record = self.sites.get(key)
        if record is None:
            record = self.sites[key] = BranchRecord(
                workload=self.workload,
                pc=event.pc,
                function=event.function,
                region_id=event.region_id,
                region_based=event.region_based,
                branch_class=branch_class,
            )
        correct = event.predicted == event.taken
        sfp = int(event.sfp)
        filtered = sfp != _NOT_FILTERED
        wrong = not correct and not filtered
        record.executions += 1
        record.taken += int(event.taken)
        if filtered:
            record.filtered += 1
            if not correct:
                record.filtered_wrong += 1
        elif wrong:
            record.mispredictions += 1

        cls = self.classes.get(branch_class)
        if cls is None:
            cls = self.classes[branch_class] = [0, 0, 0]
        cls[0] += 1
        cls[1] += wrong
        cls[2] += filtered

        self.sfp[sfp] = self.sfp.get(sfp, 0) + 1
        pgu = int(event.pgu)
        path = self.pgu.get(pgu)
        if path is None:
            path = self.pgu[pgu] = [0, 0]
        path[0] += 1
        path[1] += correct

        self.avail_all.observe(event.avail)
        if event.region_based:
            self.avail_region.observe(event.avail)

        slot = event.seq // self.spec.interval
        point = self.timeline.get(slot)
        if point is None:
            point = self.timeline[slot] = [0, 0, 0]
        point[0] += 1
        point[1] += wrong
        point[2] += filtered

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "AttributionAggregator") -> None:
        """Fold ``other`` into this aggregator.

        Requires identical specs — merging streams sampled differently
        would silently mix incomparable populations.
        """
        if self.spec != other.spec:
            raise ValueError(
                "cannot merge attribution aggregators with different "
                f"profile specs ({self.spec} vs {other.spec})"
            )
        self.events += other.events
        for key, record in other.sites.items():
            mine = self.sites.get(key)
            if mine is None:
                self.sites[key] = BranchRecord.from_dict(record.to_dict())
            else:
                mine.merge(record)
        for cls, counts in other.classes.items():
            mine = self.classes.setdefault(cls, [0, 0, 0])
            for i, count in enumerate(counts):
                mine[i] += count
        for decision, count in other.sfp.items():
            self.sfp[decision] = self.sfp.get(decision, 0) + count
        for path, counts in other.pgu.items():
            mine = self.pgu.setdefault(path, [0, 0])
            mine[0] += counts[0]
            mine[1] += counts[1]
        self.avail_all.merge(other.avail_all)
        self.avail_region.merge(other.avail_region)
        for slot, counts in other.timeline.items():
            mine = self.timeline.setdefault(slot, [0, 0, 0])
            for i, count in enumerate(counts):
                mine[i] += count

    def annotate(self, sites: "SiteTable") -> None:
        """Back-fill function/region info from a static site table."""
        for record in self.sites.values():
            if not record.function:
                record.function = sites.function(record.pc)
            if record.region_id < 0:
                record.region_id = sites.region(record.pc)

    # -- views -------------------------------------------------------------

    @property
    def branches(self) -> int:
        return self.events

    @property
    def mispredictions(self) -> int:
        return sum(r.mispredictions for r in self.sites.values())

    @property
    def filtered(self) -> int:
        return sum(r.filtered for r in self.sites.values())

    def totals(self) -> dict:
        """Headline counts (reconcile with ``SimResult`` at rate 1)."""
        return {
            "events": self.events,
            "branches": self.events,
            "mispredictions": self.mispredictions,
            "filtered": self.filtered,
            "filtered_wrong": sum(
                r.filtered_wrong for r in self.sites.values()
            ),
            "taken": sum(r.taken for r in self.sites.values()),
            "static_sites": len(self.sites),
        }

    def records(self) -> List[BranchRecord]:
        """Site records in first-seen (dynamic stream) order."""
        return list(self.sites.values())

    def ranked(self) -> List[BranchRecord]:
        """Canonically ordered attribution: worst sites first.

        Total order — (mispredictions desc, workload, pc) — so the
        ranking is identical however the aggregator was assembled.
        """
        return sorted(
            self.sites.values(),
            key=lambda r: (-r.mispredictions, r.workload, r.pc),
        )

    def top_branches(self, k: int) -> List[BranchRecord]:
        """The ``k`` worst static branches by absolute mispredictions."""
        return self.ranked()[:k]

    def coverage(self, k: int) -> float:
        """Fraction of all mispredictions the top ``k`` sites explain."""
        total = self.mispredictions
        if not total:
            return 0.0
        covered = sum(r.mispredictions for r in self.top_branches(k))
        return covered / total

    def h2p_count(self, fraction: float = 0.9) -> int:
        """How many sites cover ``fraction`` of mispredictions."""
        total = self.mispredictions
        if not total:
            return 0
        covered = 0
        for i, record in enumerate(self.ranked(), start=1):
            covered += record.mispredictions
            if covered >= fraction * total:
                return i
        return len(self.sites)

    def region_breakdown(self) -> List[dict]:
        """Counts grouped by (workload, function, region id).

        Region ids are static properties of a site, so grouping the
        per-site records is exact; sites outside any region land in the
        ``region_id == -1`` row of their function.
        """
        groups: Dict[Tuple[str, str, int], List[int]] = {}
        for record in self.sites.values():
            key = (record.workload, record.function, record.region_id)
            group = groups.setdefault(key, [0, 0, 0, 0])
            group[0] += 1
            group[1] += record.executions
            group[2] += record.mispredictions
            group[3] += record.filtered
        return [
            {
                "workload": workload,
                "function": function,
                "region_id": region_id,
                "sites": counts[0],
                "branches": counts[1],
                "mispredictions": counts[2],
                "filtered": counts[3],
            }
            for (workload, function, region_id), counts in sorted(
                groups.items()
            )
        ]

    def sfp_breakdown(self) -> dict:
        """Squash-filter decisions and the resulting squash accuracy."""
        not_filtered = self.sfp.get(int(SFPDecision.NOT_FILTERED), 0)
        correct = self.sfp.get(int(SFPDecision.FILTERED_CORRECT), 0)
        wrong = self.sfp.get(int(SFPDecision.FILTERED_WRONG), 0)
        squashes = correct + wrong
        return {
            "not_filtered": not_filtered,
            "filtered_correct": correct,
            "filtered_wrong": wrong,
            "squash_accuracy": correct / squashes if squashes else 0.0,
            "squash_coverage": (
                squashes / self.events if self.events else 0.0
            ),
        }

    def pgu_breakdown(self) -> dict:
        """Per-path prediction accuracy under predicate global update."""
        breakdown = {}
        for path in PGUPath:
            events, correct = self.pgu.get(int(path), (0, 0))
            breakdown[path.name.lower()] = {
                "events": events,
                "correct": correct,
                "accuracy": correct / events if events else 0.0,
            }
        return breakdown

    def availability(self) -> dict:
        """Predicate-available-at-fetch distance histograms."""
        return {
            "buckets": list(AVAIL_BUCKETS),
            "all": self.avail_all.to_dict(),
            "region": self.avail_region.to_dict(),
        }

    def timeline_points(self) -> List[dict]:
        """Interval timeline rows, in stream order."""
        return [
            {
                "interval": slot,
                "first_seq": slot * self.spec.interval,
                "branches": counts[0],
                "mispredictions": counts[1],
                "filtered": counts[2],
            }
            for slot, counts in sorted(self.timeline.items())
        ]

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-serialisable report (deterministic ordering)."""
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "rate": self.spec.rate,
            "seed": self.spec.seed,
            "interval": self.spec.interval,
            "workload": self.workload,
            "totals": self.totals(),
            "classes": {
                BranchClass(cls).name.lower(): {
                    "branches": counts[0],
                    "mispredictions": counts[1],
                    "filtered": counts[2],
                }
                for cls, counts in sorted(self.classes.items())
            },
            "sfp": self.sfp_breakdown(),
            "pgu": self.pgu_breakdown(),
            "availability": self.availability(),
            "regions": self.region_breakdown(),
            "timeline": self.timeline_points(),
            "sites": [record.to_dict() for record in self.ranked()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttributionAggregator":
        """Rebuild the per-site/mechanism state from :meth:`to_dict`.

        Timeline and availability views are restored too; ``classes``
        keys come back as :class:`BranchClass` values.
        """
        spec = ProfileSpec(
            rate=int(data["rate"]),
            seed=int(data["seed"]),
            interval=int(data["interval"]),
        )
        aggregator = cls(spec, workload=data.get("workload", ""))
        aggregator.events = int(data["totals"]["events"])
        for site in data["sites"]:
            record = BranchRecord.from_dict(site)
            aggregator.sites[(record.workload, record.pc)] = record
        for name, counts in data.get("classes", {}).items():
            aggregator.classes[int(BranchClass[name.upper()])] = [
                counts["branches"],
                counts["mispredictions"],
                counts["filtered"],
            ]
        sfp = data.get("sfp", {})
        for decision, key in (
            (SFPDecision.NOT_FILTERED, "not_filtered"),
            (SFPDecision.FILTERED_CORRECT, "filtered_correct"),
            (SFPDecision.FILTERED_WRONG, "filtered_wrong"),
        ):
            if sfp.get(key):
                aggregator.sfp[int(decision)] = sfp[key]
        for name, counts in data.get("pgu", {}).items():
            if counts["events"]:
                aggregator.pgu[int(PGUPath[name.upper()])] = [
                    counts["events"], counts["correct"],
                ]
        avail = data.get("availability", {})
        if avail:
            aggregator.avail_all.counts = list(avail["all"]["counts"])
            aggregator.avail_all.never = avail["all"]["never"]
            aggregator.avail_region.counts = list(avail["region"]["counts"])
            aggregator.avail_region.never = avail["region"]["never"]
        for point in data.get("timeline", []):
            aggregator.timeline[int(point["interval"])] = [
                point["branches"],
                point["mispredictions"],
                point["filtered"],
            ]
        return aggregator

    def __repr__(self):
        return (
            f"AttributionAggregator(workload={self.workload!r}, "
            f"events={self.events}, sites={len(self.sites)}, "
            f"spec={self.spec.describe()})"
        )


def join_static_facts(
    records: List[BranchRecord],
    predflow,
    distance: Optional[int] = None,
) -> List[dict]:
    """Join ranked H2P records onto their static predicate-flow facts.

    ``predflow`` is a :class:`repro.analysis.predflow.PredflowReport`
    for the *same* compiled executable (duck-typed here to keep the
    profiler importable without the analysis package).  Each returned
    dict is ``record.to_dict()`` plus a ``"static"`` key holding the
    :class:`~repro.analysis.predflow.BranchFacts` payload at the
    record's pc — guard value, availability bounds, SFP verdict —
    or ``None`` for a site the analysis never reached (itself a signal:
    see the contract checker's ``unknown-branch-site``).
    """
    by_pc = predflow.by_pc()
    if distance is None:
        distance = predflow.distance
    joined = []
    for record in records:
        payload = record.to_dict()
        facts = by_pc.get(record.pc)
        payload["static"] = (
            facts.to_dict(distance) if facts is not None else None
        )
        joined.append(payload)
    return joined


def merge_attributions(
    aggregators: List[Optional[AttributionAggregator]],
) -> Optional[AttributionAggregator]:
    """Fold aggregators (canonical order) into one combined report.

    ``None`` entries (unprofiled points) are skipped; returns ``None``
    when nothing was profiled.  Callers pass sweep results in canonical
    point order, which makes the merged site ordering deterministic.
    """
    merged: Optional[AttributionAggregator] = None
    for aggregator in aggregators:
        if aggregator is None:
            continue
        if merged is None:
            merged = AttributionAggregator(
                aggregator.spec, workload=aggregator.workload
            )
        merged.merge(aggregator)
    return merged
