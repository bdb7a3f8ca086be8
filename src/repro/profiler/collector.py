"""Event collectors: where the driver's prediction events go.

:func:`repro.sim.driver.simulate` takes an optional collector, on any
simulation core: after the replay, a post-pass builds the event of every
sampled branch from the trace, the replay plan and the mispredict
vector.  With no collector, or one that samples no branch, the pass does
nothing (the profiler benchmark gate holds an idle collector under 3%
overhead).  Collectors own the deterministic
sampling parameters (via :class:`~repro.profiler.spec.ProfileSpec`) and
whatever storage policy fits the consumer:

* :class:`AggregatingCollector` — streams events straight into an
  :class:`~repro.profiler.attribution.AttributionAggregator`; memory is
  bounded by static footprint, not trace length.  Picklable, so sweep
  workers use it and ship the aggregator back with the point's result.
* :class:`RingBufferCollector` — keeps the last ``capacity`` sampled
  events for inspection; the bound keeps overhead and memory negligible
  on long traces.
* :class:`JsonlEventCollector` — appends each sampled event to a JSONL
  file (``repro profile --events out.jsonl``), prefixed with a header
  record carrying the spec so readers can validate and replay.
* :class:`TeeCollector` — fans one stream out to several collectors
  that share a spec.
"""

from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.profiler.attribution import AttributionAggregator
from repro.profiler.events import (
    EVENT_SCHEMA_VERSION,
    PredictionEvent,
)
from repro.profiler.spec import ProfileSpec


class SiteTable:
    """Static ``pc -> (function, region id)`` map for event annotation.

    Plain dicts, so it pickles cheaply and survives the sweep boundary.
    Unknown pcs resolve to ``("", -1)``.
    """

    def __init__(self, functions: Optional[Dict[int, str]] = None,
                 regions: Optional[Dict[int, int]] = None):
        self.functions = functions or {}
        self.regions = regions or {}

    @classmethod
    def from_executable(cls, executable) -> "SiteTable":
        """Index every static branch site of a linked executable."""
        functions = {}
        regions = {}
        for pc in executable.static_branch_sites():
            functions[pc] = executable.function_at(pc)
            regions[pc] = executable.code[pc].region
        return cls(functions, regions)

    def function(self, pc: int) -> str:
        return self.functions.get(pc, "")

    def region(self, pc: int) -> int:
        return self.regions.get(pc, -1)

    def __len__(self) -> int:
        return len(self.functions)


class EventCollector:
    """Base collector: sampling parameters plus the receive hook.

    The driver reads :attr:`rate` and :attr:`seed` once per simulation
    and calls :meth:`collect` only for sampled events, in stream order,
    so subclasses never re-check the sampling decision.
    """

    def __init__(self, spec: ProfileSpec = ProfileSpec(),
                 sites: Optional[SiteTable] = None):
        self.spec = spec
        self.rate = spec.rate
        self.seed = spec.seed
        self.sites = sites

    def _annotate(self, event: PredictionEvent) -> None:
        """Fill static site info in place, when a table is available."""
        sites = self.sites
        if sites is not None:
            event.function = sites.function(event.pc)
            event.region_id = sites.region(event.pc)

    def collect(self, event: PredictionEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class AggregatingCollector(EventCollector):
    """Folds events into an :class:`AttributionAggregator` as they land."""

    def __init__(self, spec: ProfileSpec = ProfileSpec(),
                 sites: Optional[SiteTable] = None, workload: str = ""):
        super().__init__(spec, sites)
        self.aggregator = AttributionAggregator(spec, workload=workload)

    def collect(self, event: PredictionEvent) -> None:
        self._annotate(event)
        self.aggregator.add(event)


class RingBufferCollector(EventCollector):
    """Retains the most recent ``capacity`` sampled events."""

    def __init__(self, spec: ProfileSpec = ProfileSpec(),
                 sites: Optional[SiteTable] = None,
                 capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__(spec, sites)
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self.collected = 0  #: sampled events seen (including evicted)

    def collect(self, event: PredictionEvent) -> None:
        self._annotate(event)
        self._buffer.append(event)
        self.collected += 1

    @property
    def events(self) -> List[PredictionEvent]:
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self.collected = 0


class JsonlEventCollector(EventCollector):
    """Streams sampled events to a JSONL file via a buffered sink.

    The first record is a ``profile-header`` carrying the schema version
    and spec, so a reader can validate compatibility and rebuild an
    aggregator (:func:`read_event_stream`) without guessing parameters.
    Always close (or use as a context manager) — the underlying sink
    buffers for throughput and flushes on close, including the
    exception exit path.
    """

    def __init__(self, path, spec: ProfileSpec = ProfileSpec(),
                 sites: Optional[SiteTable] = None, workload: str = ""):
        # Imported here: sinks live in repro.telemetry, which is
        # import-cycle-sensitive during package init.
        from repro.telemetry.sinks import JsonlSink

        super().__init__(spec, sites)
        self.path = path
        self.workload = workload
        self._sink = JsonlSink(path)
        self._sink.emit(header_record(spec, workload=workload))

    def collect(self, event: PredictionEvent) -> None:
        self._annotate(event)
        self._sink.emit(event.to_dict())

    def close(self) -> None:
        self._sink.close()


class TeeCollector(EventCollector):
    """Duplicates one event stream to several collectors.

    All children must share the same sampling spec — a tee with mixed
    rates would silently under-sample some outputs.
    """

    def __init__(self, collectors: Iterable[EventCollector]):
        self.collectors = list(collectors)
        if not self.collectors:
            raise ValueError("TeeCollector needs at least one collector")
        spec = self.collectors[0].spec
        for collector in self.collectors[1:]:
            if collector.spec != spec:
                raise ValueError(
                    "TeeCollector children disagree on profile spec: "
                    f"{spec} vs {collector.spec}"
                )
        super().__init__(spec, sites=None)

    def collect(self, event: PredictionEvent) -> None:
        for collector in self.collectors:
            collector.collect(event)

    def close(self) -> None:
        for collector in self.collectors:
            collector.close()

    @property
    def aggregator(self):
        """The first child aggregator, if any (duck-typing hook used by
        :func:`repro.sim.driver.simulate` to attach attribution)."""
        for collector in self.collectors:
            aggregator = getattr(collector, "aggregator", None)
            if aggregator is not None:
                return aggregator
        return None


# -- JSONL event-stream helpers -----------------------------------------------


def header_record(spec: ProfileSpec, workload: str = "") -> dict:
    """The ``profile-header`` JSONL record for an event stream."""
    from repro import repro_version

    return {
        "event": "profile-header",
        "schema": EVENT_SCHEMA_VERSION,
        "version": repro_version(),
        "rate": spec.rate,
        "seed": spec.seed,
        "interval": spec.interval,
        "workload": workload,
    }


def read_event_stream(path):
    """Parse a profiler events JSONL file.

    Returns ``(spec, workload, events)``.  Raises ``ValueError`` for a
    missing/incompatible header or malformed records; non-prediction
    records after the header (e.g. interleaved telemetry) are skipped.
    """
    from repro.telemetry.sinks import read_events

    records = read_events(path)
    if not records or records[0].get("event") != "profile-header":
        raise ValueError(
            f"{path}: not a profiler event stream (missing "
            "profile-header record)"
        )
    header = records[0]
    if header.get("schema") != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: event schema {header.get('schema')!r} not supported "
            f"(expected {EVENT_SCHEMA_VERSION})"
        )
    spec = ProfileSpec(
        rate=int(header["rate"]),
        seed=int(header["seed"]),
        interval=int(header["interval"]),
    )
    events = [
        PredictionEvent.from_dict(record)
        for record in records[1:]
        if record.get("event") == "prediction"
    ]
    return spec, header.get("workload", ""), events


def aggregate_event_stream(path) -> AttributionAggregator:
    """Replay a JSONL event stream into a fresh aggregator."""
    spec, workload, events = read_event_stream(path)
    aggregator = AttributionAggregator(spec, workload=workload)
    for event in events:
        aggregator.add(event)
    return aggregator
