"""Telemetry: metrics, span tracing and cross-process aggregation.

Four small pieces, composable and individually optional:

* :mod:`repro.telemetry.registry` — a process-local
  :class:`MetricsRegistry` of counters, gauges and fixed-bucket
  histograms, with deterministic :meth:`~MetricsRegistry.merge` so sweep
  workers can ship their numbers back to the parent as pickled
  registries.
* :mod:`repro.telemetry.sinks` — event sinks (:class:`MemorySink`,
  :class:`JsonlSink`), handed to whoever emits.
* :mod:`repro.telemetry.tracing` — :func:`span`, the one phase timer
  (trace build → cache publish → sweep → sim → aggregate): a
  ``span.<name>.seconds`` histogram in the current registry and, while
  tracing, a trace-span record.  Trace contexts (trace_id / span_id /
  parent_id) propagate across process boundaries, are collected into a
  mergeable :class:`SpanCollector`, and are rendered by
  :mod:`repro.telemetry.traceview` (``repro trace show``).
* :mod:`repro.telemetry.prom` — Prometheus text exposition of a
  registry snapshot (``GET /metrics?format=prom``).

Typical use (what ``repro run E2 --metrics run.jsonl`` does)::

    from repro import telemetry

    registry = telemetry.MetricsRegistry()
    with telemetry.use_registry(registry), \\
            telemetry.JsonlSink("run.jsonl") as sink:
        ...  # instrumented work
        sink.emit({"event": "metrics", **registry.snapshot()})

See ``docs/observability.md`` for metric names, the span hierarchy and
the JSONL schema.
"""

from repro.telemetry.prom import render_prometheus
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    PERCENTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    disabled,
    enabled,
    get_registry,
    set_enabled,
    use_registry,
)
from repro.telemetry.report import (
    render_profile_events,
    render_profile_markdown,
    render_report,
    summarize_events,
)
from repro.telemetry.sinks import (
    JsonlSink,
    MemorySink,
    Sink,
    read_events,
    read_events_lenient,
)
from repro.telemetry.tracing import (
    SpanCollector,
    TraceContext,
    child_context,
    current_context,
    from_traceparent,
    get_collector,
    new_trace_id,
    read_spans,
    skip_span,
    span,
    tracing_enabled,
    use_collector,
    use_context,
    use_tracing,
)
from repro.telemetry.traceview import (
    critical_path,
    render_trace,
    render_trace_list,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "PERCENTILES",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "QuantileSketch",
    "Sink",
    "SpanCollector",
    "TraceContext",
    "child_context",
    "critical_path",
    "current_context",
    "disabled",
    "enabled",
    "from_traceparent",
    "get_collector",
    "get_registry",
    "new_trace_id",
    "read_events",
    "read_events_lenient",
    "read_spans",
    "render_profile_events",
    "render_profile_markdown",
    "render_prometheus",
    "render_report",
    "render_trace",
    "render_trace_list",
    "set_enabled",
    "skip_span",
    "span",
    "summarize_events",
    "tracing_enabled",
    "use_collector",
    "use_context",
    "use_registry",
    "use_tracing",
]
