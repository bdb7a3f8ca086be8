"""Tests for the ``repro.telemetry`` subsystem.

The load-bearing contracts: registry merges are deterministic (a
4-worker sweep and a serial sweep produce identical merged counters),
the JSONL sink round-trips events losslessly, spans nest (as trace
records) and time into name-keyed histograms of the current registry,
and the disabled switch really turns recording off.
"""

import pickle

import pytest

from repro import telemetry
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.sim import SimOptions, simulate, sweep
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    SpanCollector,
    read_events,
    span,
    use_collector,
    use_registry,
    use_tracing,
)
from repro.workloads import get_workload


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        histogram.observe(50.0)
        assert registry.counter("c").value == 5
        assert registry.gauge("g").value == 2.5
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(55.5 / 3)

    def test_merge_semantics(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.counter("only_b").inc(7)
        a.gauge("g").set(1.0)
        b.gauge("g").set(4.0)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.counter("only_b").value == 7
        assert a.gauge("g").value == 4.0  # max wins
        assert a.histogram("h", buckets=(1.0,)).counts == [1, 1]

    def test_merge_rejects_mismatched_buckets(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge(b)

    def test_merge_is_commutative_on_counters(self):
        parts = []
        for i in range(3):
            registry = MetricsRegistry()
            registry.counter("c").inc(i + 1)
            registry.counter(f"p{i}").inc(10)
            parts.append(registry)
        forward = MetricsRegistry()
        for part in parts:
            forward.merge(part)
        backward = MetricsRegistry()
        for part in reversed(parts):
            backward.merge(part)
        assert (
            forward.snapshot()["counters"]
            == backward.snapshot()["counters"]
        )

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.gauge("g").set(0.25)
        registry.histogram("h").observe(0.002)
        restored = MetricsRegistry.from_snapshot(registry.snapshot())
        assert restored.snapshot() == registry.snapshot()

    def test_registry_pickles(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(1.0)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()

    def test_use_registry_restores_previous(self):
        outer = MetricsRegistry()
        inner = MetricsRegistry()
        with use_registry(outer):
            with use_registry(inner):
                telemetry.get_registry().counter("c").inc()
            telemetry.get_registry().counter("c").inc(10)
        assert inner.counter("c").value == 1
        assert outer.counter("c").value == 10


class TestSinks:
    def test_memory_sink_collects(self):
        sink = MemorySink()
        sink.emit({"event": "span", "name": "x"})
        assert sink.events == [{"event": "span", "name": "x"}]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "out" / "events.jsonl"
        events = [
            {"event": "span", "name": "a", "seconds": 0.25},
            {"event": "metrics", "counters": {"c": 3}},
        ]
        with JsonlSink(path) as sink:
            for event in events:
                sink.emit(event)
        assert read_events(path) == events

    def test_jsonl_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"event": "span", "name": "one"})
        with JsonlSink(path) as sink:
            sink.emit({"event": "span", "name": "two"})
        assert [e["name"] for e in read_events(path)] == ["one", "two"]

    def test_jsonl_flushes_buffered_records_on_exception(self, tmp_path):
        """Regression: a crash inside the ``with`` block must not lose
        block-buffered records — the exception exit closes the handle."""
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with JsonlSink(path) as sink:
                for i in range(2000):
                    sink.emit({"event": "span", "i": i})
                raise RuntimeError("boom")
        assert sink.closed
        events = read_events(path)
        assert len(events) == 2000
        assert events[-1]["i"] == 1999

    def test_jsonl_flush_and_idempotent_close(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        assert sink.closed  # lazy open: no handle until first emit
        sink.emit({"event": "span", "i": 0})
        sink.flush()
        assert read_events(path) == [{"event": "span", "i": 0}]
        sink.close()
        sink.close()  # second close is a no-op
        assert sink.closed

    def test_read_events_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_events(path)


class TestSpans:
    @staticmethod
    def _record(work):
        """The trace records (in close order) and histograms of ``work``."""
        registry = MetricsRegistry()
        spans = SpanCollector()
        with use_registry(registry), use_tracing(True), \
                use_collector(spans):
            work()
        return spans.records, registry.snapshot()

    def test_nested_paths_and_registry_recording(self):
        def work():
            with span("outer"):
                with span("inner", detail=1):
                    pass

        records, snapshot = self._record(work)
        inner, outer = records  # inner closes first
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] == ""
        assert inner["attrs"] == {"detail": 1}
        assert "attrs" not in outer
        # One name-keyed histogram per span; its count is the calls.
        histograms = snapshot["histograms"]
        assert histograms["span.outer.seconds"]["count"] == 1
        assert histograms["span.inner.seconds"]["count"] == 1
        assert snapshot["counters"] == {}

    def test_trace_build_splits_into_phases(self, tmp_path):
        from repro.trace import TraceCache

        records, snapshot = self._record(
            lambda: get_workload("crc").trace(
                scale="tiny", hyperblocks=True, cache=TraceCache(tmp_path)
            )
        )
        by_id = {r["span_id"]: r for r in records}
        # profiling compile, profiling run, hyperblock compile, traced run
        assert [
            (by_id.get(r["parent_id"], {}).get("name", ""), r["name"])
            for r in records[:5]
        ] == [
            ("trace-build", "compile"),
            ("trace-build", "profile-run"),
            ("trace-build", "compile"),
            ("trace-build", "traced-run"),
            ("", "trace-build"),
        ]
        counts = {
            name: data["count"]
            for name, data in snapshot["histograms"].items()
            if name.startswith("span.")
        }
        assert counts == {
            "span.trace-build.seconds": 1,
            "span.compile.seconds": 2,
            "span.profile-run.seconds": 1,
            "span.traced-run.seconds": 1,
            "span.cache-publish.seconds": 1,
        }

    def test_disabled_records_nothing(self):
        registry = MetricsRegistry()
        spans = SpanCollector()
        with use_registry(registry), use_collector(spans):
            with telemetry.disabled():
                with span("quiet") as ctx:
                    pass
        assert ctx is None
        assert len(spans) == 0
        assert registry.snapshot() == MetricsRegistry().snapshot()


class TestSimulateCounters:
    def test_counters_match_result(self):
        trace = get_workload("crc").trace(scale="tiny")
        registry = MetricsRegistry()
        with use_registry(registry):
            result = simulate(
                trace,
                make_predictor("gshare", entries=256),
                SimOptions(sfp=SFPConfig()),
            )
        counters = registry.snapshot()["counters"]
        assert counters["sim.runs"] == 1
        assert counters["sim.branches"] == result.branches
        assert counters["sim.mispredictions"] == result.mispredictions
        assert counters["sim.squashed"] == result.squashed
        assert counters["sim.instructions"] == result.instructions
        assert (
            counters["sim.predicts"]
            == result.branches - result.squashed
        )
        per_class_branches = sum(
            counters[f"sim.class.{name}.branches"]
            for name in ("normal", "region", "loop")
        )
        assert per_class_branches == result.branches

    def test_disabled_simulate_records_nothing(self):
        trace = get_workload("crc").trace(scale="tiny")
        registry = MetricsRegistry()
        with use_registry(registry), telemetry.disabled():
            simulate(trace, make_predictor("gshare", entries=256))
        assert registry.snapshot()["counters"] == {}


class TestSweepMergeDeterminism:
    def _grid(self):
        traces = {
            name: get_workload(name).trace(scale="tiny")
            for name in ("crc", "qsort")
        }
        factories = {
            "gshare256": lambda: make_predictor("gshare", entries=256),
            "bimodal256": lambda: make_predictor("bimodal", entries=256),
        }
        grid = [
            SimOptions(),
            SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
        ]
        return traces, factories, grid

    def test_serial_and_parallel_counters_identical(self):
        traces, factories, grid = self._grid()
        serial_registry = MetricsRegistry()
        with use_registry(serial_registry):
            sweep(traces, factories, grid)
        parallel_registry = MetricsRegistry()
        with use_registry(parallel_registry):
            sweep(traces, factories, grid, workers=4)
        assert (
            serial_registry.snapshot()["counters"]
            == parallel_registry.snapshot()["counters"]
        )

    def test_sweep_counters_and_gauges(self):
        traces, factories, grid = self._grid()
        registry = MetricsRegistry()
        with use_registry(registry):
            results = sweep(traces, factories, grid, workers=2)
        counters = registry.snapshot()["counters"]
        assert counters["sweep.runs"] == 1
        assert counters["sweep.points_total"] == len(results) == 8
        assert counters["sweep.points_completed"] == 8
        assert counters["sim.runs"] == 8
        gauges = registry.snapshot()["gauges"]
        assert gauges["sweep.workers"] == 2
        assert 0.0 < gauges["sweep.worker_utilisation"] <= 1.0
        histograms = registry.snapshot()["histograms"]
        assert histograms["sweep.point_seconds"]["count"] == 8
        assert histograms["sweep.queue_wait_seconds"]["count"] == 8
