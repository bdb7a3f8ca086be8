"""Distributed tracing: sketches, span identity, propagation, rendering.

The contracts under test:

* :class:`QuantileSketch` — quantiles within the gamma relative-error
  bound, deterministic and commutative merges, lossless snapshot
  round-trip (the properties that make registry percentiles safe to
  merge across worker processes);
* trace context — traceparent round-trips, and span ids derived purely
  from (trace, parent, name, seq), so the span *set* of a sweep is a
  function of the work, not of the scheduling;
* the sweep engine — 1-worker and 4-worker runs of the same grid under
  the same root context produce identical span identities (the
  cross-process determinism claim) on the object and fast cores, plan
  decodes aside, with every worker span parented inside the trace;
* pickling — contexts and collectors cross the
  ``ProcessPoolExecutor`` boundary losslessly;
* simulation spans — on a kernel core, a plan decode (a plan-cache
  miss) and the replay are sibling spans under ``sim.driver``; tracing
  never changes the registry's counters, and the per-point spans (and
  their ``span.*`` histograms) exist only while tracing;
* rendering — ``repro trace show`` output carries the tree, the
  critical path and per-span self time;
* the CLI — ``--trace PATH`` makes one invocation one trace, rooted at
  a span named for the subcommand, with one child per experiment, cold
  trace builds and pool workers included.
"""

import argparse
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

from repro.predictors import make_predictor
from repro.sim import SimOptions, simulate, sweep
from repro.telemetry import (
    MetricsRegistry,
    QuantileSketch,
    SpanCollector,
    child_context,
    critical_path,
    from_traceparent,
    new_trace_id,
    read_spans,
    render_trace,
    render_trace_list,
    span,
    tracing_enabled,
    use_collector,
    use_context,
    use_registry,
    use_tracing,
)
from repro.telemetry.tracing import TraceContext, derive_span_id
from repro.telemetry.traceview import build_tree
from repro.workloads import get_workload


# ---------------------------------------------------------------------------
# QuantileSketch


class TestQuantileSketch:
    def test_empty(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.percentiles() == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0
        }

    def test_relative_error_bound(self):
        rng = random.Random(7)
        values = [rng.uniform(1e-4, 10.0) for _ in range(5000)]
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = ordered[int(q * (len(ordered) - 1))]
            got = sketch.quantile(q)
            # gamma=1.02 guarantees ~1% relative error; 3% margin
            # covers the rank discretisation at the tails.
            assert got == pytest.approx(exact, rel=0.03)

    def test_merge_equals_single_stream(self):
        rng = random.Random(11)
        values = [rng.expovariate(20.0) for _ in range(2000)]
        whole = QuantileSketch()
        parts = [QuantileSketch() for _ in range(4)]
        for index, value in enumerate(values):
            whole.observe(value)
            parts[index % 4].observe(value)
        merged = QuantileSketch()
        for part in parts:
            merged.merge(part)
        # Bins and counts are integers: exact.  The running total is a
        # float sum, so associativity allows 1-ulp drift.
        assert merged.snapshot()["bins"] == whole.snapshot()["bins"]
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total, rel=1e-12)
        assert merged.percentiles() == whole.percentiles()

    def test_merge_commutative(self):
        a, b = QuantileSketch(), QuantileSketch()
        for value in (0.001, 0.5, 2.0, 0.0):
            a.observe(value)
        for value in (0.25, 7.0, 1e-12):
            b.observe(value)
        ab = QuantileSketch()
        ab.merge(a)
        ab.merge(b)
        ba = QuantileSketch()
        ba.merge(b)
        ba.merge(a)
        assert ab.snapshot() == ba.snapshot()

    def test_snapshot_roundtrip(self):
        sketch = QuantileSketch()
        for value in (0.0, 1e-12, 0.003, 0.4, 12.5):
            sketch.observe(value)
        clone = QuantileSketch.from_snapshot(sketch.snapshot())
        assert clone.snapshot() == sketch.snapshot()
        assert clone.count == sketch.count
        assert clone.percentiles() == sketch.percentiles()

    def test_registry_histograms_carry_percentiles(self):
        registry = MetricsRegistry()
        for value in (0.01, 0.02, 0.03, 0.5):
            registry.histogram("latency").observe(value)
        data = registry.snapshot()["histograms"]["latency"]
        assert data["p50"] == pytest.approx(0.02, rel=0.03)
        assert data["p99"] == pytest.approx(0.5, rel=0.03)
        restored = MetricsRegistry.from_snapshot(registry.snapshot())
        assert (restored.snapshot()["histograms"]["latency"]
                == data)

    def test_registry_merge_merges_sketches(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (0.01, 0.02):
            a.histogram("latency").observe(value)
        for value in (0.03, 0.04):
            b.histogram("latency").observe(value)
        a.merge(b)
        data = a.snapshot()["histograms"]["latency"]
        assert data["count"] == 4
        assert data["p99"] == pytest.approx(0.04, rel=0.03)


# ---------------------------------------------------------------------------
# Trace context and span identity


class TestTraceContext:
    def test_traceparent_roundtrip(self):
        ctx = TraceContext(trace_id=new_trace_id(),
                           span_id=derive_span_id("a" * 32, "", "x", 0))
        parsed = from_traceparent(ctx.to_traceparent())
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    @pytest.mark.parametrize("header", [
        "", "junk", "00-short-abcd-01",
        "00-" + "g" * 32 + "-" + "0" * 16 + "-01",
    ])
    def test_traceparent_rejects_garbage(self, header):
        with pytest.raises(ValueError):
            from_traceparent(header)

    def test_span_ids_are_pure_functions(self):
        trace = new_trace_id()
        a = derive_span_id(trace, "", "root", 0)
        assert a == derive_span_id(trace, "", "root", 0)
        assert a != derive_span_id(trace, "", "root", 1)
        assert a != derive_span_id(trace, "", "other", 0)
        assert a != derive_span_id(new_trace_id(), "", "root", 0)
        assert len(a) == 16

    def test_child_context_derivation(self):
        trace = new_trace_id()
        root = TraceContext(trace_id=trace,
                            span_id=derive_span_id(trace, "", "r", 0))
        child = child_context(root, "step", 3)
        assert child.trace_id == trace
        assert child.parent_id == root.span_id
        assert child.span_id == derive_span_id(
            trace, root.span_id, "step", 3
        )

    def test_trace_span_off_by_default(self):
        assert not tracing_enabled()
        collector = SpanCollector()
        with use_collector(collector):
            with span("noop"):
                pass
        assert len(collector) == 0

    def test_trace_span_records_nested_tree(self):
        collector = SpanCollector()
        with use_tracing(True), use_collector(collector):
            with span("outer", kind="test"):
                with span("inner"):
                    pass
        outer, inner = sorted(
            collector.records, key=lambda r: r["start"]
        )
        assert outer["name"] == "outer"
        assert outer["parent_id"] == ""
        assert outer["attrs"] == {"kind": "test"}
        assert inner["parent_id"] == outer["span_id"]
        assert inner["trace_id"] == outer["trace_id"]
        assert outer["seconds"] >= inner["seconds"] >= 0.0


# ---------------------------------------------------------------------------
# SpanCollector


class TestSpanCollector:
    def _records(self, count=3):
        collector = SpanCollector()
        with use_tracing(True), use_collector(collector):
            with span("root"):
                for index in range(count):
                    with span("step"):
                        pass
        return collector

    def test_merge_and_canonical_order(self):
        a, b = self._records(), self._records()
        merged = SpanCollector()
        merged.merge(a)
        merged.merge(b)
        assert len(merged) == len(a) + len(b)
        other = SpanCollector()
        other.merge(b)
        other.merge(a)
        # canonical() sorts by (trace_id, span_id): merge-order free.
        assert merged.canonical() == other.canonical()

    def test_identity_ignores_timings(self):
        a, b = self._records(), self._records()
        assert a.identity() != b.identity()  # distinct trace ids
        # Same structure under the same root -> same identity.
        trace = new_trace_id()
        root = TraceContext(trace_id=trace,
                            span_id=derive_span_id(trace, "", "r", 0))
        identities = []
        for _ in range(2):
            collector = SpanCollector()
            with use_tracing(True), use_collector(collector), \
                    use_context(root):
                with span("work"):
                    pass
            identities.append(collector.identity())
        assert identities[0] == identities[1]

    def test_pickle_roundtrip(self):
        collector = self._records()
        clone = pickle.loads(pickle.dumps(collector))
        assert clone.canonical() == collector.canonical()
        ctx = TraceContext(
            trace_id=new_trace_id(),
            span_id=derive_span_id("0" * 32, "", "r", 0),
            parent_id="1" * 16,
        )
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_write_and_read_jsonl(self, tmp_path):
        collector = self._records()
        path = tmp_path / "spans.jsonl"
        collector.write_jsonl(path)
        # Appends mixed with foreign lines are tolerated on read.
        with open(path, "a") as handle:
            handle.write('{"event": "metrics"}\n')
            handle.write("not json\n")
        records = read_spans(path)
        assert records == collector.canonical()


# ---------------------------------------------------------------------------
# Sweep propagation: scheduling-invariant span sets


def _without_decodes(records):
    """Span records minus ``fastcore.decode``, whose presence depends on
    which plans the process that ran a point had cached."""
    return [r for r in records if r["name"] != "fastcore.decode"]


class TestSweepTracing:
    def _run(self, workers, core="object"):
        traces = {
            name: get_workload(name).trace(scale="tiny")
            for name in ("crc", "qsort")
        }
        factories = {
            "gshare": lambda: make_predictor("gshare", entries=256)
        }
        grid = [SimOptions(), SimOptions(distance=8)]
        trace_id = new_trace_id()
        root = TraceContext(
            trace_id=trace_id,
            span_id=derive_span_id(trace_id, "", "run", 0),
        )
        collector = SpanCollector()
        registry = MetricsRegistry()
        with use_registry(registry), use_tracing(True), \
                use_collector(collector), use_context(root):
            results = sweep(traces, factories, grid, workers=workers,
                            core=core)
        return results, collector, registry

    def test_worker_count_does_not_change_span_identity(self):
        for core in ("object", "fast"):
            self._check_worker_count_identity(core)

    def _check_worker_count_identity(self, core):
        results_1, spans_1, registry_1 = self._run(workers=1, core=core)
        results_4, spans_4, registry_4 = self._run(workers=4, core=core)
        assert [r.mispredictions for r in results_1] == \
            [r.mispredictions for r in results_4]
        # Different roots -> different raw ids, but the *shape* —
        # (parent-name, name, seq-derived ids relative to the root) —
        # must match.  Normalise by stripping the per-run trace id.
        def shape(collector):
            by_id = {r["span_id"]: r for r in collector.records}

            def name_path(record):
                path = [record["name"]]
                parent = by_id.get(record["parent_id"])
                while parent is not None:
                    path.append(parent["name"])
                    parent = by_id.get(parent["parent_id"])
                return tuple(reversed(path))

            return sorted(
                (
                    name_path(r),
                    tuple(sorted(
                        (k, v) for k, v in r["attrs"].items()
                        if k != "workers"  # legitimately differs
                    )),
                )
                for r in _without_decodes(collector.records)
            )

        assert shape(spans_1) == shape(spans_4)
        # 1 sweep + 4 points + 4 driver spans (+ 4 replay spans on a
        # kernel core), all in one trace.
        assert len(_without_decodes(spans_1.records)) == (
            9 if core == "object" else 13
        )
        assert len(spans_1.traces()) == 1
        hist_1 = registry_1.snapshot()["histograms"]
        hist_4 = registry_4.snapshot()["histograms"]
        # The parallel path adds queue-wait (no queue exists serially);
        # every serial histogram must appear unchanged in name.
        assert set(hist_1) <= set(hist_4)
        assert "sweep.point_seconds" in hist_1

    def test_same_root_same_workers_identical_identity(self):
        for core in ("object", "fast"):
            self._check_same_root_identity(core)

    def _check_same_root_identity(self, core):
        trace_id = new_trace_id()
        root = TraceContext(
            trace_id=trace_id,
            span_id=derive_span_id(trace_id, "", "run", 0),
        )
        traces = {"crc": get_workload("crc").trace(scale="tiny")}
        factories = {
            "gshare": lambda: make_predictor("gshare", entries=256)
        }
        # Both points replay one plan: run serially, the second finds
        # it cached; run on two workers, it may decode it again.
        grid = [SimOptions(), SimOptions(distance=8)]
        identities = []
        for workers in (1, 2):
            collector = SpanCollector()
            with use_registry(MetricsRegistry()), use_tracing(True), \
                    use_collector(collector), use_context(root):
                sweep(traces, factories, grid, workers=workers, core=core)
            ids = {r["span_id"]: r for r in collector.records}
            for r in collector.records:
                # A decode is always its driver's child 0, the replay
                # child 1, whether or not that point decoded.
                seq = {"fastcore.decode": 0, "fastcore.replay": 1}.get(
                    r["name"]
                )
                if seq is not None:
                    driver = ids[r["parent_id"]]
                    assert driver["name"] == "sim.driver"
                    assert r["span_id"] == derive_span_id(
                        trace_id, driver["span_id"], r["name"], seq
                    )
            kept = SpanCollector()
            for r in _without_decodes(collector.records):
                kept.add(r)
            identities.append(kept.identity())
        # Same root context, same grid: bit-identical span identity
        # regardless of how many processes executed the points.
        assert identities[0] == identities[1]
        replays = [i for i in identities[0] if i[3] == "fastcore.replay"]
        assert len(replays) == (0 if core == "object" else 2)

    def test_span_histograms_do_not_depend_on_workers(self):
        """A traced 4-point sweep records the same ``span.*`` histogram
        names, one ``sim.driver`` and one ``fastcore.replay`` observation
        per point, and identical counters, serially and over two
        workers."""
        snapshots = []
        for workers in (1, 2):
            _, _, registry = self._run(workers=workers, core="fast")
            snapshots.append(registry.snapshot())
        serial, parallel = snapshots
        # Decodes aside: whether a point decodes depends on what its
        # process had cached (see _without_decodes).
        names = [
            {name for name in snapshot["histograms"]
             if name.startswith("span.")
             and name != "span.fastcore.decode.seconds"}
            for snapshot in snapshots
        ]
        assert names[0] == names[1]
        assert {"span.sweep.seconds", "span.sweep-point.seconds",
                "span.sim.driver.seconds"} <= names[0]
        for snapshot in snapshots:
            histograms = snapshot["histograms"]
            assert histograms["span.sim.driver.seconds"]["count"] == 4
            assert histograms["span.sweep-point.seconds"]["count"] == 4
            assert histograms["span.fastcore.replay.seconds"]["count"] == 4
        assert serial["counters"] == parallel["counters"]

    def test_worker_spans_report_worker_pids(self):
        import os

        _, spans, _ = self._run(workers=2)
        points = [r for r in spans.records if r["name"] == "sweep-point"]
        assert points and all(
            r["pid"] != os.getpid() for r in points
        )


# ---------------------------------------------------------------------------
# Simulation spans


class TestSimulateSpans:
    @staticmethod
    def _fresh_trace():
        # An unpickled copy is a new object, so its plan is not cached.
        return pickle.loads(pickle.dumps(
            get_workload("crc").trace(scale="tiny")
        ))

    @staticmethod
    def _simulate(trace, core, tracing=True):
        """(parent name, span name) pairs and the counters of one run."""
        spans = SpanCollector()
        registry = MetricsRegistry()
        with use_registry(registry), use_tracing(tracing), \
                use_collector(spans):
            simulate(trace, make_predictor("gshare", entries=256),
                     SimOptions(), core=core)
        names = {r["span_id"]: r["name"] for r in spans.records}
        tree = sorted(
            (names.get(r["parent_id"], ""), r["name"])
            for r in spans.records
        )
        return tree, registry.snapshot()["counters"]

    @pytest.mark.parametrize("core", ["fast", "numpy"])
    def test_decode_and_replay_hang_off_the_driver(self, core):
        trace = self._fresh_trace()
        tree, _ = self._simulate(trace, core)
        assert tree == [
            ("", "sim.driver"),
            ("sim.driver", "fastcore.decode"),
            ("sim.driver", "fastcore.replay"),
        ]
        # The plan is cached now: a repeat run decodes nothing.
        tree, _ = self._simulate(trace, core)
        assert tree == [
            ("", "sim.driver"), ("sim.driver", "fastcore.replay"),
        ]

    def test_object_core_records_the_driver_span_only(self):
        tree, _ = self._simulate(self._fresh_trace(), "object")
        assert tree == [("", "sim.driver")]

    def test_untraced_run_opens_no_per_point_span(self):
        """Untraced, ``simulate`` and the sweep points time nothing:
        the per-point spans open only while tracing."""
        traces = {"crc": self._fresh_trace()}
        factories = {"gshare": lambda: make_predictor("gshare",
                                                      entries=256)}
        registry = MetricsRegistry()
        with use_registry(registry):
            simulate(traces["crc"], factories["gshare"](), SimOptions(),
                     core="fast")
            sweep(traces, factories, [SimOptions(), SimOptions(distance=8)],
                  workers=1, core="fast")
        snapshot = registry.snapshot()
        spans = {
            name for name in snapshot["histograms"]
            if name.startswith("span.")
        }
        assert spans == {"span.sweep.seconds"}
        # The histogram's count is the call count: no span counters.
        assert snapshot["histograms"]["span.sweep.seconds"]["count"] == 1
        assert not [name for name in snapshot["counters"]
                    if name.startswith("span.")]

    @pytest.mark.parametrize("core", ["object", "fast", "numpy"])
    def test_tracing_leaves_counters_unchanged(self, core):
        _, traced = self._simulate(self._fresh_trace(), core)
        _, untraced = self._simulate(
            self._fresh_trace(), core, tracing=False
        )
        assert traced == untraced
        assert traced[f"sim.core.{core}"] == 1


# ---------------------------------------------------------------------------
# Trace rendering


class TestTraceView:
    def _collect(self):
        collector = SpanCollector()
        with use_tracing(True), use_collector(collector):
            with span("root"):
                with span("fast"):
                    pass
                with span("slow"):
                    with span("leaf"):
                        pass
        return collector.canonical()

    def test_build_tree_and_critical_path(self):
        records = self._collect()
        roots, children = build_tree(records)
        assert [r["name"] for r in roots] == ["root"]
        path = critical_path(roots[0], children)
        assert [r["name"] for r in path] == ["root", "slow", "leaf"]

    def test_render_contains_tree_and_critical_path(self):
        records = self._collect()
        text = render_trace(records)
        assert "root" in text and "leaf" in text
        assert "critical path: root -> slow -> leaf" in text
        assert "self" in text  # per-span self time column
        listing = render_trace_list(records)
        assert records[0]["trace_id"] in listing
        assert "spans=4" in listing

    def test_render_unknown_trace_id(self):
        text = render_trace(self._collect(), trace_id="f" * 32)
        assert "no spans" in text

    def test_orphan_parent_becomes_root(self):
        records = self._collect()
        # Drop the real root: children must still render (as roots).
        orphaned = [r for r in records if r["name"] != "root"]
        roots, _children = build_tree(orphaned)
        assert {r["name"] for r in roots} == {"fast", "slow"}
        assert "critical path" in render_trace(orphaned)


# ---------------------------------------------------------------------------
# The CLI's --trace


REPO = Path(__file__).resolve().parents[1]


class TestCliTrace:
    @staticmethod
    def _spans(tmp_path, *argv):
        """The span records of one CLI run on an empty trace cache."""
        path = tmp_path / "spans.jsonl"
        env = dict(os.environ, REPRO_TRACE_CACHE=str(tmp_path / "cache"),
                   PYTHONPATH=str(REPO / "src"))
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv, "--scale", "tiny",
             "--trace", str(path)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        records = read_spans(path)
        assert len({r["trace_id"] for r in records}) == 1
        ids = {r["span_id"] for r in records}
        roots = [r["name"] for r in records if r["parent_id"] == ""]
        assert all(r["parent_id"] in ids for r in records
                   if r["parent_id"])
        return records, roots

    def test_cold_simulate_is_one_trace(self, tmp_path):
        """The trace build, the cache publish and the simulation hang
        under one ``simulate`` root."""
        records, roots = self._spans(tmp_path, "simulate", "crc")
        assert roots == ["simulate"]
        assert {"trace-build", "cache-publish", "sim.driver"} <= {
            r["name"] for r in records
        }

    def test_experiment_span_sits_between_root_and_sweep(self, tmp_path):
        records, roots = self._spans(
            tmp_path, "run", "e02", "--workloads", "crc"
        )
        assert roots == ["run"]
        names = {r["span_id"]: r["name"] for r in records}
        (experiment,) = [r for r in records if r["name"] == "E2"]
        assert names[experiment["parent_id"]] == "run"
        (sweep_span,) = [r for r in records if r["name"] == "sweep"]
        assert sweep_span["parent_id"] == experiment["span_id"]

    def test_parallel_run_is_one_trace(self, tmp_path):
        records, roots = self._spans(
            tmp_path, "run", "E2", "--workers", "2", "--workloads", "crc"
        )
        assert roots == ["run"]
        assert "sweep-point" in {r["name"] for r in records}
        assert len({r["pid"] for r in records}) >= 2

    def test_serve_trace_flag_is_not_a_path(self, tmp_path, monkeypatch):
        """``serve --trace`` is a flag: the invocation scope neither
        traces nor writes a span file for it."""
        monkeypatch.chdir(tmp_path)
        args = argparse.Namespace(command="serve", trace=True, metrics=None)
        with cli._metrics_scope(args):
            assert not tracing_enabled()
        assert list(tmp_path.iterdir()) == []
