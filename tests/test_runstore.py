"""Tests for the run-history store, diff engine and trend reports.

End-to-end contract (the acceptance path): ``repro run E2 --record``
appends a schema-valid RunRecord whose run id is the content hash of
its deterministic payload, ``repro history diff`` exits 0 against an
identical baseline and non-zero — naming the offending metric — when a
metric regresses, and recording the same sweep serially or over worker
processes produces byte-identical metric payloads.
"""

import json

import pytest

from repro.cli import main
from repro.runstore import (
    MetricNoise,
    NoiseModel,
    RunRecord,
    RunRecorder,
    RunStore,
    Thresholds,
    canonical_json,
    diff_against_history,
    diff_runs,
    higher_is_better,
    load_record,
    payload_hash,
    render_diff,
    render_trend_json,
    render_trend_markdown,
    sparkline,
    trend_series,
    utc_timestamp,
)


def make_record(metrics, label="E2", kind="experiment", epoch=1000.0):
    record = RunRecord(
        kind=kind, label=label, scale="tiny", metrics=dict(metrics)
    )
    record.timestamp = utc_timestamp(epoch)
    record.git = {"sha": "f" * 40, "dirty": False}
    return record.seal()


class TestRecord:
    def test_run_id_is_payload_hash_prefix(self):
        record = make_record({"E2.crc.mpki": 1.5})
        assert record.run_id == payload_hash(record.payload())[:12]

    def test_envelope_excluded_from_hash(self):
        a = make_record({"E2.crc.mpki": 1.5}, epoch=1000.0)
        b = make_record({"E2.crc.mpki": 1.5}, epoch=2000.0)
        b.wall_seconds = 99.0
        b.telemetry = {"counters": {"sim.branches": 7}}
        assert a.timestamp != b.timestamp
        assert a.content_hash() == b.content_hash()
        assert a.run_id == b.run_id

    def test_payload_changes_hash(self):
        a = make_record({"E2.crc.mpki": 1.5})
        b = make_record({"E2.crc.mpki": 1.6})
        assert a.run_id != b.run_id

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == \
            canonical_json({"a": 2, "b": 1})

    def test_round_trip(self):
        record = make_record({"E2.crc.mpki": 1.5})
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_version_looked_up_once_per_process(self, monkeypatch):
        """Sealing stamps the same version as before, and the package
        metadata is searched once however many records are sealed."""
        import importlib.metadata

        from repro import repro_version

        expected = repro_version.__wrapped__()
        lookup = importlib.metadata.version
        calls = []

        def counting(name):
            calls.append(name)
            return lookup(name)

        monkeypatch.setattr(importlib.metadata, "version", counting)
        repro_version.cache_clear()
        try:
            versions = [
                make_record({"E2.crc.mpki": float(i)}).version
                for i in range(3)
            ]
            assert repro_version() == expected
        finally:
            repro_version.cache_clear()
        assert versions == [expected] * 3
        assert calls == ["repro"]

    def test_from_dict_rejects_unknown_schema(self):
        document = make_record({}).to_dict()
        document["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_dict(document)

    def test_recorder_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            RunRecorder("frobnicate", "x")


class TestStore:
    def test_add_and_list(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        for i, rate in enumerate([0.10, 0.11]):
            store.add(make_record({"m.rate": rate}, epoch=1000.0 + i))
        records = store.records()
        assert [r.metrics["m.rate"] for r in records] == [0.10, 0.11]

    def test_resolve_head_and_offsets(self, tmp_path):
        store = RunStore(tmp_path)
        for i in range(3):
            store.add(make_record({"m.i": float(i)}, epoch=1000.0 + i))
        assert store.resolve("HEAD").metrics["m.i"] == 2.0
        assert store.resolve("HEAD~0").metrics["m.i"] == 2.0
        assert store.resolve("HEAD~2").metrics["m.i"] == 0.0
        with pytest.raises(KeyError, match="3 matching"):
            store.resolve("HEAD~3")
        with pytest.raises(KeyError, match="offset"):
            store.resolve("HEAD~x")

    def test_resolve_run_id_prefix_and_file(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        path = store.add(make_record({"m.rate": 0.5}))
        record = store.resolve("HEAD")
        assert store.resolve(record.run_id[:6]).run_id == record.run_id
        assert load_record(path).run_id == record.run_id
        assert store.resolve(str(path)).run_id == record.run_id
        with pytest.raises(KeyError, match="no stored run"):
            store.resolve("ffffffffffff")

    def test_kind_label_filters(self, tmp_path):
        store = RunStore(tmp_path)
        store.add(make_record({"a": 1.0}, label="E2", epoch=1000.0))
        store.add(make_record({"b": 2.0}, label="E3", epoch=1001.0))
        assert len(store.records(label="E2")) == 1
        assert store.resolve("HEAD", label="E2").metrics == {"a": 1.0}

    def test_tampered_record_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        path = store.add(make_record({"m.rate": 0.5}))
        document = json.loads(path.read_text())
        document["metrics"]["m.rate"] = 0.001  # juice the numbers
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="content hash"):
            load_record(path)

    def test_gc_drops_oldest(self, tmp_path):
        store = RunStore(tmp_path)
        for i in range(5):
            store.add(make_record({"m.i": float(i)}, epoch=1000.0 + i))
        would = store.gc(keep=2, dry_run=True)
        assert len(would) == 3
        assert len(store.paths()) == 5  # dry run removed nothing
        removed = store.gc(keep=2)
        assert [p.name for p in removed] == [p.name for p in would]
        survivors = [r.metrics["m.i"] for r in store.records()]
        assert survivors == [3.0, 4.0]


class TestRunIdLookup:
    """``paths_for``/``contains``/``find`` match run ids on file names."""

    def test_dot_files_are_never_returned(self, tmp_path):
        store = RunStore(tmp_path)
        record = make_record({"m.rate": 0.5})
        path = store.add(record)
        run_id = record.run_id
        (tmp_path / f".tmp-abc-{run_id}.json").write_text("{}")
        (tmp_path / ".lock").write_text("")
        (tmp_path / f".lock-{run_id}.json").write_text("")
        assert store.paths_for(run_id) == [path]
        assert store.find(run_id).run_id == run_id

    def test_duplicates_come_back_oldest_first(self, tmp_path):
        store = RunStore(tmp_path)
        newer = store.add(make_record({"m.rate": 0.5}, epoch=2000.0))
        older = store.add(make_record({"m.rate": 0.5}, epoch=1000.0))
        run_id = load_record(newer).run_id
        assert store.paths_for(run_id) == [older, newer]
        assert store.find(run_id).timestamp == utc_timestamp(2000.0)
        assert store.contains(run_id)

    def test_run_id_prefix_or_suffix_does_not_match(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.resolve(
            str(store.add(make_record({"m.rate": 0.5})))
        ).run_id
        for partial in (run_id[:-1], run_id[1:], run_id + "0",
                        "0" + run_id, ""):
            assert store.paths_for(partial) == []
            assert not store.contains(partial)
            assert store.find(partial) is None

    def test_missing_root_holds_nothing(self, tmp_path):
        store = RunStore(tmp_path / "absent")
        assert store.paths_for("0123456789ab") == []
        assert not store.contains("0123456789ab")
        assert store.find("0123456789ab") is None


class TestDiff:
    def test_identical_runs_ok(self):
        a = make_record({"m.misprediction_rate": 0.10, "m.mpki": 5.0})
        diff = diff_runs(a, a)
        assert diff.ok
        assert diff.regressions == []
        assert "no regressions" in render_diff(diff)

    def test_regression_named_in_report(self):
        base = make_record({"m.misprediction_rate": 0.100})
        cur = make_record({"m.misprediction_rate": 0.110})
        diff = diff_runs(cur, base)
        assert not diff.ok
        assert [d.name for d in diff.regressions] == \
            ["m.misprediction_rate"]
        report = render_diff(diff)
        assert "FAIL" in report
        assert "m.misprediction_rate" in report
        assert "REGRESSION" in report

    def test_improvement_never_gates(self):
        base = make_record({"m.misprediction_rate": 0.110})
        cur = make_record({"m.misprediction_rate": 0.100})
        assert diff_runs(cur, base).ok

    def test_higher_is_better_direction(self):
        assert higher_is_better("E9.crc.squash_accuracy")
        assert higher_is_better("sweep.throughput")
        assert not higher_is_better("E2.crc.misprediction_rate")
        base = make_record({"m.squash_coverage": 0.50})
        cur = make_record({"m.squash_coverage": 0.40})
        diff = diff_runs(cur, base)
        assert not diff.ok  # coverage *dropping* is the regression

    def test_both_thresholds_must_trip(self):
        base = make_record({"m.mpki": 10.0})
        # +1% relative: over the absolute bound, under the 2% relative.
        assert diff_runs(make_record({"m.mpki": 10.1}), base).ok
        # tiny absolute move on a tiny baseline: relative huge, abs not.
        tiny = make_record({"m.rate": 0.0001})
        assert diff_runs(make_record({"m.rate": 0.0003}), tiny).ok
        assert not diff_runs(
            make_record({"m.mpki": 10.1}), base,
            Thresholds(absolute=0.05, relative=0.005),
        ).ok

    def test_zero_baseline_uses_absolute_only(self):
        base = make_record({"m.mpki": 0.0})
        assert diff_runs(make_record({"m.mpki": 0.0004}), base).ok
        assert not diff_runs(make_record({"m.mpki": 0.1}), base).ok

    def test_new_and_disappeared_metrics_reported_not_gated(self):
        base = make_record({"m.old": 1.0})
        cur = make_record({"m.new": 1.0})
        diff = diff_runs(cur, base)
        assert diff.ok
        report = render_diff(diff)
        assert "new metric" in report
        assert "metric disappeared" in report

    def test_to_dict_deterministic(self):
        base = make_record({"m.a": 1.0, "m.b": 2.0})
        cur = make_record({"m.a": 1.5, "m.b": 2.0})
        payload = diff_runs(cur, base).to_dict()
        assert payload["mode"] == "pairwise"
        assert [d["metric"] for d in payload["deltas"]] == ["m.a"]
        assert json.dumps(payload)  # JSON-serialisable


class TestRollingDiff:
    def history(self, values):
        return [
            make_record({"m.misprediction_rate": v}, epoch=1000.0 + i)
            for i, v in enumerate(values)
        ]

    def test_within_noise_ok(self):
        history = self.history([0.100, 0.102, 0.098, 0.101])
        cur = make_record({"m.misprediction_rate": 0.1015})
        assert diff_against_history(cur, history).ok

    def test_beyond_sigma_flags(self):
        history = self.history([0.100, 0.102, 0.098, 0.101])
        cur = make_record({"m.misprediction_rate": 0.140})
        diff = diff_against_history(cur, history)
        assert not diff.ok
        assert diff.regressions[0].name == "m.misprediction_rate"
        assert diff.mode == "rolling"

    def test_absolute_floor_guards_zero_variance(self):
        # Deterministic series: sigma is 0, so *any* movement clears
        # k*sigma — the floor keeps sub-threshold wobble quiet.
        history = self.history([0.100, 0.100, 0.100])
        cur = make_record({"m.misprediction_rate": 0.1001})
        assert diff_against_history(cur, history).ok
        worse = make_record({"m.misprediction_rate": 0.200})
        assert not diff_against_history(worse, history).ok

    def test_window_limits_seed(self):
        history = self.history([9.0] * 5 + [0.100, 0.102, 0.098])
        cur = make_record({"m.misprediction_rate": 0.101})
        diff = diff_against_history(cur, history, window=3)
        assert diff.ok
        assert diff.baseline_id == "rolling(3)"

    def test_noise_model_population_sigma(self):
        model = NoiseModel.from_records(self.history([1.0, 3.0]))
        noise = model.stats["m.misprediction_rate"]
        assert noise == MetricNoise(mean=2.0, sigma=1.0, samples=2)


class TestTrend:
    def test_sparkline_levels(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▄▄"
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_series_align_with_none_slots(self):
        records = [
            make_record({"m.a": 1.0}, epoch=1000.0),
            make_record({"m.a": 2.0, "m.b": 5.0}, epoch=1001.0),
        ]
        series = trend_series(records)
        assert series == {"m.a": [1.0, 2.0], "m.b": [None, 5.0]}
        assert trend_series(records, pattern="*.b") == \
            {"m.b": [None, 5.0]}

    def test_markdown_render(self):
        records = [
            make_record({"m.mpki": 5.0}, epoch=1000.0),
            make_record({"m.mpki": 4.0}, epoch=1001.0),
        ]
        text = render_trend_markdown(records)
        assert "| m.mpki | 5 | 4 | -20.00% | 4 | 5 |" in text
        assert render_trend_markdown([]).strip().endswith(
            "(no runs in the store)"
        )

    def test_json_render(self):
        records = [make_record({"m.mpki": 5.0})]
        payload = json.loads(render_trend_json(records))
        assert payload["metrics"] == {"m.mpki": [5.0]}
        assert payload["runs"][0]["run_id"] == records[0].run_id

    def test_telemetry_report_integration(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        store.add(make_record({"m.mpki": 5.0}, epoch=1000.0))
        store.add(make_record({"m.mpki": 4.0}, epoch=1001.0))
        trend = ["history", "trend", "--store", str(tmp_path)]
        assert main(trend) == 0
        text = capsys.readouterr().out
        assert "# Run-history trends" in text
        assert "m.mpki" in text
        assert main([*trend, "--last", "1"]) == 0
        assert capsys.readouterr().out.count("▄") == 1


class TestRecordingDeterminism:
    """Satellite: serial and 4-worker recordings hash identically."""

    ARGS = ("run", "e02", "--scale", "tiny", "--workloads", "crc,qsort",
            "--fast", "--record")

    def test_worker_count_does_not_change_payload(self, tmp_path,
                                                  capsys):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main([*self.ARGS, "--store", str(serial)]) == 0
        assert main([*self.ARGS, "--workers", "4",
                     "--store", str(parallel)]) == 0
        capsys.readouterr()
        a = RunStore(serial).resolve("HEAD")
        b = RunStore(parallel).resolve("HEAD")
        assert canonical_json(a.payload()) == canonical_json(b.payload())
        assert a.run_id == b.run_id
        # Envelopes legitimately differ (timestamps, wall time) — only
        # the deterministic payload is the identity.
        assert a.timestamp != b.timestamp or a.wall_seconds != \
            b.wall_seconds or a.to_dict() == b.to_dict()


class TestHistoryCli:
    ARGS = ("run", "e02", "--scale", "tiny", "--workloads", "crc",
            "--fast", "--record")

    @pytest.fixture()
    def store(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert main([*self.ARGS, "--store", str(root)]) == 0
        capsys.readouterr()
        return root

    def test_record_then_list_and_show(self, store, capsys):
        assert main(["history", "list", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        record = RunStore(store).resolve("HEAD")
        assert record.run_id in out
        assert "E2" in out
        assert main(["history", "show", "HEAD",
                     "--store", str(store)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == record.run_id
        assert shown["schema"] == 1
        assert shown["version"]
        assert "sha" in shown["git"]

    def test_show_bad_selector_exits_2(self, store, capsys):
        assert main(["history", "show", "HEAD~9",
                     "--store", str(store)]) == 2

    def test_diff_identical_recordings_exit_0(self, store, capsys):
        assert main([*self.ARGS, "--store", str(store)]) == 0
        capsys.readouterr()
        code = main(["history", "diff", "HEAD", "HEAD~1",
                     "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no regressions" in out

    def test_seeded_fault_fails_diff_naming_metric(self, store, capsys):
        # Seed a fault: republish the last run with one misprediction
        # rate inflated, as if a predictor change had regressed it.
        # (E2's columns are per-predictor misprediction rates.)
        runstore = RunStore(store)
        faulty = runstore.resolve("HEAD")
        name = "E2.crc.gshare_1024"
        assert name in faulty.metrics
        faulty.metrics[name] *= 1.5
        faulty.run_id = ""
        faulty.timestamp = ""
        runstore.add(faulty)
        code = main(["history", "diff", "HEAD", "HEAD~1",
                     "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert name in out

    def test_diff_against_committed_golden_file(self, store, capsys):
        record = RunStore(store).resolve("HEAD")
        golden = store.parent / "golden.json"
        golden.write_text(json.dumps(record.to_dict()))
        assert main(["history", "diff", "HEAD", "--baseline",
                     str(golden), "--store", str(store)]) == 0

    def test_rolling_diff_needs_history(self, store, capsys):
        assert main(["history", "diff", "HEAD",
                     "--store", str(store)]) == 2
        assert "noise model" in capsys.readouterr().err
        assert main([*self.ARGS, "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["history", "diff", "HEAD",
                     "--store", str(store)]) == 0

    def test_diff_json_output(self, store, capsys):
        assert main([*self.ARGS, "--store", str(store)]) == 0
        capsys.readouterr()
        code = main(["history", "diff", "HEAD", "HEAD~1", "--json",
                     "--store", str(store)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["regressions"] == []

    def test_trend_and_gc(self, store, capsys):
        assert main([*self.ARGS, "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["history", "trend", "--store", str(store),
                     "--metric", "E2.crc.*"]) == 0
        out = capsys.readouterr().out
        assert "# Run-history trends" in out
        assert "E2.crc" in out
        assert main(["history", "gc", "--keep", "1", "--dry-run",
                     "--store", str(store)]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert len(RunStore(store).paths()) == 2
        assert main(["history", "gc", "--keep", "1",
                     "--store", str(store)]) == 0
        assert len(RunStore(store).paths()) == 1
