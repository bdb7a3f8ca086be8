"""Tests for the telemetry report renderer and its CLI surface.

End-to-end contract (the acceptance path): ``repro run e02 --workers N
--metrics out.jsonl`` writes valid JSONL whose final ``metrics``
snapshot carries the merged counters, those counters are identical
between a serial and a multi-worker run, and ``repro telemetry-report``
renders the file into tables.
"""

import json

import pytest

from repro.cli import main
from repro.telemetry import read_events, summarize_events


class TestSummarize:
    def test_empty_stream(self):
        assert summarize_events([]) == "(no telemetry events)"

    def test_counters_gauges_spans_tables(self):
        events = [
            {"event": "header", "schema": 1, "command": "run"},
            {"event": "metrics",
             "counters": {"sim.branches": 42},
             "gauges": {"sweep.workers": 4},
             "histograms": {
                 "sweep.point_seconds": {
                     "buckets": [1.0], "counts": [2, 0],
                     "total": 0.5, "count": 2,
                 },
                 "span.sweep.seconds": {
                     "buckets": [1.0], "counts": [1, 1],
                     "total": 2.0, "count": 2,
                     "p50": 0.5, "p95": 1.5, "p99": 1.5,
                 },
             }},
        ]
        text = summarize_events(events)
        assert "counters" in text
        assert "sim.branches" in text
        assert "42" in text
        assert "sweep.workers" in text
        assert "sweep.point_seconds" in text
        # A span is one row of the histograms table: count, total,
        # mean and percentiles; there is no separate spans table.
        (row,) = [line for line in text.splitlines()
                  if "span.sweep.seconds" in line]
        assert row.split()[1:] == [
            "2", "2.0000", "1.0000", "0.5000", "1.5000", "1.5000",
        ]
        assert "spans" not in text

    def test_last_metrics_snapshot_wins(self):
        events = [
            {"event": "metrics", "counters": {"c": 1}},
            {"event": "metrics", "counters": {"c": 99}},
        ]
        assert "99" in summarize_events(events)


@pytest.fixture()
def run_cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    return invoke


class TestMetricsCli:
    def test_run_alias_and_padded_id(self, run_cli):
        code, out = run_cli(
            "run", "e03", "--scale", "tiny", "--workloads", "crc"
        )
        assert code == 0
        assert "[E3]" in out

    def test_metrics_flag_emits_valid_jsonl(self, run_cli, tmp_path):
        path = tmp_path / "m.jsonl"
        code, _ = run_cli(
            "run", "e02", "--scale", "tiny", "--workloads", "crc,qsort",
            "--fast", "--metrics", str(path),
        )
        assert code == 0
        events = read_events(path)  # raises if any line is invalid
        assert events[-1]["event"] == "metrics"
        counters = events[-1]["counters"]
        assert counters["sim.branches"] > 0
        assert counters["sweep.points_completed"] == 4
        # The sink holds the header and the snapshot; span timings are
        # name-keyed histograms in it (per-point spans only when traced).
        assert [e["event"] for e in events] == ["header", "metrics"]
        histograms = events[-1]["histograms"]
        assert histograms["span.E2.seconds"]["count"] == 1
        assert histograms["span.sweep.seconds"]["count"] == 1
        assert "span.sim.driver.seconds" not in histograms
        assert not [name for name in counters if name.startswith("span.")]

    def test_serial_and_parallel_metrics_counters_identical(
            self, run_cli, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        args = ("--scale", "tiny", "--workloads", "crc,qsort", "--fast")
        # Warm the trace cache so both runs see identical hit/miss
        # traffic, then compare the full merged counter dicts.
        code, _ = run_cli("run", "e02", *args)
        assert code == 0
        code, _ = run_cli("run", "e02", *args, "--metrics", str(serial))
        assert code == 0
        code, _ = run_cli(
            "run", "e02", *args, "--workers", "4",
            "--metrics", str(parallel),
        )
        assert code == 0
        serial_counters = read_events(serial)[-1]["counters"]
        parallel_counters = read_events(parallel)[-1]["counters"]
        assert serial_counters == parallel_counters
        assert serial_counters["trace_cache.hits"] > 0
        # Warmed cache: no build counter was ever created.
        assert serial_counters.get("trace_cache.builds", 0) == 0

    def test_telemetry_report_renders_tables(self, run_cli, tmp_path):
        path = tmp_path / "m.jsonl"
        code, _ = run_cli(
            "simulate", "crc", "--scale", "tiny", "--sfp",
            "--metrics", str(path),
        )
        assert code == 0
        code, out = run_cli("telemetry-report", str(path))
        assert code == 0
        assert "counters" in out
        assert "sim.branches" in out

    def test_metrics_header_carries_version(self, run_cli, tmp_path):
        from repro import repro_version

        path = tmp_path / "m.jsonl"
        code, _ = run_cli(
            "simulate", "crc", "--scale", "tiny", "--metrics", str(path),
        )
        assert code == 0
        header = read_events(path)[0]
        assert header["event"] == "header"
        assert header["version"] == repro_version()
        assert header["command"] == "simulate"

    def test_telemetry_report_missing_file(self, run_cli, tmp_path):
        code = main(["telemetry-report", str(tmp_path / "ghost.jsonl")])
        assert code == 1

    def test_telemetry_report_all_lines_bad(self, run_cli, capsys,
                                            tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n{truncat\n")
        code = main(["telemetry-report", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "no valid telemetry events" in err

    def test_telemetry_report_skips_corrupted_lines(self, run_cli,
                                                    capsys, tmp_path):
        # A producer died mid-write: valid events, one truncated line,
        # one garbage line.  The report renders from what parsed and
        # warns about what didn't.
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"event": "metrics", "counters": {"sim.branches": 42}}\n'
            '{"event": "metrics", "coun\n'
            "!!garbage!!\n"
        )
        code = main(["telemetry-report", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "sim.branches" in captured.out
        assert "skipped 2 malformed line(s)" in captured.err

    def test_simulate_metrics_snapshot(self, run_cli, tmp_path):
        path = tmp_path / "sim.jsonl"
        code, _ = run_cli(
            "simulate", "crc", "--scale", "tiny", "--metrics", str(path),
        )
        assert code == 0
        snapshot = read_events(path)[-1]
        assert snapshot["event"] == "metrics"
        assert snapshot["counters"]["sim.runs"] == 1
        # JSONL is plain JSON per line — no trailing commas or blobs.
        for line in path.read_text().splitlines():
            json.loads(line)
