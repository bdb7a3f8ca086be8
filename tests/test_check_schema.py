"""``tools/check_schema.py``: one checker for the harness's artifacts.

For each of the seven formats (RunRecords, profile reports, profile
event streams, trace spans, Prometheus expositions, lint reports and
analyze payloads) a real artifact validates, and each check rejects a
drifted copy with its own message.  The writer tables the checker
imports are pinned to what the writers really emit, so a renamed or
retyped field fails here before it fails CI.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.runstore import RunStore
from repro.runstore.record import GIT_FIELDS, git_state
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.telemetry.tracing import (
    SPAN_FIELDS,
    SPAN_OPTIONAL_FIELDS,
    TraceContext,
    make_record,
)

REPO = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_schema", REPO / "tools" / "check_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def cli_json(*argv):
    """Run the CLI in-process and parse what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def write(tmp_path, name, document):
    """``document`` as a file: JSON, JSONL (a list of records) or text."""
    path = tmp_path / name
    if isinstance(document, str):
        path.write_text(document)
    elif name.endswith(".jsonl"):
        path.write_text("".join(json.dumps(r) + "\n" for r in document))
    else:
        path.write_text(json.dumps(document))
    return str(path)


def accepts(capsys, *argv):
    code = tool.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    return captured.out


def rejects(capsys, message, *argv):
    code = tool.main(list(argv))
    err = capsys.readouterr().err
    assert code == 1
    assert message in err, err


def assert_pinned(record, required, optional=None):
    """``record`` holds every required field, nothing unlisted, and
    each value has its table's JSON type."""
    optional = optional or {}
    assert set(required) <= set(record) <= set(required) | set(optional)
    for key, value in record.items():
        assert tool.is_type(value, {**optional, **required}[key]), key


# -- real artifacts ----------------------------------------------------------


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    assert main(["run", "e02", "--scale", "tiny", "--workloads", "crc",
                 "--fast", "--record", "--store", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def record(store):
    (path,) = RunStore(store).paths()
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    """``repro profile`` reports and event streams at rates 1 and 7."""
    root = tmp_path_factory.mktemp("profile")
    out = {}
    for rate in (1, 7):
        events = root / f"events-{rate}.jsonl"
        argv = ["profile", "crc", "--scale", "tiny", "--sfp", "--pgu",
                "--rate", str(rate)]
        out[rate] = cli_json(*argv, "--json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--events", str(events)]) == 0
        out[f"events-{rate}"] = events
    return out


@pytest.fixture(scope="module")
def cold_spans(tmp_path_factory):
    """A span file from a trace build into an empty trace cache."""
    root = tmp_path_factory.mktemp("cold")
    path = root / "spans.jsonl"
    env = dict(os.environ, REPRO_TRACE_CACHE=str(root / "cache"),
               PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "simulate", "crc", "--scale",
         "tiny", "--trace", str(path)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    return path


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """A traced request to a daemon with one pool worker, plus the
    daemon's Prometheus exposition."""
    root = tmp_path_factory.mktemp("daemon")
    spans = root / "serve-trace.jsonl"
    config = ServeConfig(port=0, workers=1, store=str(root / "runs"),
                         tracing=True, trace_log=str(spans))
    with ServerThread(config) as handle:
        with ServeClient(port=handle.port, timeout=300.0) as client:
            status, _reply = client.simulate(workload="crc", scale="tiny")
            assert status == 200
            status, body = client.request("GET", "/v1/metrics?format=prom")
            assert status == 200
    prom = root / "serve-metrics.prom"
    prom.write_text(body["raw"])
    return spans, prom


@pytest.fixture(scope="module")
def lint():
    return cli_json("lint", "crc", "--json")


@pytest.fixture(scope="module")
def analyze():
    return {
        "plain": cli_json("analyze", "crc", "--json"),
        "h2p": cli_json("analyze", "crc", "--h2p", "--json"),
    }


# -- RunRecords ---------------------------------------------------------------


class TestRecords:
    def test_accepts_store_and_golden(self, capsys, store):
        golden = REPO / "docs/results/baseline-run.json"
        assert "sim_core" not in json.loads(golden.read_text())
        out = accepts(capsys, "--store", str(store), str(golden))
        assert out.count(": ok") == 2

    @pytest.mark.parametrize("mutate,message", [
        (lambda r: r.pop("label"), "missing key 'label'"),
        (lambda r: r.update(wall_seconds="slow"),
         "key 'wall_seconds' is str, expected float"),
        (lambda r: r.update(schema=True), "key 'schema' is bool"),
        (lambda r: r.update(run_id="0" * 12),
         "does not match payload content hash"),
        (lambda r: r.update(schema=2), "schema 2 != 1"),
        (lambda r: r.update(kind="nightly"), "unknown kind 'nightly'"),
        (lambda r: r["metrics"].update(bogus="1.5"),
         "metric 'bogus' is str, expected a number"),
        (lambda r: r["metrics"].update(bogus=True),
         "metric 'bogus' is bool"),
        (lambda r: r["git"].pop("dirty"), "git: missing key 'dirty'"),
        (lambda r: r.update(sim_core="gpu"), "unknown sim_core 'gpu'"),
        (lambda r: r.update(sim_core=1), "key 'sim_core' is int"),
    ], ids=[
        "missing-key", "wrong-type", "bool-as-int", "run-id-hash",
        "schema-version", "kind", "metric-type", "metric-bool",
        "git-envelope", "sim-core-value", "sim-core-type",
    ])
    def test_rejects(self, capsys, tmp_path, record, mutate, message):
        document = json.loads(json.dumps(record))
        mutate(document)
        rejects(capsys, message, write(tmp_path, "r.json", document))


# -- profile reports and event streams ----------------------------------------


class TestProfile:
    def test_accepts_reports_and_events_at_rates_1_and_7(
            self, capsys, tmp_path, profile):
        argv = []
        for rate in (1, 7):
            argv += ["--report", write(tmp_path, f"p{rate}.json",
                                       profile[rate]),
                     "--events", str(profile[f"events-{rate}"])]
        assert accepts(capsys, *argv).count(": ok") == 4

    @pytest.mark.parametrize("mutate,message", [
        (lambda p: p.pop("simulated"), "missing key 'simulated'"),
        (lambda p: p["attribution"].update(rate="1"),
         "attribution: key 'rate' is str, expected int"),
        (lambda p: p["attribution"].update(seed=True),
         "attribution: key 'seed' is bool"),
        (lambda p: p["attribution"].update(schema=9),
         "report schema 9 != 1"),
        (lambda p: p["attribution"]["totals"].update(static_sites=99),
         "does not survive the from_dict round trip"),
        (lambda p: p["simulated"].update(squashed=-1),
         "rate-1 reconciliation failed: totals['filtered']"),
        (lambda p: p["attribution"]["sites"][0].update(mispredictions=-9),
         "per-site mispredictions sum to"),
    ], ids=[
        "missing-key", "wrong-type", "bool-as-int", "schema-version",
        "round-trip", "rate-1-reconciliation", "per-site-sum",
    ])
    def test_rejects_report(self, capsys, tmp_path, profile, mutate,
                            message):
        report = json.loads(json.dumps(profile[1]))
        mutate(report)
        rejects(capsys, message,
                "--report", write(tmp_path, "p.json", report))

    def test_reconciliation_is_rate_1_only(self, capsys, tmp_path,
                                            profile):
        report = json.loads(json.dumps(profile[7]))
        report["simulated"]["squashed"] = -1
        accepts(capsys, "--report", write(tmp_path, "p.json", report))

    @pytest.mark.parametrize("mutate,message", [
        (lambda e: e.pop(0), "first record is not a profile-header"),
        (lambda e: e[0].update(schema=9), "event schema 9 != 1"),
        (lambda e: e[0].pop("rate"), "header: missing key 'rate'"),
        (lambda e: e[1].update(extra=1), "unknown fields ['extra']"),
        (lambda e: e[1].pop("seq"), "line 2: missing key 'seq'"),
        (lambda e: e[1].update(pc="9"), "key 'pc' is str, expected int"),
        (lambda e: e[1].update(pc=True), "key 'pc' is bool, expected int"),
        (lambda e: e[1].update(taken=1),
         "key 'taken' is int, expected bool"),
        (lambda e: e.__delitem__(slice(1, None)),
         "no prediction records found"),
    ], ids=[
        "header-first", "schema-version", "header-key", "unknown-field",
        "missing-key", "wrong-type", "bool-as-int", "int-as-bool",
        "no-prediction",
    ])
    def test_rejects_events(self, capsys, tmp_path, profile, mutate,
                            message):
        events = read_jsonl(profile["events-1"])
        mutate(events)
        rejects(capsys, message,
                "--events", write(tmp_path, "e.jsonl", events))


# -- trace spans and Prometheus -----------------------------------------------


def _largest_trace(spans):
    ids = [s["trace_id"] for s in spans]
    return max(set(ids), key=ids.count)


def _child(spans):
    """Index of a parent-linked span in the largest trace."""
    trace = _largest_trace(spans)
    return next(i for i, s in enumerate(spans)
                if s["trace_id"] == trace and s["parent_id"])


def _root(spans):
    trace = _largest_trace(spans)
    return next(i for i, s in enumerate(spans)
                if s["trace_id"] == trace and not s["parent_id"])


class TestSpans:
    def test_accepts_a_cold_trace_build(self, capsys, cold_spans):
        """Span records carry ``attrs`` only when the span has some: a
        cold build's compile/traced-run/cache-publish spans have none."""
        spans = read_jsonl(cold_spans)
        names = {span["name"] for span in spans}
        assert {"compile", "traced-run", "cache-publish"} <= names
        assert any("attrs" not in span for span in spans)
        accepts(capsys, "--spans", str(cold_spans))

    def test_accepts_the_daemon_trace_and_exposition(self, capsys, daemon):
        spans, prom = daemon
        accepts(capsys, "--spans", str(spans), "--min-spans", "4",
                "--min-pids", "2", "--prom", str(prom))

    @pytest.mark.parametrize("mutate,message", [
        (lambda s: s[0].pop("pid"), "span 0: missing key 'pid'"),
        (lambda s: s[0].update(name=5), "key 'name' is int, expected str"),
        (lambda s: s[0].update(pid=True), "key 'pid' is bool"),
        (lambda s: s[0].update(attrs=[]), "key 'attrs' is list"),
        (lambda s: s[0].update(trace_id="xyz"),
         "trace_id is not 32 hex chars"),
        (lambda s: s[0].update(span_id="A" * 16),
         "span_id is not 16 hex chars"),
        (lambda s: s[_child(s)].update(parent_id="g" * 16),
         "parent_id is not 16 hex chars"),
        (lambda s: s[_child(s)].update(parent_id=s[_child(s)]["span_id"]),
         "span is its own parent"),
        (lambda s: s[0].update(seconds=-1.0), "negative seconds"),
        (lambda s: s[0].update(start=-1.0), "negative start"),
        (lambda s: s.append(dict(s[0])), "duplicate span ids"),
        (lambda s: s[_root(s)].update(parent_id=s[_child(s)]["span_id"]),
         "no root span"),
        (lambda s: s[_child(s)].update(parent_id="f" * 16),
         "has unknown parent ffffffffffffffff"),
        (lambda s: s.clear(), "no span records"),
    ], ids=[
        "missing-key", "wrong-type", "bool-as-int", "attrs-type",
        "trace-id-hex", "span-id-hex", "parent-id-hex", "own-parent",
        "negative-seconds", "negative-start", "duplicate-id", "no-root",
        "dangling-parent", "no-spans",
    ])
    def test_rejects(self, capsys, tmp_path, cold_spans, mutate, message):
        spans = read_jsonl(cold_spans)
        mutate(spans)
        rejects(capsys, message,
                "--spans", write(tmp_path, "s.jsonl", spans))

    def test_rejects_too_few_spans_and_processes(self, capsys,
                                                 cold_spans):
        rejects(capsys, "need >= 99", "--spans", str(cold_spans),
                "--min-spans", "99")
        rejects(capsys, "process(es), need >= 2", "--spans",
                str(cold_spans), "--min-pids", "2")

    def test_rejects_too_few_linked_spans(self, capsys, tmp_path,
                                          cold_spans):
        spans = read_jsonl(cold_spans)
        trace = _largest_trace(spans)
        size = sum(1 for s in spans if s["trace_id"] == trace)
        spans[_child(spans)]["parent_id"] = ""  # a second root
        rejects(capsys, "parent-linked span(s)",
                "--spans", write(tmp_path, "s.jsonl", spans),
                "--min-spans", str(size))


class TestProm:
    @pytest.mark.parametrize("mutate,message", [
        (lambda t: t + "not a sample\n", "unparsable sample"),
        (lambda t: "".join(line for line in t.splitlines(True)
                           if 'quantile="0.99"' not in line),
         "quantile series"),
        (lambda t: t.rstrip("\n"), "must end with a newline"),
        (lambda t: "# nothing here\n", "no samples"),
    ], ids=[
        "grammar", "quantile-series", "final-newline", "no-samples",
    ])
    def test_rejects_prom(self, capsys, tmp_path, daemon, mutate,
                          message):
        text = mutate(daemon[1].read_text())
        rejects(capsys, message, "--prom", write(tmp_path, "m.prom", text))


# -- lint and analyze ---------------------------------------------------------


class TestLintAndAnalyze:
    def test_accepts_lint_and_analyze(self, capsys, tmp_path, lint,
                                      analyze):
        out = accepts(
            capsys, "--lint", write(tmp_path, "lint.json", lint),
            "--analyze", write(tmp_path, "a.json", analyze["plain"]),
            "--analyze", write(tmp_path, "h.json", analyze["h2p"]),
        )
        assert out.count(": ok") == 3

    @pytest.mark.parametrize("mutate,message", [
        (lambda r: r.pop("totals"), "missing key 'totals'"),
        (lambda r: r["programs"][0]["diagnostics"][0].pop("message"),
         "missing key 'message'"),
        (lambda r: r["programs"][0]["diagnostics"][0].update(index="0"),
         "key 'index' is str, expected int"),
        (lambda r: r["programs"][0]["diagnostics"][0].update(
            abs_index=False), "key 'abs_index' is bool"),
        (lambda r: r["programs"][0]["diagnostics"][0].update(rule="X999"),
         "unregistered rule id 'X999'"),
        (lambda r: r["programs"][0]["diagnostics"][0].update(
            severity="fatal"), "unknown severity 'fatal'"),
        (lambda r: r["programs"][0]["counts"].update(info=99),
         "do not match diagnostics"),
        (lambda r: r["totals"].update(error=1),
         "do not match per-report counts"),
    ], ids=[
        "missing-key", "diagnostic-key", "wrong-type", "bool-as-int",
        "rule-id", "severity", "program-counts", "total-counts",
    ])
    def test_rejects_lint(self, capsys, tmp_path, lint, mutate, message):
        report = json.loads(json.dumps(lint))
        mutate(report)
        rejects(capsys, message,
                "--lint", write(tmp_path, "l.json", report))

    @pytest.mark.parametrize("mutate,message", [
        (lambda a: a["summary"].pop("verdicts"),
         "summary: missing key 'verdicts'"),
        (lambda a: a.update(regions=[]), "key 'regions' is list"),
        (lambda a: a["functions"][0]["branches"][0].update(pc="9"),
         "key 'pc' is str, expected int"),
        (lambda a: a["functions"][0]["branches"][0].update(region=True),
         "key 'region' is bool, expected int"),
        (lambda a: a.update(schema=9), "analyze schema 9 != 1"),
        (lambda a: a["summary"]["verdicts"].pop("never"), "verdict keys"),
        (lambda a: a["summary"]["verdicts"].update(
            always=a["summary"]["verdicts"]["always"] + 1),
         "verdict counts sum to"),
        (lambda a: a["functions"][0]["branches"][0].update(
            sfp_verdict="maybe"), "unknown verdict 'maybe'"),
        (lambda a: a["summary"].update(branches=99),
         "summary says 99 branches"),
    ], ids=[
        "missing-key", "wrong-type", "branch-type", "bool-as-int",
        "schema-version", "verdict-keys", "verdict-sums",
        "unknown-verdict", "branch-count",
    ])
    def test_rejects_analyze(self, capsys, tmp_path, analyze, mutate,
                             message):
        payload = json.loads(json.dumps(analyze["plain"]))
        mutate(payload)
        rejects(capsys, message,
                "--analyze", write(tmp_path, "a.json", payload))


# -- every problem is reported -----------------------------------------------


class TestReporting:
    def test_every_problem_in_every_file_is_printed(
            self, capsys, tmp_path, record, lint):
        bad = json.loads(json.dumps(record))
        bad.update(kind="nightly", sim_core="gpu")
        good = write(tmp_path, "good.json", record)
        code = tool.main([write(tmp_path, "bad.json", bad), good,
                          "--lint", write(tmp_path, "l.json", lint)])
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown kind" in captured.err
        assert "unknown sim_core" in captured.err
        assert captured.out.count(": ok") == 2
        assert "bad.json: ok" not in captured.out

    def test_unreadable_file_is_a_problem(self, capsys, tmp_path):
        rejects(capsys, "cannot check: FileNotFoundError",
                str(tmp_path / "missing.json"))
        rejects(capsys, "cannot check: JSONDecodeError",
                "--events", write(tmp_path, "e.jsonl", "{not json\n"))

    def test_nothing_to_check_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            tool.main([])
        assert excinfo.value.code == 2


# -- writer tables ------------------------------------------------------------


class TestWriterTables:
    """Each table the checker imports matches what its writer emits."""

    def test_run_record(self, record):
        assert_pinned(record, tool.RECORD_FIELDS, tool.RECORD_OPTIONAL)
        assert_pinned(record["git"], GIT_FIELDS)
        assert_pinned(git_state(), GIT_FIELDS)

    def test_span_record(self):
        ctx = TraceContext(trace_id="a" * 32, span_id="b" * 16)
        bare = make_record(ctx, "compile", 1.0, 0.5)
        assert set(bare) == set(SPAN_FIELDS)
        assert_pinned(bare, SPAN_FIELDS)
        rich = make_record(ctx, "sim.driver", 1.0, 0.5, {"core": "fast"})
        assert set(rich) == set(SPAN_FIELDS) | set(SPAN_OPTIONAL_FIELDS)
        assert_pinned(rich, SPAN_FIELDS, SPAN_OPTIONAL_FIELDS)

    def test_profile_report_and_header(self, profile):
        for rate in (1, 7):
            assert_pinned(profile[rate], tool.PROFILE_REPORT_FIELDS)
            assert_pinned(profile[rate]["attribution"],
                          tool.ATTRIBUTION_FIELDS)
            header = read_jsonl(profile[f"events-{rate}"])[0]
            assert_pinned(header, tool.fields_of(tool.HEADER))

    def test_lint_report(self, lint):
        assert_pinned(lint, tool.LINT_REPORT_FIELDS)
        for report in lint["programs"]:
            assert_pinned(report, tool.PROGRAM_FIELDS)
            for diagnostic in report["diagnostics"]:
                assert_pinned(diagnostic, tool.DIAGNOSTIC_FIELDS,
                              {"instruction": str})

    def test_analyze_payload(self, analyze):
        assert_pinned(analyze["plain"], tool.ANALYZE_PAYLOAD_FIELDS)
        assert_pinned(analyze["h2p"], tool.ANALYZE_PAYLOAD_FIELDS,
                      {"h2p": list})
        assert_pinned(analyze["plain"]["summary"], tool.SUMMARY_FIELDS)
        for function in analyze["plain"]["functions"]:
            assert_pinned(function, tool.FUNCTION_FIELDS)
            for branch in function["branches"]:
                assert_pinned(branch, tool.BRANCH_FIELDS)
