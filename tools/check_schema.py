"""Validate the harness's machine-readable artifacts against their writers.

One checker for the seven formats CI uploads: RunRecords, ``repro
profile --json`` reports and ``--events`` streams, trace-span JSONL,
Prometheus expositions, and ``repro lint --json`` / ``repro analyze
--json`` reports.  Usage::

    python tools/check_schema.py RECORD.json... [--store DIR]
    python tools/check_schema.py --report profile.json --events ev.jsonl
    python tools/check_schema.py --spans spans.jsonl \\
        --min-spans 4 --min-pids 2 --prom metrics.prom
    python tools/check_schema.py --lint lint.json --analyze analyze.json

Every table of fields and allowed values comes from the module that
writes the format: a constant beside the writer, or the writer's own
output for an empty record.  Besides fields and JSON types (a bool is
never a number), each format keeps its semantic checks.  Every problem
is printed to stderr, each valid file gets one ``ok`` line on stdout,
and the exit status is 1 if any problem was found.
"""

import argparse
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import RULES, Severity  # noqa: E402
from repro.analysis.diagnostics import Diagnostic, LintReport  # noqa: E402
from repro.analysis.predflow import (  # noqa: E402
    ANALYZE_SCHEMA_VERSION,
    BRANCH_FIELDS,
    VERDICTS,
    FunctionFacts,
    PredflowReport,
)
from repro.cli import (  # noqa: E402
    ANALYZE_FIELDS,
    LINT_REPORT_FIELDS,
    PROFILE_REPORT_FIELDS,
)
from repro.profiler import (  # noqa: E402
    EVENT_FIELDS,
    EVENT_SCHEMA_VERSION,
    REPORT_SCHEMA_VERSION,
    AttributionAggregator,
    ProfileSpec,
)
from repro.profiler.collector import header_record  # noqa: E402
from repro.runstore import (  # noqa: E402
    KINDS,
    SCHEMA_VERSION,
    RunRecord,
    RunStore,
    payload_hash,
)
from repro.runstore.record import GIT_FIELDS  # noqa: E402
from repro.sim import CORES  # noqa: E402
from repro.telemetry.prom import PROM_QUANTILES  # noqa: E402
from repro.telemetry.tracing import (  # noqa: E402
    SPAN_FIELDS,
    SPAN_OPTIONAL_FIELDS,
)


def fields_of(record: dict) -> dict:
    """The ``{field: type}`` table of one record a writer emitted."""
    return {key: type(value) for key, value in record.items()}


RECORD_FIELDS = fields_of(RunRecord(kind="", label="").to_dict())
#: Optional because the committed golden baseline predates it.
RECORD_OPTIONAL = {"sim_core": RECORD_FIELDS.pop("sim_core")}
ATTRIBUTION_FIELDS = fields_of(
    AttributionAggregator(ProfileSpec()).to_dict()
)
HEADER = header_record(ProfileSpec())
PROGRAM_FIELDS = fields_of(LintReport("").to_dict())
DIAGNOSTIC_FIELDS = fields_of(
    Diagnostic(next(iter(RULES)), "", "", 0, 0, "").to_dict()
)
_PREDFLOW = PredflowReport("", 0, [FunctionFacts("", 0, 0)]).to_dict()
ANALYZE_PAYLOAD_FIELDS = {**fields_of(_PREDFLOW), **ANALYZE_FIELDS}
SUMMARY_FIELDS = fields_of(_PREDFLOW["summary"])
FUNCTION_FIELDS = fields_of(_PREDFLOW["functions"][0])
SEVERITIES = tuple(severity.label for severity in Severity)
QUANTILES = {label for label, _key in PROM_QUANTILES}

_HEX32 = re.compile(r"[0-9a-f]{32}")
_HEX16 = re.compile(r"[0-9a-f]{16}")
#: One Prometheus text-format sample line:  name{labels} value
_PROM_SAMPLE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?P<labels>[^{}]*)\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|NaN|[+-]Inf)"
)


def load(path, jsonl=False):
    """A JSON document, or a JSONL file as ``(line, record)`` pairs."""
    text = Path(path).read_text()
    if not jsonl:
        return json.loads(text)
    return [
        (number, json.loads(line))
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


def is_type(value, kind) -> bool:
    """JSON type test: a bool is only a bool, a float any number."""
    if isinstance(value, bool) or kind is bool:
        return type(value) is kind
    return isinstance(value, (int, float) if kind is float else kind)


def need(problems, record, required, optional=None, where="") -> bool:
    """Record a problem per missing field or mistyped value in
    ``record``; true when there are none."""
    if not isinstance(record, dict):
        problems.append(f"{where}is {type(record).__name__}, "
                        "expected an object")
        return False
    before = len(problems)
    for key, kind in {**(optional or {}), **required}.items():
        if key not in record:
            if key in required:
                problems.append(f"{where}missing key {key!r}")
        elif not is_type(record[key], kind):
            problems.append(f"{where}key {key!r} is "
                            f"{type(record[key]).__name__}, expected "
                            f"{kind.__name__}")
    return len(problems) == before


def check_record(path, problems, args):
    """One RunRecord JSON file."""
    document = load(path)
    if not need(problems, document, RECORD_FIELDS, RECORD_OPTIONAL):
        return None
    if document.get("sim_core", "") not in ("",) + CORES:
        problems.append(f"unknown sim_core {document['sim_core']!r}")
    if document["kind"] not in KINDS:
        problems.append(f"unknown kind {document['kind']!r}")
    for name, value in document["metrics"].items():
        if not is_type(value, float):
            problems.append(f"metric {name!r} is "
                            f"{type(value).__name__}, expected a number")
    need(problems, document["git"], GIT_FIELDS, where="git: ")
    if document["schema"] != SCHEMA_VERSION:
        problems.append(f"schema {document['schema']!r} != "
                        f"{SCHEMA_VERSION}")
        return None
    # The store is content-addressed: a run id that is not the hash of
    # the payload means corruption or an edit.
    expected = payload_hash(RunRecord.from_dict(document).payload())[:12]
    if document["run_id"] != expected:
        problems.append(f"run_id {document['run_id']} does not match "
                        f"payload content hash {expected}")
    return (f"{document['kind']}/{document['label']} "
            f"({document['scale'] or '-'}), "
            f"{len(document['metrics'])} metric(s), "
            f"run {document['run_id']}")


def check_report(path, problems, args):
    """A ``repro profile --json`` report."""
    payload = load(path)
    if not (need(problems, payload, PROFILE_REPORT_FIELDS)
            and need(problems, payload["attribution"], ATTRIBUTION_FIELDS,
                     where="attribution: ")):
        return None
    attribution = payload["attribution"]
    if attribution["schema"] != REPORT_SCHEMA_VERSION:
        problems.append(f"report schema {attribution['schema']!r} != "
                        f"{REPORT_SCHEMA_VERSION}")
        return None
    if AttributionAggregator.from_dict(attribution).to_dict() != attribution:
        problems.append("attribution does not survive the from_dict "
                        "round trip")
    simulated, totals = payload["simulated"], attribution["totals"]
    if attribution["rate"] == 1:
        for report_key, sim_key in (("events", "branches"),
                                    ("mispredictions", "mispredictions"),
                                    ("filtered", "squashed")):
            if totals[report_key] != simulated[sim_key]:
                problems.append(
                    f"rate-1 reconciliation failed: totals[{report_key!r}]"
                    f"={totals[report_key]} != simulated[{sim_key!r}]="
                    f"{simulated[sim_key]}")
    site_misp = sum(site["mispredictions"] for site in attribution["sites"])
    if site_misp != totals["mispredictions"]:
        problems.append(f"per-site mispredictions sum to {site_misp}, "
                        f"totals say {totals['mispredictions']}")
    return (f"{payload['workload']} ({payload['scale']}), "
            f"{totals['events']} events over "
            f"{len(attribution['sites'])} sites")


def check_events(path, problems, args):
    """A ``repro profile --events`` JSONL stream."""
    lines = load(path, jsonl=True)
    if not lines or lines[0][1].get("event") != HEADER["event"]:
        problems.append(f"first record is not a {HEADER['event']}")
        return None
    header = lines[0][1]
    if not need(problems, header, fields_of(HEADER), where="header: "):
        return None
    if header["schema"] != EVENT_SCHEMA_VERSION:
        problems.append(f"event schema {header['schema']!r} != "
                        f"{EVENT_SCHEMA_VERSION}")
    predictions = 0
    for number, record in lines[1:]:
        if record.get("event") != "prediction":
            continue  # interleaved telemetry is legal
        need(problems, record, EVENT_FIELDS, where=f"line {number}: ")
        extra = sorted(set(record) - set(EVENT_FIELDS))
        if extra:
            problems.append(f"line {number}: unknown fields {extra}")
        predictions += 1
    if not predictions:
        problems.append("no prediction records found")
    return f"{predictions} prediction records"


def check_spans(path, problems, args):
    """A trace-span JSONL file: record shape, then per-trace structure."""
    spans = [record for _number, record in load(path, jsonl=True)
             if record.get("event") == "trace-span"]
    if not spans:
        problems.append("no span records")
        return None
    traces = defaultdict(list)
    for index, span in enumerate(spans):
        where = f"span {index}: "
        if not need(problems, span, SPAN_FIELDS, SPAN_OPTIONAL_FIELDS,
                    where):
            continue
        if not _HEX32.fullmatch(span["trace_id"]):
            problems.append(f"{where}trace_id is not 32 hex chars")
        if not _HEX16.fullmatch(span["span_id"]):
            problems.append(f"{where}span_id is not 16 hex chars")
        parent = span["parent_id"]
        if parent and not _HEX16.fullmatch(parent):
            problems.append(f"{where}parent_id is not 16 hex chars")
        if parent and parent == span["span_id"]:
            problems.append(f"{where}span is its own parent")
        for field in ("start", "seconds"):
            if span[field] < 0:
                problems.append(f"{where}negative {field}")
        traces[span["trace_id"]].append(span)
    for trace_id, members in sorted(traces.items()):
        ids = {span["span_id"] for span in members}
        if len(ids) != len(members):
            problems.append(f"trace {trace_id}: duplicate span ids")
        if all(span["parent_id"] for span in members):
            problems.append(f"trace {trace_id}: no root span")
        for span in members:
            if span["parent_id"] and span["parent_id"] not in ids:
                problems.append(f"trace {trace_id}: span {span['name']!r} "
                                f"has unknown parent {span['parent_id']}")
    largest = max(traces.values(), key=len, default=[])
    linked = sum(1 for span in largest if span["parent_id"])
    pids = {span["pid"] for span in largest}
    if len(largest) < args.min_spans:
        problems.append(f"largest trace has {len(largest)} span(s), "
                        f"need >= {args.min_spans}")
    if linked < args.min_spans - 1:
        problems.append(f"largest trace has {linked} parent-linked "
                        f"span(s), need >= {args.min_spans - 1}")
    if len(pids) < args.min_pids:
        problems.append(f"largest trace spans {len(pids)} process(es), "
                        f"need >= {args.min_pids}")
    return (f"{len(spans)} span(s) in {len(traces)} trace(s); largest "
            f"links {linked + 1} span(s) across {len(pids)} process(es)")


def check_prom(path, problems, args):
    """A Prometheus text exposition: sample grammar and quantiles."""
    text = Path(path).read_text()
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    histograms, quantiles, samples = set(), defaultdict(set), 0
    for number, line in enumerate(text.splitlines(), start=1):
        if line.startswith("# TYPE ") and line.endswith(" histogram"):
            histograms.add(line.split()[2])
        if not line or line.startswith("#"):
            continue
        match = _PROM_SAMPLE.fullmatch(line)
        if not match:
            problems.append(f"line {number}: unparsable sample: {line!r}")
            continue
        samples += 1
        label = re.search(r'quantile="([^"]+)"', match["labels"] or "")
        if match["name"].endswith("_quantile") and label:
            quantiles[match["name"][:-len("_quantile")]].add(label[1])
    if not samples:
        problems.append("no samples")
    for name in sorted(histograms):
        if quantiles[name] != QUANTILES:
            problems.append(f"histogram {name} has quantile series "
                            f"{sorted(quantiles[name])}, want "
                            f"{sorted(QUANTILES)}")
    return f"{samples} sample(s), {len(histograms)} histogram(s)"


def check_lint(path, problems, args):
    """A ``repro lint --json`` report and its counting invariants."""
    payload = load(path)
    if not need(problems, payload, LINT_REPORT_FIELDS):
        return None
    totals = dict.fromkeys(SEVERITIES, 0)
    for report in payload["programs"]:
        if not need(problems, report, PROGRAM_FIELDS, where="program: "):
            continue
        where = f"{report['program']!r}: "
        seen = dict.fromkeys(SEVERITIES, 0)
        for record in report["diagnostics"]:
            if not need(problems, record, DIAGNOSTIC_FIELDS, where=where):
                continue
            if record["rule"] not in RULES:
                problems.append(f"{where}unregistered rule id "
                                f"{record['rule']!r}")
            if record["severity"] in seen:
                seen[record["severity"]] += 1
            else:
                problems.append(f"{where}unknown severity "
                                f"{record['severity']!r}")
        if report["counts"] != seen:
            problems.append(f"{where}counts {report['counts']} do not "
                            f"match diagnostics {seen}")
        for label in SEVERITIES:
            totals[label] += seen[label]
    if payload["totals"] != totals:
        problems.append(f"totals {payload['totals']} do not match "
                        f"per-report counts {totals}")
    return (f"{len(payload['programs'])} program(s), "
            f"{sum(totals.values())} diagnostic(s)")


def check_analyze(path, problems, args):
    """A ``repro analyze --json`` payload and its verdict counts."""
    payload = load(path)
    if not (need(problems, payload, ANALYZE_PAYLOAD_FIELDS)
            and need(problems, payload["summary"], SUMMARY_FIELDS,
                     where="summary: ")):
        return None
    if payload["schema"] != ANALYZE_SCHEMA_VERSION:
        problems.append(f"analyze schema {payload['schema']!r} != "
                        f"{ANALYZE_SCHEMA_VERSION}")
    summary = payload["summary"]
    verdicts = summary["verdicts"]
    if sorted(verdicts) != sorted(VERDICTS):
        problems.append(f"verdict keys {sorted(verdicts)} != "
                        f"{sorted(VERDICTS)}")
    branches = 0
    for function in payload["functions"]:
        if not need(problems, function, FUNCTION_FIELDS,
                    where="function: "):
            continue
        for branch in function["branches"]:
            where = f"branch {branches}: "
            if (need(problems, branch, BRANCH_FIELDS, where=where)
                    and branch["sfp_verdict"] not in VERDICTS):
                problems.append(f"{where}unknown verdict "
                                f"{branch['sfp_verdict']!r}")
            branches += 1
    if branches != summary["branches"]:
        problems.append(f"summary says {summary['branches']} branches, "
                        f"functions list {branches}")
    if sum(verdicts.values()) != branches:
        problems.append(f"verdict counts sum to {sum(verdicts.values())}, "
                        f"expected {branches}")
    return (f"{payload['workload']} ({payload['compile_config']}), "
            f"{branches} branch site(s) at distance {payload['distance']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", metavar="PATH",
                        help="RunRecord JSON files")
    parser.add_argument("--store", metavar="DIR",
                        help="validate every record in a store root")
    files = (
        ("--report", check_report, "a `repro profile --json` report"),
        ("--events", check_events, "a `repro profile --events` stream"),
        ("--spans", check_spans, "a trace-span JSONL file"),
        ("--prom", check_prom, "a Prometheus text exposition"),
        ("--lint", check_lint, "a `repro lint --json` report"),
        ("--analyze", check_analyze, "a `repro analyze --json` payload"),
    )
    for flag, _check, text in files:
        parser.add_argument(flag, metavar="PATH", action="append",
                            default=[], help=text + " (repeatable)")
    parser.add_argument("--min-spans", type=int, default=0,
                        help="require the largest trace of each --spans "
                             "file to link this many spans")
    parser.add_argument("--min-pids", type=int, default=0,
                        help="require the largest trace of each --spans "
                             "file to cross this many processes")
    args = parser.parse_args(argv)

    jobs = [(check_record, path) for path in args.records]
    if args.store:
        jobs += [(check_record, path)
                 for path in RunStore(args.store).paths()]
    for flag, check, _text in files:
        jobs += [(check, path) for path in getattr(args, flag[2:])]
    if not jobs:
        parser.error("nothing to check: pass record paths, --store, "
                     "--report, --events, --spans, --prom, --lint or "
                     "--analyze")

    failed = False
    for check, path in jobs:
        problems = []
        try:
            summary = check(path, problems, args)
        except (OSError, ValueError, LookupError, TypeError,
                AttributeError) as exc:
            problems.append(f"cannot check: {exc!r}")
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"{path}: ok — {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
