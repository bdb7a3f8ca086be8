"""Human-readable summaries of telemetry and profiler event streams.

``repro telemetry-report run.jsonl`` renders tables from the last
``"metrics"`` snapshot event of a file written by the ``--metrics``
flag: counters, gauges, and histogram summaries (count, total, mean,
p50, p95, p99).  Span timings are ordinary histograms there, one
``span.<name>.seconds`` row per span name.  Tables go through the same
``format_result_table`` renderer the experiment harness uses.

:func:`render_profile_markdown` is the shared markdown renderer for
misprediction-attribution reports: ``repro profile`` (single run,
in-process aggregator) and ``repro telemetry-report --profile`` (a
``--events`` JSONL folded back into an aggregator) both emit through
it, so sweep and single-run outputs always look the same.
"""

from typing import List, Optional

from repro.telemetry.sinks import read_events


def _format_table(rows, columns, title):
    # Imported lazily: repro.sim imports repro.telemetry for
    # instrumentation, so a top-level import here would be circular.
    from repro.sim.stats import format_result_table

    return format_result_table(rows, columns, title=title)


def summarize_events(events: List[dict]) -> str:
    """Render counters/gauges/histograms tables from ``events``."""
    sections = []

    metrics = [e for e in events if e.get("event") == "metrics"]
    snapshot = metrics[-1] if metrics else {}

    counters = snapshot.get("counters", {})
    if counters:
        rows = [
            {"counter": name, "value": value}
            for name, value in sorted(counters.items())
        ]
        sections.append(_format_table(
            rows, ["counter", "value"], title="counters"
        ))

    gauges = snapshot.get("gauges", {})
    if gauges:
        rows = [
            {"gauge": name, "value": value}
            for name, value in sorted(gauges.items())
        ]
        sections.append(_format_table(
            rows, ["gauge", "value"], title="gauges"
        ))

    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = []
        for name, data in sorted(histograms.items()):
            count = data.get("count", 0)
            total = data.get("total", 0.0)
            rows.append({
                "histogram": name,
                "count": count,
                "total": total,
                "mean": total / count if count else 0.0,
                "p50": data.get("p50", 0.0),
                "p95": data.get("p95", 0.0),
                "p99": data.get("p99", 0.0),
            })
        sections.append(_format_table(
            rows,
            ["histogram", "count", "total", "mean", "p50", "p95", "p99"],
            title="histograms",
        ))

    if not sections:
        return "(no telemetry events)"
    return "\n\n".join(sections)


def render_report(path) -> str:
    """Summarise the JSONL event file at ``path``."""
    return summarize_events(read_events(path))


# -- misprediction-attribution reports ----------------------------------------


def _md_table(columns: List[str], rows: List[list]) -> str:
    """A GitHub-flavoured markdown table."""
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(str(cell) for cell in row) + " |"
        )
    return "\n".join(lines)


def render_profile_markdown(aggregator, top: int = 10,
                            title: Optional[str] = None) -> str:
    """Render an attribution aggregator as a markdown report.

    ``aggregator`` is a
    :class:`~repro.profiler.attribution.AttributionAggregator` — from a
    single profiled run, or the merged product of a sweep; the renderer
    does not care which.
    """
    # Imported lazily, same reason as _format_table: repro.telemetry
    # must import without dragging the profiler package in.
    from repro.profiler.attribution import avail_bucket_labels
    from repro.trace.container import BranchClass

    totals = aggregator.totals()
    mispredictions = totals["mispredictions"]
    heading = title or (
        f"Misprediction attribution — {aggregator.workload}"
        if aggregator.workload
        else "Misprediction attribution"
    )
    sections = [f"# {heading}", ""]
    sections.append(
        f"- sampling: 1-in-{aggregator.spec.rate} "
        f"(seed {aggregator.spec.seed}); totals reconcile with "
        "simulation counts only at rate 1"
        if aggregator.spec.rate > 1
        else "- sampling: every branch (rate 1); totals reconcile "
        "exactly with simulation counts"
    )
    sections.append(
        f"- events: {totals['events']}  ·  mispredictions: "
        f"{mispredictions}  ·  squash-filtered: {totals['filtered']}  ·  "
        f"static sites: {totals['static_sites']}"
    )
    sections.append(
        f"- H2P: top {aggregator.h2p_count(0.9)} site(s) cover 90% of "
        "all mispredictions"
    )
    sections.append("")

    ranked = aggregator.top_branches(top)
    if ranked:
        covered = 0
        rows = []
        for rank, record in enumerate(ranked, start=1):
            covered += record.mispredictions
            rows.append([
                rank,
                record.workload or "-",
                record.pc,
                record.function or "-",
                record.region_id if record.region_id >= 0 else "-",
                BranchClass(record.branch_class).name.lower(),
                record.executions,
                record.mispredictions,
                f"{record.misprediction_rate:.4f}",
                record.filtered,
                f"{100 * covered / mispredictions:.1f}%"
                if mispredictions else "-",
            ])
        sections.append(f"## Top {len(ranked)} mispredicting branches")
        sections.append("")
        sections.append(_md_table(
            ["#", "workload", "pc", "function", "region", "class",
             "execs", "misp", "rate", "filtered", "cum%"],
            rows,
        ))
        sections.append("")

    if aggregator.classes:
        rows = []
        for cls, counts in sorted(aggregator.classes.items()):
            branches, misp, filtered = counts
            rows.append([
                BranchClass(cls).name.lower(), branches, misp,
                f"{misp / branches:.4f}" if branches else "-", filtered,
            ])
        sections.append("## Per-class breakdown")
        sections.append("")
        sections.append(_md_table(
            ["class", "branches", "mispredictions", "rate", "filtered"],
            rows,
        ))
        sections.append("")

    sfp = aggregator.sfp_breakdown()
    if sfp["filtered_correct"] or sfp["filtered_wrong"]:
        sections.append("## SFP squash filter")
        sections.append("")
        sections.append(_md_table(
            ["not filtered", "filtered correct", "filtered wrong",
             "squash accuracy", "coverage"],
            [[
                sfp["not_filtered"], sfp["filtered_correct"],
                sfp["filtered_wrong"],
                f"{sfp['squash_accuracy']:.4f}",
                f"{sfp['squash_coverage']:.4f}",
            ]],
        ))
        sections.append("")

    pgu = aggregator.pgu_breakdown()
    if any(v["events"] for k, v in pgu.items() if k != "off"):
        rows = [
            [path, data["events"], data["correct"],
             f"{data['accuracy']:.4f}" if data["events"] else "-"]
            for path, data in pgu.items()
            if data["events"]
        ]
        sections.append("## PGU history paths")
        sections.append("")
        sections.append(_md_table(
            ["path", "events", "correct", "accuracy"], rows
        ))
        sections.append("")

    avail = aggregator.availability()
    if avail["all"]["counts"] != [0] * len(avail["all"]["counts"]) or \
            avail["all"]["never"]:
        labels = avail_bucket_labels() + ["never"]
        all_counts = avail["all"]["counts"] + [avail["all"]["never"]]
        region_counts = (
            avail["region"]["counts"] + [avail["region"]["never"]]
        )
        sections.append("## Guard availability at fetch (distance)")
        sections.append("")
        sections.append(_md_table(
            ["distance"] + labels,
            [["all branches"] + all_counts,
             ["region-based"] + region_counts],
        ))
        sections.append("")

    timeline = aggregator.timeline_points()
    if len(timeline) > 1:
        worst = max(timeline, key=lambda p: p["mispredictions"])
        sections.append("## Timeline")
        sections.append("")
        sections.append(
            f"{len(timeline)} interval(s) of "
            f"{aggregator.spec.interval} branch events; worst interval "
            f"#{worst['interval']} (from event {worst['first_seq']}) "
            f"with {worst['mispredictions']} mispredictions over "
            f"{worst['branches']} branches."
        )
        sections.append("")
        rows = [
            [p["interval"], p["first_seq"], p["branches"],
             p["mispredictions"], p["filtered"]]
            for p in timeline
        ]
        sections.append(_md_table(
            ["interval", "first event", "branches", "mispredictions",
             "filtered"],
            rows,
        ))
        sections.append("")

    return "\n".join(sections).rstrip() + "\n"


def render_profile_events(path, top: int = 10) -> str:
    """Fold a profiler ``--events`` JSONL back into the markdown report."""
    from repro.profiler.collector import aggregate_event_stream

    return render_profile_markdown(aggregate_event_stream(path), top=top)
