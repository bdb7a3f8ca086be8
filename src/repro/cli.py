"""Command-line interface.

::

    repro list                         # workloads, predictors, experiments
    repro run E6 [--scale small] [--fast] [--format csv] [--workers 4]
    repro run-experiment E6            # long-form alias of `run`
    repro run-all [--scale tiny] [--output results/] [--workers 4]
    repro simulate qsort --predictor gshare --entries 4096 --sfp --pgu
    repro characterise grep [--scale small]
    repro analyze grep --branches      # region stats + predicate flow
    repro analyze grep --h2p --json    # join H2P sites to static facts
    repro lint [crc grep] [--json]     # predicate-aware static verifier
    repro hotspots lexer --sfp --pgu   # worst-mispredicting sites
    repro profile crc --sfp --pgu      # misprediction attribution
    repro disasm crc [--function main] [--baseline]
    repro telemetry-report run.jsonl   # summarise a --metrics file
    repro telemetry-report ev.jsonl --profile   # replay --events stream
    repro history list                 # stored RunRecords, oldest first
    repro history diff HEAD~0 --baseline docs/results/baseline-run.json
    repro history trend --metric 'E2.MEAN.*'
    repro history gc --keep 50
    repro serve --port 8023 --workers 4   # prediction-as-a-service daemon
    repro serve --trace --slow-request 2  # ... with per-request tracing
    repro trace show spans.jsonl          # span tree + critical path
    repro trace list spans.jsonl          # one line per trace
    repro top [--once]                    # live daemon dashboard
    repro clear-cache

``run``, ``run-all`` and ``simulate`` accept ``--metrics out.jsonl``
(phase spans plus a final merged-counter snapshot as JSONL, see
``docs/observability.md``), ``--trace spans.jsonl`` (distributed span
records for ``repro trace show``) and ``--record`` (append a RunRecord
to the run-history store, see ``docs/run-history.md``).
"""

import argparse
import sys
from contextlib import ExitStack, contextmanager

from repro import repro_version, telemetry
from repro.compiler import config as config_mod
from repro.experiments import experiment_ids, get_experiment
from repro.predictors import (
    PGUConfig,
    SFPConfig,
    available_predictors,
    make_predictor,
)
from repro.sim import CORES, SimOptions, resolve_core, simulate, use_core
from repro.trace import TraceCache
from repro.workloads import get_workload, workload_names


@contextmanager
def _metrics_scope(args):
    """Telemetry for one CLI invocation.

    A fresh registry is installed either way (so repeated in-process
    invocations don't bleed counters into each other); with
    ``--metrics PATH`` a JSONL sink writes a ``header`` event carrying
    the harness version and the invoked subcommand and, last, a
    ``metrics`` snapshot of the merged registry, span histograms
    included.  With ``--trace PATH`` tracing is switched on for the
    invocation, which becomes one trace rooted at a span named for the
    subcommand, and the collected span records are written to PATH as
    JSONL on exit (see ``repro trace show``).
    ``serve --trace`` is a flag, not a path: the daemon traces its own
    requests.
    """
    path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    if not isinstance(trace_path, str):
        trace_path = None
    command = getattr(args, "command", "")
    registry = telemetry.MetricsRegistry()
    with ExitStack() as stack:
        stack.enter_context(telemetry.use_registry(registry))
        if trace_path:
            # --trace: every span of the invocation (trace build, cache
            # publish, sweep, simulation; workers ship theirs back)
            # hangs under one root.  The root closes after the metrics
            # snapshot, and the file is written last, after the root
            # has recorded itself.
            spans_out = telemetry.SpanCollector()
            stack.callback(spans_out.write_jsonl, trace_path)
            stack.enter_context(telemetry.use_tracing(True))
            stack.enter_context(telemetry.use_collector(spans_out))
            stack.enter_context(telemetry.span(command))
        sink = None
        if path:
            sink = stack.enter_context(telemetry.JsonlSink(path))
            stack.enter_context(telemetry.use_sink(sink))
            sink.emit({
                "event": "header",
                "schema": 1,
                "version": repro_version(),
                "command": command,
            })
        try:
            yield registry
        finally:
            if sink is not None:
                sink.emit({"event": "metrics", **registry.snapshot()})
    if path:
        print(f"metrics written to {path}", file=sys.stderr)
    if trace_path:
        print(f"trace written to {trace_path}", file=sys.stderr)


@contextmanager
def _record_scope(args, kind, label, compile_config="hyperblock",
                  matrix=None):
    """Record one invocation into the run-history store.

    Yields a :class:`~repro.runstore.RunRecorder` (or ``None`` without
    ``--record``); the body adds its results, and on clean exit the
    sealed record — wall time, telemetry snapshot of the *current*
    registry, envelope — is atomically appended to the store.  Must be
    entered inside :func:`_metrics_scope` so the snapshot sees the
    invocation's fresh registry.
    """
    if not getattr(args, "record", False):
        yield None
        return
    from repro.runstore import RunRecorder, RunStore

    recorder = RunRecorder(
        kind, label,
        scale=getattr(args, "scale", ""),
        compile_config=compile_config,
        command="repro " + " ".join(getattr(args, "_argv", ())),
        matrix=matrix,
    )
    # Envelope-only: fast cores are bit-identical to the object core,
    # so the run id stays the same whichever core produced the record.
    recorder.record.sim_core = resolve_core(getattr(args, "core", None))
    with recorder.timed():
        yield recorder
    record = recorder.finish(telemetry.get_registry())
    path = RunStore(getattr(args, "store", None)).add(record)
    print(f"recorded run {record.run_id} -> {path}", file=sys.stderr)


def _cmd_list(args) -> int:
    print("workloads:")
    for name in workload_names():
        workload = get_workload(name)
        print(f"  {name:12s} {workload.description}")
    print("\npredictors:")
    print("  " + ", ".join(available_predictors()))
    print("\nexperiments:")
    for exp_id in experiment_ids():
        spec = get_experiment(exp_id).SPEC
        print(f"  {exp_id:4s} {spec.title}")
    return 0


def _run_one(exp_id: str, args) -> "ExperimentResult":  # noqa: F821
    from repro.experiments.report import render, write_result

    module = get_experiment(exp_id)
    kwargs = {"scale": args.scale}
    if args.workloads:
        kwargs["workloads"] = args.workloads.split(",")
    run = module.run
    params = run.__code__.co_varnames[: run.__code__.co_argcount]
    if "fast" in params:
        kwargs["fast"] = args.fast
    if args.workers is not None and "workers" in params:
        kwargs["workers"] = args.workers
    with telemetry.span(module.SPEC.id):
        result = run(**kwargs)
    fmt = args.format
    output = args.output
    if output:
        path = write_result(result, output, fmt if fmt != "table" else "csv")
        print(f"wrote {path}")
    print(render(result, fmt))
    print()
    return result


def _cmd_run_experiments(args) -> int:
    """``run``/``run-experiment`` (one experiment) and ``run-all``."""
    if args.command == "run-all":
        label, exp_ids = "run-all", experiment_ids()
    else:
        label = get_experiment(args.id).SPEC.id
        exp_ids = [args.id]
    with _metrics_scope(args):
        with use_core(args.core):
            with _record_scope(args, "experiment", label) as recorder:
                for exp_id in exp_ids:
                    result = _run_one(exp_id, args)
                    if recorder is not None:
                        recorder.add_experiment(result)
    return 0


def _cmd_simulate(args) -> int:
    with _metrics_scope(args):
        workload = get_workload(args.workload)
        predictor = make_predictor(args.predictor, entries=args.entries)
        options = SimOptions(
            distance=args.distance,
            sfp=SFPConfig() if args.sfp else None,
            pgu=PGUConfig() if args.pgu else None,
        )
        matrix = {
            "workload": args.workload,
            "predictor": predictor.describe(),
            "frontend": options.describe(),
        }
        with _record_scope(
            args, "simulate", args.workload,
            compile_config="baseline" if args.baseline else "hyperblock",
            matrix=matrix,
        ) as recorder:
            trace = workload.trace(
                scale=args.scale, hyperblocks=not args.baseline
            )
            result = simulate(
                trace, predictor, options, core=args.core
            )
            if recorder is not None:
                recorder.add_sim_result(result, prefix=args.workload)
    print(f"workload    : {result.workload} ({args.scale})")
    print(f"predictor   : {predictor.describe()}")
    print(f"front end   : {options.describe()}")
    print(f"branches    : {result.branches}")
    print(f"mispredicts : {result.mispredictions}"
          f" ({result.misprediction_rate:.4f})")
    print(f"mpki        : {result.mpki:.2f}")
    if args.sfp:
        print(f"squashed    : {result.squashed}"
              f" ({result.squash_coverage:.4f})")
    return 0


def _cmd_characterise(args) -> int:
    workload = get_workload(args.workload)
    trace = workload.trace(scale=args.scale, hyperblocks=not args.baseline)
    for key, value in trace.summary().items():
        print(f"{key:22s} {value}")
    return 0


def _cmd_hotspots(args) -> int:
    from repro.isa.printer import format_instruction
    from repro.sim.hotspots import top_hotspots

    workload = get_workload(args.workload)
    trace = workload.trace(scale=args.scale, hyperblocks=not args.baseline)
    predictor = make_predictor(args.predictor, entries=args.entries)
    options = SimOptions(
        sfp=SFPConfig() if args.sfp else None,
        pgu=PGUConfig() if args.pgu else None,
    )
    compiled = workload.compile(
        args.scale,
        config_mod.BASELINE if args.baseline else config_mod.HYPERBLOCK,
    )
    sites = top_hotspots(trace, predictor, options, limit=args.limit)
    print(f"{'pc':>6s} {'execs':>8s} {'taken%':>7s} {'misp':>8s} "
          f"{'rate':>7s} {'sq':>6s}  site")
    for site in sites:
        instr = compiled.executable.code[site.pc]
        marker = "R" if site.region_based else " "
        print(f"{site.pc:>6d} {site.executions:>8d} "
              f"{100 * site.taken_rate:6.1f}% {site.mispredictions:>8d} "
              f"{site.misprediction_rate:7.4f} {site.squashed:>6d} "
              f"{marker} {format_instruction(instr)}")
    return 0


#: Top-level fields and JSON types of the ``repro profile --json`` report
#: (``attribution`` is :meth:`AttributionAggregator.to_dict`).
PROFILE_REPORT_FIELDS = {
    "workload": str, "scale": str, "compile_config": str,
    "predictor": str, "frontend": str, "simulated": dict,
    "attribution": dict,
}


def _cmd_profile(args) -> int:
    import json

    from repro.profiler import (
        AggregatingCollector,
        JsonlEventCollector,
        ProfileSpec,
        SiteTable,
        TeeCollector,
    )
    from repro.sim.stats import format_result_table
    from repro.telemetry import render_profile_markdown
    from repro.trace.container import BranchClass

    workload = get_workload(args.workload)
    config = (
        config_mod.BASELINE if args.baseline else config_mod.HYPERBLOCK
    )
    spec = ProfileSpec(rate=args.rate, seed=args.seed)
    with _metrics_scope(args):
        with telemetry.span("attribution", workload=args.workload):
            compiled = workload.compile(args.scale, config)
            sites = SiteTable.from_executable(compiled.executable)
            trace = workload.trace(
                scale=args.scale, hyperblocks=not args.baseline
            )
            predictor = make_predictor(args.predictor, entries=args.entries)
            options = SimOptions(
                distance=args.distance,
                sfp=SFPConfig() if args.sfp else None,
                pgu=PGUConfig() if args.pgu else None,
            )
            aggregating = AggregatingCollector(
                spec, sites=sites, workload=workload.name
            )
            collector = aggregating
            if args.events:
                collector = TeeCollector([
                    aggregating,
                    JsonlEventCollector(
                        args.events, spec, sites=sites,
                        workload=workload.name,
                    ),
                ])
            with collector:
                result = simulate(
                    trace, predictor, options, collector=collector
                )
    aggregator = aggregating.aggregator
    if args.events:
        print(f"events written to {args.events}", file=sys.stderr)

    if args.json:
        print(json.dumps({
            "workload": workload.name,
            "scale": args.scale,
            "compile_config": "baseline" if args.baseline else "hyperblock",
            "predictor": predictor.describe(),
            "frontend": options.describe(),
            "simulated": {
                "branches": result.branches,
                "mispredictions": result.mispredictions,
                "squashed": result.squashed,
            },
            "attribution": aggregator.to_dict(),
        }, indent=2))
        return 0
    if args.markdown:
        print(render_profile_markdown(
            aggregator, top=args.top,
            title=(
                f"{workload.name} ({args.scale}) — "
                f"{predictor.describe()}, {options.describe()}"
            ),
        ))
        return 0

    totals = aggregator.totals()
    print(f"workload    : {workload.name} ({args.scale}, "
          f"{'baseline' if args.baseline else 'hyperblock'})")
    print(f"predictor   : {predictor.describe()}")
    print(f"front end   : {options.describe()}")
    print(f"sampling    : {spec.describe()}")
    print(f"events      : {totals['events']}  (sites: "
          f"{totals['static_sites']})")
    print(f"mispredicts : {totals['mispredictions']}  filtered: "
          f"{totals['filtered']}")
    print(f"H2P         : top {aggregator.h2p_count(0.9)} site(s) cover "
          f"90% of mispredictions")
    print()
    mispredictions = totals["mispredictions"]
    covered = 0
    rows = []
    for record in aggregator.top_branches(args.top):
        covered += record.mispredictions
        rows.append({
            "pc": record.pc,
            "function": record.function or "-",
            "region": record.region_id if record.region_id >= 0 else "",
            "class": BranchClass(record.branch_class).name.lower(),
            "execs": record.executions,
            "misp": record.mispredictions,
            "rate": record.misprediction_rate,
            "filtered": record.filtered,
            "cum%": (
                f"{100 * covered / mispredictions:.1f}"
                if mispredictions else "-"
            ),
        })
    print(format_result_table(
        rows,
        ["pc", "function", "region", "class", "execs", "misp", "rate",
         "filtered", "cum%"],
        title=f"top {len(rows)} mispredicting branches",
    ))
    sfp_stats = aggregator.sfp_breakdown()
    if sfp_stats["filtered_correct"] or sfp_stats["filtered_wrong"]:
        print()
        print(f"sfp         : {sfp_stats['filtered_correct']} squashed "
              f"correct, {sfp_stats['filtered_wrong']} wrong "
              f"(accuracy {sfp_stats['squash_accuracy']:.4f}, coverage "
              f"{sfp_stats['squash_coverage']:.4f})")
    pgu_stats = aggregator.pgu_breakdown()
    if any(v["events"] for k, v in pgu_stats.items() if k != "off"):
        parts = [
            f"{path} {data['events']} @ {data['accuracy']:.4f}"
            for path, data in pgu_stats.items()
            if data["events"]
        ]
        print(f"pgu         : {', '.join(parts)}")
    return 0


def _analyze_h2p(args, workload, executable, predflow):
    """Profile the workload and join the worst sites onto static facts."""
    from repro.profiler import (
        AggregatingCollector,
        ProfileSpec,
        SiteTable,
        join_static_facts,
    )

    trace = workload.trace(
        scale=args.scale, hyperblocks=not args.baseline
    )
    predictor = make_predictor(args.predictor, entries=args.entries)
    options = SimOptions(
        distance=args.distance, sfp=SFPConfig(), pgu=PGUConfig()
    )
    collector = AggregatingCollector(
        ProfileSpec(rate=1),
        sites=SiteTable.from_executable(executable),
        workload=workload.name,
    )
    with collector:
        simulate(trace, predictor, options, collector=collector)
    ranked = collector.aggregator.top_branches(args.top)
    return join_static_facts(ranked, predflow, distance=args.distance)


#: Fields ``repro analyze --json`` adds to :meth:`PredflowReport.to_dict`
#: (plus ``h2p`` under ``--h2p``).
ANALYZE_FIELDS = {
    "workload": str, "scale": str, "compile_config": str, "regions": dict,
}


def _cmd_analyze(args) -> int:
    import json

    from repro.analysis.predflow import analyze_executable
    from repro.compiler.analysis import (
        analyze_executable as analyze_regions,
    )

    workload = get_workload(args.workload)
    config = (
        config_mod.BASELINE if args.baseline else config_mod.HYPERBLOCK
    )
    with _metrics_scope(args):
        with telemetry.span("analysis", workload=args.workload):
            compiled = workload.compile(args.scale, config)
            executable = compiled.executable
            regions = analyze_regions(executable)
            predflow = analyze_executable(
                executable,
                name=workload.name,
                distance=args.distance,
            )
            h2p = (
                _analyze_h2p(args, workload, executable, predflow)
                if args.h2p
                else None
            )

    if args.json:
        payload = predflow.to_dict()
        payload.update(
            workload=workload.name,
            scale=args.scale,
            compile_config=(
                "baseline" if args.baseline else "hyperblock"
            ),
            regions=regions.summary(),
        )
        if h2p is not None:
            payload["h2p"] = h2p
        print(json.dumps(payload, indent=2))
        return 0

    for key, value in regions.summary().items():
        print(f"{key:22s} {value}")
    summary = predflow.summary()
    print()
    print(f"predflow @ distance {summary['distance']}")
    for key in (
        "branches", "region_branches", "must_not_taken", "must_taken",
        "complement_only", "define_sites",
    ):
        print(f"{key:22s} {summary[key]}")
    verdicts = ", ".join(
        f"{name}={count}"
        for name, count in summary["verdicts"].items()
        if count
    )
    print(f"{'sfp_verdicts':22s} {verdicts}")
    print(
        f"{'sfp_coverage_bound':22s} "
        f"{summary['sfp_site_coverage_bound']:.3f}"
    )
    if args.regions:
        print()
        print(f"{'function':16s} {'region':>6s} {'size':>5s} {'cmps':>5s} "
              f"{'guarded':>7s} {'branches':>8s}")
        for region in regions.regions:
            print(f"{region.function:16s} {region.region:>6d} "
                  f"{region.instructions:>5d} {region.compares:>5d} "
                  f"{region.guarded_instructions:>7d} "
                  f"{region.region_branches:>8d}")
    if args.branches:
        print()
        print(f"{'pc':>6s} {'function':16s} {'guard':>5s} {'value':>11s} "
              f"{'avail':>9s} {'verdict':>9s}")
        for facts in predflow.branches():
            hi = (
                "inf" if facts.max_avail >= 1 << 10 else facts.max_avail
            )
            print(f"{facts.pc:>6d} {facts.function:16s} "
                  f"p{facts.guard:<4d} {facts.guard_value:>11s} "
                  f"{facts.min_avail:>4}..{hi:<4} "
                  f"{facts.verdict(args.distance):>9s}")
    if h2p is not None:
        print()
        print(f"{'pc':>6s} {'misp':>8s} {'execs':>8s} {'value':>11s} "
              f"{'verdict':>9s}")
        for row in h2p:
            static = row["static"]
            value = static["guard_value"] if static else "-"
            verdict = static["sfp_verdict"] if static else "unknown"
            print(f"{row['pc']:>6d} {row['mispredictions']:>8d} "
                  f"{row['executions']:>8d} {value:>11s} {verdict:>9s}")
    return 0


def _lint_targets(args):
    """(name, workload) pairs selected by a ``repro lint`` invocation."""
    names = args.workloads or list(workload_names())
    targets = []
    for name in names:
        targets.append((name, get_workload(name)))
    if args.synthetic:
        from repro.workloads.synthetic import MAX_SPACING, make_synthetic

        for bias, noise, spacing in (
            (50, 0, 0),
            (50, 20, 4),
            (80, 10, MAX_SPACING),
        ):
            workload = make_synthetic(bias, noise, spacing)
            targets.append((workload.name, workload))
    return targets


#: Top-level fields of the ``repro lint --json`` report (each program
#: is :meth:`LintReport.to_dict`).
LINT_REPORT_FIELDS = {"programs": list, "totals": dict}


def _cmd_lint(args) -> int:
    import json

    from repro.analysis import Severity, lint_executable

    try:
        targets = _lint_targets(args)
    except KeyError:
        known = ", ".join(workload_names())
        print(
            f"unknown workload; choose from: {known}", file=sys.stderr
        )
        return 2
    config = (
        config_mod.BASELINE if args.baseline else config_mod.HYPERBLOCK
    )
    min_severity = Severity[args.min_severity.upper()]
    reports = []
    with _metrics_scope(args):
        with telemetry.span("lint-run", programs=len(targets)):
            for name, workload in targets:
                compiled = workload.compile(args.scale, config)
                reports.append(
                    lint_executable(compiled.executable, name=name)
                )
    totals = {severity.label: 0 for severity in Severity}
    for report in reports:
        for severity, count in report.counts().items():
            totals[severity] += count
    if args.json:
        print(
            json.dumps(
                {
                    "programs": [r.to_dict() for r in reports],
                    "totals": totals,
                },
                indent=2,
            )
        )
    else:
        for report in reports:
            print(report.render(min_severity=min_severity))
        print(
            f"\nlinted {len(reports)} program(s): {totals['error']} "
            f"error(s), {totals['warning']} warning(s), "
            f"{totals['info']} info"
        )
    return 1 if totals["error"] else 0


def _cmd_disasm(args) -> int:
    from repro.isa.printer import disassemble

    workload = get_workload(args.workload)
    config = (
        config_mod.BASELINE if args.baseline else config_mod.HYPERBLOCK
    )
    compiled = workload.compile(args.scale, config)
    if args.function:
        function = compiled.program.functions.get(args.function)
        if function is None:
            print(f"no function {args.function!r}", file=sys.stderr)
            return 1
        print(disassemble(function))
    else:
        print(disassemble(compiled.executable))
    return 0


def _cmd_telemetry_report(args) -> int:
    try:
        if args.profile:
            report = telemetry.render_profile_events(args.path,
                                                     top=args.top)
        else:
            # Lenient parse: a truncated/corrupted line (a crashed or
            # still-writing producer) is skipped with a warning, and the
            # report renders from whatever parsed.  Only a stream with
            # *no* valid events is an error.
            events, skipped = telemetry.read_events_lenient(args.path)
            if skipped:
                print(
                    f"warning: skipped {skipped} malformed line(s) in "
                    f"{args.path}",
                    file=sys.stderr,
                )
            if not events and skipped:
                print(
                    f"{args.path}: no valid telemetry events",
                    file=sys.stderr,
                )
                return 1
            report = telemetry.summarize_events(events)
    except FileNotFoundError:
        print(f"no such metrics file: {args.path}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(report)
    return 0


def _cmd_history(args) -> int:
    import json

    from repro import runstore

    store = runstore.RunStore(getattr(args, "store", None))
    command = args.history_command

    if command == "list":
        records = store.records(kind=args.kind, label=args.label)
        if args.json:
            print(json.dumps(
                [r.to_dict() for r in records], indent=2, sort_keys=True
            ))
            return 0
        if not records:
            print(f"(no runs in {store.root})")
            return 0
        print(f"{'run_id':12s} {'timestamp':>24s} {'kind':10s} "
              f"{'label':10s} {'scale':6s} {'metrics':>7s} "
              f"{'wall_s':>8s}  git")
        for record in records:
            sha = record.git.get("sha", "")[:10]
            dirty = "+" if record.git.get("dirty") else ""
            print(f"{record.run_id:12s} {record.timestamp:>24s} "
                  f"{record.kind:10s} {record.label:10s} "
                  f"{record.scale:6s} {len(record.metrics):>7d} "
                  f"{record.wall_seconds:>8.2f}  {sha}{dirty}")
        return 0

    if command == "show":
        try:
            record = store.resolve(
                args.run, kind=args.kind, label=args.label
            )
        except (KeyError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0

    if command == "diff":
        try:
            current = store.resolve(
                args.run, kind=args.kind, label=args.label
            )
        except (KeyError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        baseline_selector = args.baseline or args.against
        if baseline_selector:
            try:
                baseline = store.resolve(
                    baseline_selector, kind=args.kind, label=args.label
                )
            except (KeyError, ValueError) as exc:
                print(str(exc), file=sys.stderr)
                return 2
            diff = runstore.diff_runs(
                current, baseline,
                runstore.Thresholds(
                    absolute=args.abs, relative=args.rel
                ),
            )
        else:
            # Rolling mode: noise model from the runs stored *before*
            # the selected one, within the same kind/label series.
            records = store.records(
                kind=args.kind or current.kind,
                label=args.label or current.label,
            )
            history = [
                r for r in records
                if (r.timestamp, r.run_id)
                < (current.timestamp, current.run_id)
            ]
            if not history:
                print(
                    "no earlier runs to seed the noise model; pass "
                    "--baseline FILE or a second selector",
                    file=sys.stderr,
                )
                return 2
            diff = runstore.diff_against_history(
                current, history,
                sigma=args.sigma, absolute_floor=args.abs,
                window=args.window,
            )
        if args.json:
            print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
        else:
            print(runstore.render_diff(diff, verbose=args.verbose))
        return 0 if diff.ok else 1

    if command == "trend":
        records = store.records(kind=args.kind, label=args.label)
        if args.last:
            records = records[-args.last:]
        if args.json:
            print(runstore.render_trend_json(records, args.metric))
        else:
            print(runstore.render_trend_markdown(records, args.metric))
        return 0

    if command == "gc":
        victims = store.gc(keep=args.keep, dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {len(victims)} run record(s), keeping "
              f"{args.keep} newest")
        for path in victims:
            print(f"  {path.name}")
        return 0

    raise AssertionError(f"unhandled history command {command!r}")


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        core=args.core,
        store=args.store,
        max_queue_depth=args.queue_depth,
        job_timeout=args.job_timeout,
        idle_timeout=args.idle_timeout,
        tracing=args.trace,
        trace_log=args.trace_log,
        slow_request_seconds=args.slow_request,
    )
    # The daemon runs under one long-lived registry; with --metrics the
    # final serve.* snapshot lands in the JSONL stream on shutdown,
    # exactly like every other instrumented subcommand.
    with _metrics_scope(args) as registry:
        return run_server(config, registry=registry)


def _cmd_trace(args) -> int:
    from repro.telemetry import read_spans, render_trace, render_trace_list

    try:
        records = read_spans(args.path)
    except FileNotFoundError:
        print(f"no such trace file: {args.path}", file=sys.stderr)
        return 1
    if not records:
        print(f"{args.path}: no trace spans", file=sys.stderr)
        return 1
    if args.trace_command == "list":
        print(render_trace_list(records))
    else:
        print(render_trace(records, trace_id=args.trace_id))
    return 0


def _cmd_top(args) -> int:
    from repro.serve.top import run_top

    return run_top(
        host=args.host, port=args.port,
        interval=args.interval, once=args.once,
    )


def _cmd_clear_cache(args) -> int:
    removed = TraceCache().clear()
    print(f"removed {removed} cached trace(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Incorporating Predicate Information into "
            "Branch Predictors' (HPCA-9, 2003)"
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {repro_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads/predictors/experiments")

    # Flags of every subcommand that simulates: core choice, telemetry
    # capture and run recording.
    sim_flags = argparse.ArgumentParser(add_help=False)
    sim_flags.add_argument("--core", default=None, choices=CORES,
                           help="simulation core (default $REPRO_SIM_CORE "
                                "or object); fast cores are bit-identical")
    sim_flags.add_argument("--metrics", metavar="PATH",
                           help="append telemetry events (JSONL) to PATH")
    sim_flags.add_argument("--trace", metavar="PATH",
                           help="trace the invocation; append span records "
                                "(JSONL) to PATH for `repro trace show`")
    sim_flags.add_argument("--record", action="store_true",
                           help="append a RunRecord to the run-history "
                                "store")
    sim_flags.add_argument("--store", metavar="DIR",
                           help="run-history store root (default "
                                "$REPRO_RUNSTORE or .repro/runs)")
    # ... plus those of the experiment runners.
    exp_flags = argparse.ArgumentParser(add_help=False, parents=[sim_flags])
    exp_flags.add_argument("--scale", default="small",
                           choices=("tiny", "small", "ref"))
    exp_flags.add_argument("--fast", action="store_true")
    exp_flags.add_argument("--workloads", help="comma-separated subset")
    exp_flags.add_argument("--workers", type=int, default=None,
                           help="sweep worker processes (0 = all CPUs; "
                                "default $REPRO_SWEEP_WORKERS or serial)")
    exp_flags.add_argument("--format", default="table",
                           choices=("table", "csv", "json"))
    exp_flags.add_argument("--output",
                           help="also write each export to this dir")

    for name, help_text in (
        ("run", "run one experiment"),
        ("run-experiment", "run one experiment (alias of `run`)"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[exp_flags])
        p.add_argument("id", help="experiment id, e.g. E6")

    sub.add_parser("run-all", help="run every experiment",
                   parents=[exp_flags])

    p = sub.add_parser("simulate", help="one (workload, predictor) run",
                       parents=[sim_flags])
    p.add_argument("workload", choices=workload_names())
    p.add_argument("--predictor", default="gshare",
                   choices=available_predictors())
    p.add_argument("--entries", type=int, default=4096)
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "ref"))
    p.add_argument("--distance", type=int, default=4)
    p.add_argument("--sfp", action="store_true")
    p.add_argument("--pgu", action="store_true")
    p.add_argument("--baseline", action="store_true",
                   help="use the non-predicated compile")

    p = sub.add_parser("characterise", help="trace summary of a workload")
    p.add_argument("workload", choices=workload_names())
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "ref"))
    p.add_argument("--baseline", action="store_true")

    p = sub.add_parser("hotspots", help="worst-mispredicting branch sites")
    p.add_argument("workload", choices=workload_names())
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "ref"))
    p.add_argument("--predictor", default="gshare",
                   choices=available_predictors())
    p.add_argument("--entries", type=int, default=1024)
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--sfp", action="store_true")
    p.add_argument("--pgu", action="store_true")
    p.add_argument("--baseline", action="store_true")

    p = sub.add_parser(
        "profile",
        help="event-level misprediction attribution for one workload",
    )
    p.add_argument("workload", choices=workload_names())
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "ref"))
    p.add_argument("--predictor", default="gshare",
                   choices=available_predictors())
    p.add_argument("--entries", type=int, default=4096)
    p.add_argument("--distance", type=int, default=4)
    p.add_argument("--sfp", action="store_true")
    p.add_argument("--pgu", action="store_true")
    p.add_argument("--baseline", action="store_true",
                   help="use the non-predicated compile")
    p.add_argument("--rate", type=int, default=1,
                   help="sample 1-in-N branch events (default 1 = all)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling phase; same seed+rate = same events")
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="show the K worst branches (default 10)")
    p.add_argument("--json", action="store_true",
                   help="full attribution report as JSON")
    p.add_argument("--markdown", action="store_true",
                   help="render the markdown report instead of tables")
    p.add_argument("--events", metavar="PATH",
                   help="also write sampled events (JSONL) to PATH")
    p.add_argument("--metrics", metavar="PATH",
                   help="append telemetry events (JSONL) to PATH")

    p = sub.add_parser(
        "analyze",
        help="static region statistics and predicate-flow facts",
    )
    p.add_argument("workload", choices=workload_names())
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "ref"))
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--regions", action="store_true",
                   help="also list every region")
    p.add_argument("--branches", action="store_true",
                   help="also list per-branch predicate-flow facts")
    p.add_argument("--distance", type=int, default=4,
                   help="availability distance D for SFP verdicts")
    p.add_argument("--h2p", action="store_true",
                   help="profile the workload and join the worst "
                        "sites onto their static facts")
    p.add_argument("--top", type=int, default=10,
                   help="H2P sites to show with --h2p")
    p.add_argument("--predictor", default="gshare",
                   choices=available_predictors(),
                   help="predictor for the --h2p profile")
    p.add_argument("--entries", type=int, default=4096)
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--metrics", metavar="PATH",
                   help="append telemetry events (JSONL) to PATH")

    p = sub.add_parser(
        "lint", help="predicate-aware static verification of workloads"
    )
    p.add_argument(
        "workloads",
        nargs="*",
        metavar="workload",
        help="workloads to lint (default: all bundled workloads)",
    )
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "ref"))
    p.add_argument("--baseline", action="store_true",
                   help="lint the non-predicated compile")
    p.add_argument("--synthetic", action="store_true",
                   help="also lint representative synthetic workloads")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--min-severity", default="info",
                   choices=("info", "warning", "error"),
                   help="hide text diagnostics below this severity")
    p.add_argument("--metrics", metavar="PATH",
                   help="append telemetry events (JSONL) to PATH")

    p = sub.add_parser("disasm", help="disassemble a compiled workload")
    p.add_argument("workload", choices=workload_names())
    p.add_argument("--function", help="limit to one function")
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "ref"))
    p.add_argument("--baseline", action="store_true")

    p = sub.add_parser(
        "history",
        help="run-history store: list/show/diff/trend/gc",
    )
    hsub = p.add_subparsers(dest="history_command", required=True)

    def _store_args(sp, filters=True):
        sp.add_argument("--store", metavar="DIR",
                        help="store root (default $REPRO_RUNSTORE or "
                             ".repro/runs)")
        if filters:
            sp.add_argument("--kind", choices=("experiment", "simulate",
                                               "sweep", "benchmark"),
                            help="restrict to one record kind")
            sp.add_argument("--label", help="restrict to one label "
                                            "(e.g. E2 or a workload)")

    hp = hsub.add_parser("list", help="stored runs, oldest first")
    _store_args(hp)
    hp.add_argument("--json", action="store_true",
                    help="full records as JSON")

    hp = hsub.add_parser("show", help="print one stored run")
    hp.add_argument("run", help="HEAD[~N], a run-id prefix, or a path")
    _store_args(hp)

    hp = hsub.add_parser(
        "diff",
        help="compare a run against a baseline or the rolling history",
    )
    hp.add_argument("run", help="current run: HEAD[~N], id prefix, path")
    hp.add_argument("against", nargs="?", default=None,
                    help="baseline selector (default: rolling noise "
                         "model over earlier runs)")
    hp.add_argument("--baseline", metavar="FILE",
                    help="baseline record file (e.g. the committed "
                         "golden docs/results/baseline-run.json)")
    hp.add_argument("--abs", type=float,
                    default=0.0005, metavar="X",
                    help="absolute regression threshold (default "
                         "%(default)s)")
    hp.add_argument("--rel", type=float, default=0.02, metavar="F",
                    help="relative regression threshold (default "
                         "%(default)s)")
    hp.add_argument("--sigma", type=float, default=3.0, metavar="K",
                    help="rolling mode: flag beyond mean + K*sigma "
                         "(default %(default)s)")
    hp.add_argument("--window", type=int, default=10, metavar="N",
                    help="rolling mode: runs seeding the noise model "
                         "(default %(default)s)")
    hp.add_argument("--json", action="store_true",
                    help="machine-readable diff")
    hp.add_argument("--verbose", action="store_true",
                    help="also list unchanged metrics")
    _store_args(hp)

    hp = hsub.add_parser("trend", help="per-metric timelines")
    hp.add_argument("--metric", metavar="PATTERN",
                    help="fnmatch filter over metric names")
    hp.add_argument("--last", type=int, default=0, metavar="N",
                    help="only the newest N runs (default: all)")
    hp.add_argument("--json", action="store_true",
                    help="JSON timelines instead of markdown")
    _store_args(hp)

    hp = hsub.add_parser("gc", help="drop the oldest stored runs")
    hp.add_argument("--keep", type=int, default=50, metavar="N",
                    help="records to retain (default %(default)s)")
    hp.add_argument("--dry-run", action="store_true",
                    help="list victims without deleting")
    _store_args(hp, filters=False)

    p = sub.add_parser(
        "serve",
        help="run the prediction-as-a-service HTTP daemon",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default %(default)s)")
    p.add_argument("--port", type=int, default=8023,
                   help="bind port, 0 = ephemeral (default %(default)s)")
    p.add_argument("--workers", type=int, default=2,
                   help="simulation pool processes; 0 runs jobs inline "
                        "on a thread (default %(default)s)")
    p.add_argument("--core", default=None, choices=CORES,
                   help="simulation core for every job (default "
                        "$REPRO_SIM_CORE or object); resolved once and "
                        "threaded into pool workers")
    p.add_argument("--store", metavar="DIR",
                   help="run-history store doubling as the result cache "
                        "(default $REPRO_RUNSTORE or .repro/runs)")
    p.add_argument("--queue-depth", type=int, default=256,
                   help="queued-job admission limit before HTTP 429 "
                        "(default %(default)s)")
    p.add_argument("--job-timeout", type=float, default=600.0,
                   metavar="S",
                   help="per-job execution ceiling in seconds "
                        "(default %(default)s)")
    p.add_argument("--idle-timeout", type=float, default=60.0,
                   metavar="S",
                   help="keep-alive connection idle ceiling in seconds "
                        "(default %(default)s)")
    p.add_argument("--metrics", metavar="PATH",
                   help="append serve telemetry events (JSONL) to PATH "
                        "on shutdown")
    p.add_argument("--trace", action="store_true",
                   help="record a span tree per request (browse with "
                        "GET /v1/traces; also $REPRO_TRACING=1)")
    p.add_argument("--trace-log", metavar="PATH",
                   help="with --trace: also append every span record "
                        "(JSONL) to PATH as it completes")
    p.add_argument("--slow-request", type=float, default=None,
                   metavar="S",
                   help="with --trace: dump the span tree of any "
                        "request slower than S seconds to stderr")

    p = sub.add_parser(
        "trace", help="inspect span JSONL written by --trace"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)
    tp = tsub.add_parser("show", help="render span tree + critical path")
    tp.add_argument("path", help="span JSONL file")
    tp.add_argument("--trace-id", default=None,
                    help="render only this trace (default: all)")
    tp = tsub.add_parser("list", help="one summary line per trace")
    tp.add_argument("path", help="span JSONL file")

    p = sub.add_parser(
        "top", help="live dashboard for a running serve daemon"
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="daemon address (default %(default)s)")
    p.add_argument("--port", type=int, default=8023,
                   help="daemon port (default %(default)s)")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="refresh period in seconds (default %(default)s)")
    p.add_argument("--once", action="store_true",
                   help="print one plain-text snapshot and exit "
                        "(no curses; usable in scripts/CI)")

    p = sub.add_parser("telemetry-report",
                       help="summarise a --metrics JSONL file")
    p.add_argument("path", help="JSONL file written by --metrics")
    p.add_argument("--profile", action="store_true",
                   help="treat PATH as a `repro profile --events` file "
                        "and render the attribution report")
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="with --profile: show the K worst branches")

    sub.add_parser("clear-cache", help="delete cached traces")
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run_experiments,
    "run-experiment": _cmd_run_experiments,
    "run-all": _cmd_run_experiments,
    "simulate": _cmd_simulate,
    "characterise": _cmd_characterise,
    "hotspots": _cmd_hotspots,
    "profile": _cmd_profile,
    "analyze": _cmd_analyze,
    "lint": _cmd_lint,
    "disasm": _cmd_disasm,
    "history": _cmd_history,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "telemetry-report": _cmd_telemetry_report,
    "clear-cache": _cmd_clear_cache,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args._argv = argv  # full invocation, recorded into RunRecords
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
