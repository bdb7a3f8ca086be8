"""Command line of the pipeline benchmark.

Subcommands::

    measure --workload W --seed N --seconds S --trace 0|1 [--core C]
        one workload, as BENCHMARK.json's command runs it; the last
        stdout line is the JSON result
    run --seed N [--workload W] [--traced] [--out DIR] [--record]
        every workload (or one), each in its own processes, serially;
        prints every metric by name and unit
    compare PARENT... -- CHANGE...
        medians, quartiles and BENCHMARK.json bounds per (workload,
        metric); exits 1 on a regression
    bench DIR...
        the JSON of a BENCH_pipeline.json baseline built from ``run
        --out`` directories
    goldens
        re-derive goldens.json; refuses unless the object core gives
        bit-identical runall-warm and kernel-sweep outputs
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.pipeline import common
from benchmarks.pipeline.clock import SpeedClock
from benchmarks.pipeline.common import (
    CORES,
    GOLDENS,
    ROOT,
    SETUPS,
    SRC,
    WORKLOADS,
    BenchError,
)

#: Generous ceiling on one workload process (set-up plus measurement).
CHILD_TIMEOUT = 170.0


def _require_program() -> bool:
    if (SRC / "repro" / "__init__.py").is_file():
        return True
    print(f"pipeline benchmark: no program at {SRC / 'repro'}; run it "
          "from the root of a full checkout", file=sys.stderr)
    return False


# -- one workload -------------------------------------------------------------


def _module(*args: str) -> List[str]:
    return [sys.executable, "-m", "benchmarks.pipeline", *args]


def measure(workload: str, seed: int, seconds: float, traced: bool,
            core: str, goldens: Path = GOLDENS) -> Tuple[int, dict]:
    """Run one workload; returns (exit status, report).

    The workload process is started :data:`~common.SETUPS` times.  Each
    start is timed until it reports ready, between two speed probes on
    the CPU it runs on, and calibrated (``setup_s`` is the median); the
    middle one then measures, so the set-ups spread over the whole run.
    This process imports nothing from ``repro``: a child's
    ``ru_maxrss`` starts at its parent's resident set, so
    ``peak_rss_mb`` needs a small parent.
    """
    env = common.environment()
    common.pin_to_one_cpu()
    subprocess.run(_module("prepare", workload, "--core", core), cwd=ROOT,
                   env=env, check=True, timeout=CHILD_TIMEOUT)
    args = [workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(traced)), "--core", core,
            "--goldens", str(goldens)]
    clock = SpeedClock()
    setups = []
    result = None
    for attempt in range(SETUPS):
        clock.probe()
        start = time.perf_counter()
        child = subprocess.Popen(
            _module("child", *args), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT, child.kill)
        watchdog.start()
        try:
            line = child.stdout.readline()
            if line.strip() != "ready":
                raise BenchError(
                    f"{workload} process did not get ready: {line!r}"
                )
            ready = time.perf_counter()
            clock.probe()  # the child waits for "go" meanwhile
            setups.append(clock.calibrate(start, ready))
            measures = attempt == SETUPS // 2
            out, _ = child.communicate("go\n" if measures else "exit\n")
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()
            child.wait()
        if child.returncode != 0:
            raise BenchError(
                f"{workload} process exited with {child.returncode}"
            )
        if measures:
            result = json.loads(out.strip().splitlines()[-1])

    metrics = result["metrics"]
    if not traced:
        metrics["setup_s"] = statistics.median(setups)
    values = {
        name: {"value": float(metrics[name]), "unit": entry["unit"]}
        for name, entry in common.declared(traced).items()
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "traced": traced, "core": core, "rounds": result["rounds"],
        "setup_samples": setups, "attempted": result["attempted"],
        "failed": result["failed"],
        "golden_mismatches": result["golden_mismatches"],
        "metrics": values,
    }
    # Traced: the unit pairs' totals bench.overhead_share divides.
    # Untraced: what the speed calibration started from.
    extras = (("paired_traced_s", "paired_untraced_s") if traced else
              ("raw_wall_s", "probes", "probe_fastest_ms",
               "probe_median_ms"))
    for key in extras:
        report[key] = result[key]
    ok = report["golden_mismatches"] == 0 and report["failed"] == 0
    return (0 if ok else 1), report


def _measure_cli(args) -> int:
    if not _require_program():
        return 2
    status, report = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.core)
    print(f"{args.workload} seed={args.seed}: {report['rounds']} rounds, "
          f"{report['attempted']} ops, {report['failed']} failed, "
          f"{report['golden_mismatches']} golden mismatches",
          file=sys.stderr)
    print(json.dumps({
        "correct": report["golden_mismatches"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return status


def _child_cli(args) -> int:
    from benchmarks.pipeline import harness

    return harness.child(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.core, args.goldens)


def _prepare_cli(args) -> int:
    from benchmarks.pipeline import harness

    harness.prepare(args.workload, args.core)
    return 0


# -- a set of workloads -------------------------------------------------------


def _core_from_benchmark(spec: dict) -> str:
    command = spec["command"]
    return command[command.index("--core") + 1]


def _print_report(report: dict) -> None:
    attempted = max(report["attempted"], 1)
    print(f"\n{report['workload']} (seed {report['seed']}, "
          f"{'traced' if report['traced'] else 'untraced'}, "
          f"{report['rounds']} rounds, {report['attempted']} ops)")
    rows = [(name, item["value"], item["unit"])
            for name, item in report["metrics"].items()]
    rows += [("error_share", report["failed"] / attempted, "share"),
             ("golden_mismatches", report["golden_mismatches"], "count")]
    for name, value, unit in rows:
        print(f"  {name:32s} {value:14.6g} {unit}")


def _run_cli(args) -> int:
    if not _require_program():
        return 2
    spec = common.load_benchmark()
    core = _core_from_benchmark(spec)
    seconds = spec["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    status = 0
    start = time.perf_counter()
    for workload in workloads:
        code, report = measure(workload, args.seed, seconds, args.traced,
                               core)
        status = status or code
        reports.append(report)
        _print_report(report)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{workload}.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
    if args.record:
        _record(reports, args, core, seconds, time.perf_counter() - start)
    return status


def _record(reports, args, core: str, seconds: float, wall: float) -> None:
    """Append one ``benchmark`` RunRecord (``repro history trend``)."""
    from repro.runstore import RunRecord, RunStore

    record = RunRecord(
        kind="benchmark", label="pipeline", scale=common.SCALE,
        compile_config="",
        matrix={"workloads": [r["workload"] for r in reports],
                "seed": args.seed, "traced": args.traced, "core": core,
                "seconds": seconds},
        metrics={
            f"{r['workload']}.{name}": item["value"]
            for r in reports for name, item in r["metrics"].items()
        },
        command=" ".join(["python -m benchmarks.pipeline", *sys.argv[1:]]),
        wall_seconds=wall, sim_core=core,
    )
    path = RunStore().add(record.seal())
    print(f"\nrecorded run {record.run_id} in {path}")


# -- comparing sets -----------------------------------------------------------


def _load_sets(source: str) -> List[Dict[str, dict]]:
    """A ``run --out`` directory is one set; a BENCH file holds many."""
    path = Path(source)
    if path.is_dir():
        return [{
            report["workload"]: report
            for report in (json.loads(p.read_text())
                           for p in sorted(path.glob("*.json")))
        }]
    return json.loads(path.read_text())["sets"]


def _values(sets, workload: str, metric: str, traced: bool) -> List[float]:
    return [
        s[workload]["metrics"][metric]["value"]
        for s in sets
        if workload in s and s[workload]["traced"] == traced
        and metric in s[workload]["metrics"]
    ]


def compare(parents: List[str], changes: List[str]) -> int:
    spec = common.load_benchmark()
    before = [s for source in parents for s in _load_sets(source)]
    after = [s for source in changes for s in _load_sets(source)]
    regressions = 0
    print(f"{'workload':13s} {'metric':16s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'worse':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            p = _values(before, workload, name, False)
            c = _values(after, workload, name, False)
            if not p or not c:
                continue
            pq, cq = common.quartiles(p), common.quartiles(c)
            lower = entry["better"] == "lower"
            worse = (cq[1] - pq[1]) / pq[1] * (1.0 if lower else -1.0)
            spread = (pq[2] - pq[0]) / pq[1]
            all_better = (max(c) < min(p)) if lower else (min(c) > max(p))
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:13s} {name:16s} "
                  f"{'/'.join(f'{v:.4g}' for v in pq):>32s} "
                  f"{'/'.join(f'{v:.4g}' for v in cq):>32s} "
                  f"{worse:+8.1%} {bound:6.0%}  {verdict}")
    print("\nper-layer self time, median seconds per round (traced sets):")
    for workload in WORKLOADS:
        for entry in spec["per_layer"]:
            if entry["unit"] != "s":
                continue
            p = _values(before, workload, entry["name"], True)
            c = _values(after, workload, entry["name"], True)
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            if pm or cm:
                print(f"  {workload:13s} {entry['name']:28s} "
                      f"{pm:10.4f} -> {cm:10.4f} ({cm - pm:+.4f})")
    return 1 if regressions else 0


def _compare_cli(args) -> int:
    if "--" not in args.sources:
        print("compare: separate parent and change sources with --",
              file=sys.stderr)
        return 2
    split = args.sources.index("--")
    return compare(args.sources[:split], args.sources[split + 1:])


def _bench_cli(args) -> int:
    common.environment()
    from repro.runstore.record import git_state

    sets = [s for source in args.dirs for s in _load_sets(source)]
    print(json.dumps({
        "commit": git_state(ROOT)["sha"],
        "machine": {"cpus": os.cpu_count(),
                    "processor": platform.processor() or platform.machine(),
                    "python": platform.python_version()},
        "scale": common.SCALE,
        "sets": sets,
    }, indent=1, sort_keys=True))
    return 0


def _goldens_cli(args) -> int:
    if not _require_program():
        return 2
    common.environment()
    from benchmarks.pipeline import harness

    harness.prepare("runall-warm", "fast")
    goldens = harness.derive_goldens("fast", WORKLOADS)
    checked = ("runall-warm", "kernel-sweep")
    reference = harness.derive_goldens("object", checked)
    for workload in checked:
        differ = harness.mismatches(reference[workload], goldens[workload])
        if differ:
            print(f"goldens: {workload} differs between the fast and "
                  f"object cores in {differ} values; not writing",
                  file=sys.stderr)
            return 1
    # One line per golden entry keeps the file small and diffable.
    blocks = []
    for workload in sorted(goldens):
        entries = goldens[workload]
        lines = ",\n".join(
            f"  {json.dumps(key)}: "
            + json.dumps(entries[key], sort_keys=True, separators=(",", ":"))
            for key in sorted(entries)
        )
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    GOLDENS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {GOLDENS}")
    return 0


# -- argument parsing ---------------------------------------------------------


def _workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--core", default="fast", choices=CORES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.pipeline",
        description="Pipeline benchmark: cold-trace, runall-warm, "
                    "kernel-sweep, serve-mixed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="measure one workload")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    _workload_args(p)

    p = sub.add_parser("child", help="one workload process (internal)")
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("--goldens", required=True)
    _workload_args(p)

    p = sub.add_parser("prepare",
                       help="fill the warm trace cache (internal)")
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("--core", default="fast", choices=CORES)

    p = sub.add_parser("run", help="measure every workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--traced", action="store_true",
                   help="per-layer metrics instead of end-to-end ones")
    p.add_argument("--out", metavar="DIR",
                   help="write one <workload>.json report per workload")
    p.add_argument("--record", action="store_true",
                   help="append a benchmark RunRecord to the run store")

    p = sub.add_parser("compare", help="compare parent and change sets")
    p.add_argument("sources", nargs=argparse.REMAINDER,
                   help="PARENT... -- CHANGE... (run --out dirs or "
                        "BENCH files)")

    p = sub.add_parser("bench", help="combine run --out dirs as JSON")
    p.add_argument("dirs", nargs="+")

    sub.add_parser("goldens", help="re-derive goldens.json")
    return parser


HANDLERS = {
    "measure": _measure_cli, "child": _child_cli, "prepare": _prepare_cli,
    "run": _run_cli, "compare": _compare_cli, "bench": _bench_cli,
    "goldens": _goldens_cli,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except Exception as exc:  # report, never print a result line
        if args.command in ("child", "prepare"):
            raise
        traceback.print_exc()
        print(f"pipeline benchmark: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
