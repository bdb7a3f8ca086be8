"""The four pipeline workloads and the loop that measures them.

Every workload is a fixed set of *units*: one cold trace build, one
experiment, one per-trace sweep, or one serve session (a fresh daemon
answering the seed's 800 requests).  A round runs every unit once, in an
order the seed permutes; a run makes at least one round, and more while
another fits in ``--seconds``.  The workload process and everything it
starts run on one CPU (:func:`~benchmarks.pipeline.common.pin_to_one_cpu`
in the process that starts it).

Each unit times only its call into the program, as an interval, and
returns the outputs that :data:`~benchmarks.pipeline.common.GOLDENS`
pins.  An untraced run calibrates every interval with a
:class:`~benchmarks.pipeline.clock.SpeedClock`, which probes the host's
speed between units and between the program's phase-grained calls; a
unit's time is the median of its calibrated times over the rounds, and
``wall_s`` their sum.  With tracing on, every unit runs twice back to
back, once on the bare program and once under
:class:`~benchmarks.pipeline.layers.Tracer`, alternating which goes
first, so the traced run measures its own overhead from the two halves'
calibrated times; it probes only between units, outside the spans.
"""

import asyncio
import functools
import hashlib
import inspect
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments import EXPERIMENTS
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.runstore import RunRecord
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.executor import execute_job
from repro.serve.protocol import canonicalize
from repro.sim import SimOptions, sweep, use_core
from repro.telemetry import MetricsRegistry, use_registry
from repro.trace import Trace, TraceCache
from repro.workloads import all_workloads

from benchmarks.pipeline import layers
from benchmarks.pipeline.clock import SpeedClock
from benchmarks.pipeline.common import BenchError, SCALE, WORK, percentile

#: Trace arrays, in constructor order (digests and fresh copies).
TRACE_FIELDS = tuple(
    name for name in inspect.signature(Trace).parameters if name != "meta"
)

#: kernel-sweep grid: every kernelized family at four table sizes, under
#: the four front ends.  No point falls back to the object core.
SWEEP_FAMILIES = ("bimodal", "gshare", "gselect", "gag", "local")
SWEEP_SIZES = (256, 1024, 4096, 16384)
SWEEP_GRID = (
    SimOptions(),
    SimOptions(sfp=SFPConfig()),
    SimOptions(pgu=PGUConfig()),
    SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
)

#: serve-mixed key space: 15 workloads x 5 predictors x sfp x pgu x
#: {hyperblock, baseline} = 600 simulate requests.  tage, static and
#: perfect are left out: the daemon answers them with HTTP 500.
SERVE_PREDICTORS = ("gshare", "bimodal", "local", "tournament", "perceptron")
ZIPF_EXPONENT = 1.2
#: Requests per serve session; a quarter of them miss.
SERVE_REQUESTS = 800
#: Per-layer metrics only serve-mixed measures; the other workloads
#: read 0.
SERVE_LAYERS = (
    "serve.hit_share", "serve.coalesced", "serve.jobs_failed",
    "serve.queue_wait_p50_ms", "serve.queue_wait_p95_ms",
    "serve.exec_p50_ms", "serve.exec_p95_ms", "serve.hit_p50_ms",
    "serve.hit_p95_ms", "serve.miss_p50_ms", "serve.miss_p90_ms",
)


#: A timed interval: (start, end) in ``time.perf_counter`` seconds.
Interval = Tuple[float, float]


@dataclass
class Outcome:
    """One unit's timed call and what it produced."""

    start: float
    end: float
    outputs: dict  #: golden key -> value, compared with goldens.json
    #: per-operation intervals, in a fixed order; default: the unit itself
    ops: List[Interval] = field(default_factory=list)
    branches: int = 0  #: branch events recorded or simulated
    failed: int = 0  #: operations that failed

    @property
    def seconds(self) -> float:
        return self.end - self.start


# -- goldens ------------------------------------------------------------------


def mismatches(expected, actual) -> int:
    """Leaf values that differ between a golden entry and an output."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        return sum(
            mismatches(expected.get(key), actual.get(key))
            for key in set(expected) | set(actual)
        )
    if isinstance(expected, list) and isinstance(actual, list):
        return sum(
            mismatches(e, a) for e, a in zip(expected, actual)
        ) + abs(len(expected) - len(actual))
    return int(expected != actual)


class Checker:
    """Counts golden mismatches over every output of a run."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.mismatches = 0

    def check(self, outputs: dict) -> None:
        for key, value in outputs.items():
            self.mismatches += mismatches(self.goldens.get(key), value)


def trace_digest(trace: Trace) -> str:
    digest = hashlib.sha256()
    for name in TRACE_FIELDS:
        array = np.ascontiguousarray(getattr(trace, name))
        digest.update(f"{name}:{array.dtype}:{array.shape}".encode())
        digest.update(array.tobytes())
    meta = trace.meta
    digest.update(f"{meta.instructions}:{meta.return_value}".encode())
    return digest.hexdigest()[:16]


def suite() -> List[Tuple[str, object, bool]]:
    """(key, workload, hyperblocks) for the 15 x 2 suite traces."""
    return [
        (f"{w.name}/{'hyperblock' if hb else 'baseline'}", w, hb)
        for w in all_workloads()
        for hb in (False, True)
    ]


def _counter(registry: MetricsRegistry, name: str) -> int:
    counter = registry.counters.get(name)
    return counter.value if counter is not None else 0


# -- workloads ----------------------------------------------------------------


class Bench:
    """A workload: set-up, its units, and its per-layer metrics."""

    name = ""
    #: whether the units call the program in this process, where the
    #: tracer can wrap it
    in_process = True

    def __init__(self, core: str, seed: int):
        self.core = core
        self.seed = seed
        #: a SpeedClock's tick in an untraced run, for units whose calls
        #: into the program run in another process
        self.tick: Callable[[], None] = lambda: None

    def setup(self) -> None:
        """What ``setup_s`` times, after the imports."""

    def units(self) -> List[Tuple[str, Callable[[], Outcome]]]:
        raise NotImplementedError

    def layer_metrics(self, tracer: layers.Tracer, rounds: int,
                      traced_seconds: float) -> Dict[str, float]:
        spans = tracer.spans
        metrics = layers.layer_metrics(spans, rounds)
        metrics.update(dict.fromkeys(SERVE_LAYERS, 0.0))
        metrics["bench.coverage"] = (
            sum(layers.self_times(spans)) / traced_seconds
            if traced_seconds else 0.0
        )
        return metrics

    def close(self) -> None:
        """Stop whatever :meth:`setup` or a unit left running."""


class ColdTrace(Bench):
    """Build the 30 suite traces, each into a fresh empty trace cache."""

    name = "cold-trace"

    def units(self):
        return [
            (key, functools.partial(self.build, key, workload, hb))
            for key, workload, hb in suite()
        ]

    def build(self, key, workload, hyperblocks) -> Outcome:
        directory = tempfile.mkdtemp(prefix="cold-", dir=WORK)
        try:
            cache = TraceCache(directory)
            start = time.perf_counter()
            trace = workload.trace(
                scale=SCALE, hyperblocks=hyperblocks, cache=cache
            )
            end = time.perf_counter()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if cache.builds != 1:
            raise BenchError(f"{key}: cold cache did not build")
        return Outcome(
            start, end,
            {key: {"digest": trace_digest(trace),
                   "return_value": trace.meta.return_value}},
            branches=trace.num_branches,
        )


def run_experiment(exp_id: str, core: str) -> Tuple[Interval, object,
                                                   MetricsRegistry]:
    """One experiment at the benchmark scale, serial, on ``core``."""
    run = EXPERIMENTS[exp_id].run
    kwargs = {"scale": SCALE}
    if "workers" in inspect.signature(run).parameters:
        kwargs["workers"] = 1
    registry = MetricsRegistry()
    with use_core(core), use_registry(registry):
        start = time.perf_counter()
        result = run(**kwargs)
        end = time.perf_counter()
    return (start, end), result, registry


class RunAllWarm(Bench):
    """All 15 experiments on a warm trace cache (``repro run-all``)."""

    name = "runall-warm"

    def units(self):
        return [
            (exp_id, functools.partial(self.experiment, exp_id))
            for exp_id in EXPERIMENTS
        ]

    def experiment(self, exp_id: str) -> Outcome:
        (start, end), result, registry = run_experiment(exp_id, self.core)
        if _counter(registry, "trace_cache.builds"):
            raise BenchError(f"{exp_id} built a trace on the warm cache")
        return Outcome(
            start, end, {exp_id: result.numeric_metrics()},
            branches=_counter(registry, "sim.branches"),
        )


def sweep_factories() -> Dict[str, Callable]:
    return {
        f"{family}-{size}": functools.partial(
            make_predictor, family, entries=size
        )
        for family in SWEEP_FAMILIES
        for size in SWEEP_SIZES
    }


class KernelSweep(Bench):
    """``sweep()`` of every suite trace over 80 kernelized points."""

    name = "kernel-sweep"

    def setup(self) -> None:
        self.traces = {
            key: workload.trace(scale=SCALE, hyperblocks=hb)
            for key, workload, hb in suite()
        }

    def units(self):
        factories = sweep_factories()
        return [
            (key, functools.partial(self.sweep_trace, key, factories))
            for key in self.traces
        ]

    def sweep_trace(self, key: str, factories) -> Outcome:
        # A fresh Trace object per call: replay plans are cached on the
        # trace, and every round must decode its plans again.
        source = self.traces[key]
        trace = Trace(
            **{name: getattr(source, name) for name in TRACE_FIELDS},
            meta=source.meta,
        )
        points: List[Interval] = []

        def progress(report) -> None:
            # Called as soon as the point's simulation returns.
            now = time.perf_counter()
            points.append((now - report.seconds, now))

        start = time.perf_counter()
        results = sweep(
            {key: trace}, factories, SWEEP_GRID, workers=1,
            core=self.core, progress=progress,
        )
        end = time.perf_counter()
        return Outcome(
            start, end,
            {key: [[r.branches, r.mispredictions, r.squashed]
                   for r in results]},
            ops=points,
            branches=sum(r.branches for r in results),
        )


# -- serve-mixed --------------------------------------------------------------


def serve_keys() -> List[dict]:
    """The 600 simulate request bodies, in canonical order."""
    return [
        {"workload": w.name, "predictor": predictor, "sfp": sfp,
         "pgu": pgu, "baseline": baseline, "scale": SCALE}
        for w in all_workloads()
        for predictor in SERVE_PREDICTORS
        for sfp in (False, True)
        for pgu in (False, True)
        for baseline in (False, True)
    ]


def serve_key(body: dict) -> str:
    return "/".join((
        body["workload"], body["predictor"],
        "sfp" if body["sfp"] else "-", "pgu" if body["pgu"] else "-",
        "baseline" if body["baseline"] else "hyperblock",
    ))


def serve_requests(seed: int) -> List[dict]:
    """The :data:`SERVE_REQUESTS` simulate bodies of one session.

    The key at rank r of a fixed mixed order gets its Zipf(1.2) share of
    the requests (largest remainder), which is what i.i.d. Zipf draws
    give on average.  The seed shuffles the request order only, so every
    seed asks for the same keys as often and pays the same misses:
    letting it also pick which sfp/pgu variant of a (workload,
    predictor, compile config) group holds which rank moved the misses'
    cost by 2.7% (quartile spread over 20 seeds).
    """
    keys = serve_keys()
    random.Random(0).shuffle(keys)
    weights = [rank ** -ZIPF_EXPONENT for rank in range(1, len(keys) + 1)]
    quotas = [SERVE_REQUESTS * w / sum(weights) for w in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(len(keys)),
                          key=lambda r: counts[r] - quotas[r])
    for rank in by_remainder[:SERVE_REQUESTS - sum(counts)]:
        counts[rank] += 1
    requests = [body for body, n in zip(keys, counts) for _ in range(n)]
    random.Random(seed).shuffle(requests)
    return requests


def serve_run_id(body: dict, core: str) -> str:
    """The ``run_id`` the daemon publishes for ``body``, computed
    in-process exactly as ``ServeServer._publish`` seals it."""
    spec = canonicalize("simulate", body)
    out = execute_job(spec.spec, core)
    record = RunRecord(
        kind=spec.kind, label=spec.label, scale=spec.stub["scale"],
        compile_config=spec.stub["compile_config"],
        matrix=spec.stub["matrix"], metrics=out["metrics"],
        timestamp="-", git={"sha": "", "dirty": False}, version="-",
    )
    return record.seal().run_id


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral port and fresh store."""

    def __init__(self, core: str):
        self.store = tempfile.mkdtemp(prefix="serve-", dir=WORK)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--core", core, "--store", self.store],
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://[^ ]+:(\d+)", line)
            if match is None:
                raise BenchError(f"daemon did not start: {line!r}")
            self.port = int(match.group(1))
            status, _ = self._get("/v1/healthz")
            if status != 200:
                raise BenchError(f"daemon /healthz answered {status}")
        except BaseException:
            self.stop()
            raise

    def _get(self, path: str):
        with ServeClient(port=self.port, timeout=30.0) as client:
            return client.request("GET", path)

    def metrics(self) -> dict:
        status, body = self._get("/v1/metrics")
        if status != 200:
            raise BenchError(f"daemon /metrics answered {status}")
        return body

    def stop(self) -> None:
        """SIGINT (a clean shutdown joins the pool worker), then wait."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            try:
                # Anything left in the daemon's session goes too.
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            self.proc.stdout.close()
        finally:
            shutil.rmtree(self.store, ignore_errors=True)


async def _drive(port: int, bodies: List[dict], tick: Callable[[], None]):
    """Closed loop over one keep-alive connection: each request is sent
    when the previous one answers, after calling ``tick``.  One
    connection, so that the daemon is idle while ``tick`` probes the
    host's speed on the CPU they share.

    Returns (start, end, [(start, end, status, reply)] in request order).
    """
    log: List[tuple] = []
    client = AsyncServeClient(port=port)
    start = time.perf_counter()
    try:
        for body in bodies:
            tick()
            sent = time.perf_counter()
            status, reply = await client.request(
                "POST", "/v1/simulate", body
            )
            log.append((sent, time.perf_counter(), status, reply))
    finally:
        await client.close()
    return start, time.perf_counter(), log


class ServeMixed(Bench):
    """A fresh daemon per session, driven closed-loop through the seed's
    Zipf-shaped request mix."""

    name = "serve-mixed"
    in_process = False

    def __init__(self, core: str, seed: int):
        super().__init__(core, seed)
        self.daemon: Optional[Daemon] = None
        self.bodies = serve_requests(seed)
        #: every session's /metrics scrape and client-side latencies
        self.scrapes: List[dict] = []
        self.hits: List[float] = []
        self.misses: List[float] = []

    def setup(self) -> None:
        self.daemon = Daemon(self.core)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def units(self):
        return [("session", self.session)]

    def session(self) -> Outcome:
        if self.daemon is None:
            self.daemon = Daemon(self.core)
        try:
            start, end, log = asyncio.run(
                _drive(self.daemon.port, self.bodies, self.tick)
            )
            scrape = self.daemon.metrics()
        finally:
            self.close()
        if scrape.get("counters", {}).get("trace_cache.builds", 0):
            raise BenchError("the daemon built a trace on the warm cache")
        self.scrapes.append(scrape)

        failed = 0
        bodies: Dict[str, dict] = {}
        outputs: Dict[str, str] = {}
        branches: Dict[str, float] = {}
        for body, (sent, answered, status, reply) in zip(self.bodies, log):
            if status != 200:
                failed += 1
                continue
            key = serve_key(body)
            # A hit's body equals the miss body except for "cached".
            same = {k: v for k, v in reply.items() if k != "cached"}
            if bodies.setdefault(key, same) != same:
                outputs[key] = "bodies differ"
            else:
                outputs.setdefault(key, reply["run_id"])
            if reply["cached"]:
                self.hits.append(answered - sent)
            else:
                self.misses.append(answered - sent)
                metric = f"{body['workload']}.branches"
                branches[key] = reply["metrics"][metric]
        return Outcome(
            start, end, outputs, ops=[entry[:2] for entry in log],
            branches=int(sum(branches.values())), failed=failed,
        )

    def layer_metrics(self, tracer, rounds, traced_seconds):
        """serve.* from the daemon's own /metrics plus the client's
        hit/miss split; the in-process layers read zero here."""
        metrics = layers.layer_metrics([], 1)
        merged = MetricsRegistry()
        for scrape in self.scrapes:
            merged.merge(MetricsRegistry.from_snapshot(scrape))
        sessions = len(self.scrapes)
        count = functools.partial(_counter, merged)

        def quantile_ms(name: str, q: float) -> float:
            histogram = merged.histograms.get(name)
            return histogram.percentile(q) * 1e3 if histogram else 0.0

        hit, miss = count("serve.cache_hit"), count("serve.cache_miss")
        runs = count("sim.runs")
        kernel = count("sim.core.fast") + count("sim.core.numpy")
        metrics.update({
            "sim.points": runs / sessions,
            "sim.object_points": (runs - kernel) / sessions,
            "sim.fallback_share": (runs - kernel) / runs if runs else 0.0,
            "trace.load_calls": count("trace_cache.hits") / sessions,
            "trace.builds": count("trace_cache.builds") / sessions,
            "serve.hit_share": hit / (hit + miss) if hit + miss else 0.0,
            "serve.coalesced": count("serve.coalesced") / sessions,
            "serve.jobs_failed": count("serve.jobs_failed") / sessions,
            "serve.queue_wait_p50_ms": quantile_ms(
                "serve.queue_wait_seconds", 0.50),
            "serve.queue_wait_p95_ms": quantile_ms(
                "serve.queue_wait_seconds", 0.95),
            "serve.exec_p50_ms": quantile_ms("serve.exec_seconds", 0.50),
            "serve.exec_p95_ms": quantile_ms("serve.exec_seconds", 0.95),
            "serve.hit_p50_ms": percentile(self.hits, 50) * 1e3,
            "serve.hit_p95_ms": percentile(self.hits, 95) * 1e3,
            "serve.miss_p50_ms": percentile(self.misses, 50) * 1e3,
            "serve.miss_p90_ms": percentile(self.misses, 90) * 1e3,
            # Nothing is wrapped in the client or the daemon.
            "bench.coverage": 0.0,
        })
        return metrics


# -- the measurement loop -----------------------------------------------------


def end_to_end(samples: List[Tuple[str, Outcome]],
               clock: SpeedClock) -> Dict[str, float]:
    """The timed metrics of an untraced run, from every unit's outcome
    in every round, each interval calibrated by ``clock``.

    A unit's time, and an operation's latency, is its median over the
    rounds; ``wall_s`` sums the units' times, and the percentiles are
    over the operations' latencies.
    """
    times: Dict[str, List[float]] = {}
    latencies: Dict[Tuple[str, int], List[float]] = {}
    branches: Dict[str, int] = {}
    for key, outcome in samples:
        times.setdefault(key, []).append(
            clock.calibrate(outcome.start, outcome.end)
        )
        intervals = outcome.ops or [(outcome.start, outcome.end)]
        for index, interval in enumerate(intervals):
            latencies.setdefault((key, index), []).append(
                clock.calibrate(*interval)
            )
        branches[key] = outcome.branches
    wall_s = sum(statistics.median(values) for values in times.values())
    ops = [statistics.median(values) for values in latencies.values()]
    return {
        "wall_s": wall_s,
        "ops_per_s": len(ops) / wall_s,
        "op_p50_ms": percentile(ops, 50) * 1e3,
        # Not p90: on serve-mixed, 81 of the 800 requests are misses on
        # the object core, so p90 sits on the step between those and
        # kernel misses and jumps with the least noise.
        "op_p95_ms": percentile(ops, 95) * 1e3,
        "mbranch_per_s": sum(branches.values()) / wall_s / 1e6,
    }


def measure_rounds(bench: Bench, seconds: float, traced: bool,
                   checker: Checker) -> dict:
    """Rounds of every unit until another would exceed ``seconds``."""
    units = bench.units()
    rng = random.Random(bench.seed)
    paired = traced and bench.in_process
    tracer = layers.Tracer() if paired else None
    # Probes come between units, and in an untraced run also between
    # the program's calls inside a unit, where a traced run's spans are.
    clock = SpeedClock()
    checkpoints = None
    if not traced:
        bench.tick = clock.tick
        if bench.in_process:
            checkpoints = layers.Checkpoints(clock.tick)
            checkpoints.install()
    samples: List[Tuple[str, Outcome]] = []  # untraced run: every unit
    pairs: List[Dict[bool, Outcome]] = []  # traced run: complete pairs
    traced_seconds = 0.0
    attempted = failed = rounds = 0
    start = time.perf_counter()
    last = 0.0
    try:
        while rounds == 0 or time.perf_counter() - start + last <= seconds:
            round_start = time.perf_counter()
            rng.shuffle(units)
            for index, (key, fn) in enumerate(units):
                modes = (False,)
                if paired:
                    modes = (True, False) if (index + rounds) % 2 else (
                        False, True)
                pair = {}
                for on in modes:
                    clock.probe()
                    if on:
                        tracer.install()
                    try:
                        outcome = fn()
                    except Exception:
                        traceback.print_exc()
                        attempted += 1
                        failed += 1
                        continue
                    finally:
                        if on:
                            tracer.uninstall()
                    checker.check(outcome.outputs)
                    attempted += len(outcome.ops) or 1
                    failed += outcome.failed
                    pair[on] = outcome
                    if on:
                        traced_seconds += outcome.seconds
                    elif not traced:
                        samples.append((key, outcome))
                if len(pair) == 2:
                    pairs.append(pair)
            rounds += 1
            last = time.perf_counter() - round_start
        clock.probe()  # closes the last stretch
    finally:
        if checkpoints is not None:
            checkpoints.uninstall()

    extra = {}
    if traced:
        metrics = bench.layer_metrics(tracer, rounds, traced_seconds)
        # The halves of a pair run back to back and are calibrated, so
        # machine drift cancels out of the totals, and the units that
        # dominate a round weigh in with their share of it.  With
        # nothing wrapped (serve-mixed) there is no overhead to measure.
        pair_totals = {
            on: sum(clock.calibrate(p[on].start, p[on].end) for p in pairs)
            for on in (True, False)
        }
        metrics["bench.overhead_share"] = (
            pair_totals[True] / pair_totals[False] - 1.0
            if pair_totals[False] else 0.0
        )
        extra = {"paired_traced_s": pair_totals[True],
                 "paired_untraced_s": pair_totals[False]}
    else:
        metrics = end_to_end(samples, clock)
        # What the calibration started from, for the report.
        extra = {
            "raw_wall_s": sum(o.seconds for _, o in samples) / rounds,
            "probes": len(clock.readings),
            "probe_fastest_ms": min(clock.readings) * 1e3,
            "probe_median_ms": statistics.median(clock.readings) * 1e3,
        }
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "metrics": metrics, **extra}


# -- entry points used by the CLI ---------------------------------------------

BENCHES = {cls.name: cls for cls in (ColdTrace, RunAllWarm, KernelSweep,
                                     ServeMixed)}


def prepare(workload: str, core: str) -> None:
    """Untimed: fill the warm trace cache the workload reads."""
    if workload == "cold-trace":
        return
    for _, w, hb in suite():
        w.trace(scale=SCALE, hyperblocks=hb)
    if workload == "runall-warm":
        # E10 and E15 compile 11 traces outside the suite.
        for exp_id in ("E10", "E15"):
            run_experiment(exp_id, core)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def child(workload: str, seed: int, seconds: float, traced: bool,
          core: str, goldens_path: str) -> int:
    """One workload process: set up, report ready, then either exit or
    measure and print the result as one JSON line."""
    with open(goldens_path) as handle:
        checker = Checker(json.load(handle)[workload])
    bench = BENCHES[workload](core, seed)
    try:
        bench.setup()
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        result = measure_rounds(bench, seconds, traced, checker)
    finally:
        bench.close()
    if not traced:
        result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    result["golden_mismatches"] = checker.mismatches
    print(json.dumps(result), flush=True)
    return 0


def derive_goldens(core: str, workloads) -> dict:
    """Every golden output of ``workloads``, computed on ``core``."""
    goldens = {}
    for workload in workloads:
        outputs = {}
        if workload == "serve-mixed":
            for body in serve_keys():
                outputs[serve_key(body)] = serve_run_id(body, core)
        else:
            bench = BENCHES[workload](core, 0)
            bench.setup()
            for _, fn in bench.units():
                outputs.update(fn().outputs)
        goldens[workload] = outputs
    return goldens
