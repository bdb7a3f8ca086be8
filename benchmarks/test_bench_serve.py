"""Latency and throughput gates for the ``repro serve`` daemon.

Run with::

    pytest benchmarks/test_bench_serve.py --benchmark-only -s

Acceptance gates on live daemons (inline executor, private stores):

* ``bench_serve_memoization_gate`` — a warm cache hit (the run-history
  store lookup path) must answer at least 20x faster than the cold
  simulate that populated it;
* the same gate measures sustained memoized throughput over concurrent
  keep-alive connections, which must clear 200 req/s;
* ``bench_serve_store_size_gate`` — a warm hit costs the same however
  many records the store holds: its p50 with 2,000 other records on
  disk is at most 2x the p50 on an otherwise empty store;
* ``bench_serve_table_size_gate`` — a cold miss costs what its replay
  touches, not its configured table size: a ``perceptron`` simulate
  job with 16,384 entries takes at most 1.3x one with 256 on the same
  tiny trace (median job time).

All numbers ride out through :func:`emit_gate`, so
``$REPRO_BENCH_JSON`` (committed as ``BENCH_serve.json``) and the
run-history store track the daemon's service-latency trend.
"""

import asyncio
import statistics
import tempfile
import time
from contextlib import ExitStack

from benchmarks.conftest import emit_gate, run_once
from repro.runstore import RunRecord, RunStore, utc_timestamp
from repro.serve import (
    AsyncServeClient,
    ServeClient,
    ServeConfig,
    ServerThread,
)
from repro.serve.executor import execute_job
from repro.serve.protocol import canonicalize_simulate
from repro.telemetry import QuantileSketch

#: Cold request scale: big enough that one simulation dwarfs the HTTP
#: round-trip, so the speedup measures memoization, not parsing.
SCALE = "small"

#: Warm-hit latency samples (sequential, one connection).
WARM_SAMPLES = 50

#: Sustained-throughput phase: memoized requests over N connections.
THROUGHPUT_REQUESTS = 600
CONCURRENCY = 16

#: Floors. Measured locally: speedup ~100x, throughput ~2000 req/s;
#: the floors leave generous room for noisy CI machines.
SPEEDUP_FLOOR = 20.0
RPS_FLOOR = 200.0

#: Store-size gate: records under other request keys already on disk,
#: and the ceiling on (full-store hit p50) / (empty-store hit p50).
#: A hit that lists the store on every request (the daemon before its
#: record-path index) read 16x on a 2-vCPU host, ~40x on others.
STORE_RECORDS = 2000
STORE_SIZE_RATIO_CEILING = 2.0

#: Table-size gate: cold perceptron jobs per size (after one warm-up
#: job each, which loads the trace and decodes its plan), the two
#: sizes, and the ceiling on (large median) / (small median).  With
#: every row and row memo allocated up front the ratio read 2.0-5.8x.
TABLE_JOBS = 15
TABLE_SIZES = (256, 16384)
TABLE_SIZE_RATIO_CEILING = 1.3

REQUEST = {"workload": "crc", "scale": SCALE}


async def _memoized_rps(port: int) -> float:
    """Fan identical (memoized) requests over keep-alive connections."""
    queue = asyncio.Queue()
    for _ in range(THROUGHPUT_REQUESTS):
        queue.put_nowait(REQUEST)

    async def worker():
        async with AsyncServeClient(port=port) as client:
            while True:
                try:
                    body = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                status, reply = await client.submit("simulate", **body)
                assert status == 200 and reply["cached"] is True

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(CONCURRENCY)))
    return THROUGHPUT_REQUESTS / (time.perf_counter() - started)


def bench_serve_memoization_gate(benchmark):
    """Warm hits >= 20x faster than the cold run; >= 200 req/s."""
    measured = {}

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            config = ServeConfig(port=0, workers=0, store=tmp)
            with ServerThread(config) as handle:
                with ServeClient(port=handle.port,
                                 timeout=600.0) as client:
                    started = time.perf_counter()
                    status, cold = client.simulate(**REQUEST)
                    cold_seconds = time.perf_counter() - started
                    assert status == 200
                    assert cold["cached"] is False

                    # Warm latencies run through the same streaming
                    # sketch the daemon's histograms use, so the gate's
                    # percentiles and /metrics quantiles agree.
                    warm = QuantileSketch()
                    for _ in range(WARM_SAMPLES):
                        started = time.perf_counter()
                        status, hit = client.simulate(**REQUEST)
                        warm.observe(time.perf_counter() - started)
                        assert status == 200
                        assert hit["cached"] is True
                    # The hit body matches the cold body bit for bit.
                    assert hit["run_id"] == cold["run_id"]
                    assert hit["metrics"] == cold["metrics"]

                rps = asyncio.run(_memoized_rps(handle.port))
        percentiles = warm.percentiles()
        measured.update(
            cold_seconds=cold_seconds,
            warm_p50_seconds=percentiles["p50"],
            warm_p95_seconds=percentiles["p95"],
            warm_p99_seconds=percentiles["p99"],
            memoized_rps=rps,
        )

    run_once(benchmark, run)
    speedup = measured["cold_seconds"] / measured["warm_p50_seconds"]
    emit_gate(
        "serve_memoization",
        cold_seconds=measured["cold_seconds"],
        warm_p50_seconds=measured["warm_p50_seconds"],
        warm_p95_seconds=measured["warm_p95_seconds"],
        warm_p99_seconds=measured["warm_p99_seconds"],
        speedup=speedup,
        memoized_requests_per_second=measured["memoized_rps"],
    )
    print(
        f"\ncold {measured['cold_seconds'] * 1000:.1f}ms, "
        f"warm p50 {measured['warm_p50_seconds'] * 1000:.2f}ms "
        f"p95 {measured['warm_p95_seconds'] * 1000:.2f}ms "
        f"p99 {measured['warm_p99_seconds'] * 1000:.2f}ms, "
        f"speedup {speedup:.0f}x; memoized throughput "
        f"{measured['memoized_rps']:.0f} req/s "
        f"({CONCURRENCY} connections)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm-cache speedup {speedup:.1f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x floor"
    )
    assert measured["memoized_rps"] >= RPS_FLOOR, (
        f"memoized throughput {measured['memoized_rps']:.0f} req/s is "
        f"below the {RPS_FLOOR:.0f} req/s floor"
    )


def _fill_store(root: str, count: int) -> None:
    """``count`` sealed records under request keys nobody asks for."""
    store = RunStore(root)
    for i in range(count):
        record = RunRecord(
            kind="simulate", label=f"filler{i:04d}", scale=SCALE,
            metrics={"filler.value": float(i)},
        )
        record.timestamp = utc_timestamp(1000.0 + i)
        record.git = {"sha": "f" * 40, "dirty": False}
        store.add(record.seal())


def bench_serve_store_size_gate(benchmark):
    """Warm-hit p50 with 2,000 stored records <= 2x an empty store's."""
    measured = {}

    def run():
        sketches = {"empty": QuantileSketch(), "full": QuantileSketch()}
        with ExitStack() as stack:
            clients = {}
            for name in sketches:
                root = stack.enter_context(tempfile.TemporaryDirectory())
                if name == "full":
                    _fill_store(root, STORE_RECORDS)
                handle = stack.enter_context(ServerThread(
                    ServeConfig(port=0, workers=0, store=root)
                ))
                client = stack.enter_context(
                    ServeClient(port=handle.port, timeout=600.0)
                )
                status, cold = client.simulate(**REQUEST)
                assert status == 200 and cold["cached"] is False
                clients[name] = client
            # Alternate the two daemons so host drift hits both.
            for _ in range(WARM_SAMPLES):
                for name, client in clients.items():
                    started = time.perf_counter()
                    status, hit = client.simulate(**REQUEST)
                    sketches[name].observe(time.perf_counter() - started)
                    assert status == 200 and hit["cached"] is True
        for name, sketch in sketches.items():
            measured[name] = sketch.percentiles()["p50"]

    run_once(benchmark, run)
    ratio = measured["full"] / measured["empty"]
    emit_gate(
        "serve_store_size",
        empty_store_warm_p50_seconds=measured["empty"],
        full_store_warm_p50_seconds=measured["full"],
        stored_records=STORE_RECORDS,
        ratio=ratio,
    )
    print(
        f"\nwarm hit p50: empty store {measured['empty'] * 1000:.2f}ms, "
        f"{STORE_RECORDS} records {measured['full'] * 1000:.2f}ms, "
        f"ratio {ratio:.2f}x"
    )
    assert ratio <= STORE_SIZE_RATIO_CEILING, (
        f"warm hit with {STORE_RECORDS} stored records is {ratio:.1f}x "
        f"the empty-store hit; the ceiling is "
        f"{STORE_SIZE_RATIO_CEILING:.0f}x"
    )


def bench_serve_table_size_gate(benchmark):
    """A cold perceptron-16384 job costs <= 1.3x a perceptron-256 one."""
    specs = {
        entries: canonicalize_simulate({
            "workload": "crc", "scale": "tiny",
            "predictor": "perceptron", "entries": entries,
        }).spec
        for entries in TABLE_SIZES
    }
    seconds = {entries: [] for entries in TABLE_SIZES}

    def run():
        for spec in specs.values():
            execute_job(spec, core="fast")
        # Alternate the sizes so host drift hits both.
        for _ in range(TABLE_JOBS):
            for entries, spec in specs.items():
                started = time.perf_counter()
                execute_job(spec, core="fast")
                seconds[entries].append(time.perf_counter() - started)

    run_once(benchmark, run)
    small, large = (statistics.median(seconds[n]) for n in TABLE_SIZES)
    ratio = large / small
    emit_gate(
        "serve_table_size",
        small_entries=TABLE_SIZES[0],
        large_entries=TABLE_SIZES[1],
        small_job_p50_seconds=small,
        large_job_p50_seconds=large,
        jobs_per_size=TABLE_JOBS,
        ratio=ratio,
    )
    print(
        f"\ncold perceptron job p50: {TABLE_SIZES[0]} entries "
        f"{small * 1000:.2f}ms, {TABLE_SIZES[1]} entries "
        f"{large * 1000:.2f}ms, ratio {ratio:.2f}x"
    )
    assert ratio <= TABLE_SIZE_RATIO_CEILING, (
        f"a cold perceptron-{TABLE_SIZES[1]} job is {ratio:.2f}x a "
        f"perceptron-{TABLE_SIZES[0]} one; the ceiling is "
        f"{TABLE_SIZE_RATIO_CEILING}x"
    )
