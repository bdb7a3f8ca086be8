"""The asyncio HTTP/JSON daemon: prediction-as-a-service.

One long-running process (``repro serve``) owns the expensive state —
a warm trace cache, a persistent process pool, the run-history store —
and amortizes it across every request:

* ``POST /v1/simulate`` / ``/v1/sweep`` / ``/v1/profile`` — canonicalize
  the body (:mod:`repro.serve.protocol`), look the request key up in the
  daemon's index of the :class:`~repro.runstore.RunStore` (memoization:
  an identical request is one read of the indexed record file, not a
  re-simulation), otherwise admit a job into
  the priority queue (:mod:`repro.serve.jobqueue`).  ``"wait": true``
  (default) blocks until the job finishes; ``false`` returns 202 + a job
  id to poll.  Admission past ``--queue-depth`` is refused with 429.
* ``GET /v1/jobs/<id>`` — job status / result; ``DELETE`` cancels.
* ``GET /v1/runs/<run_id>`` — the full stored record.
* ``GET /v1/healthz`` / ``GET /v1/metrics`` — liveness and the live
  ``serve.*`` telemetry snapshot.

The HTTP layer is a deliberately small stdlib-only HTTP/1.1
implementation over ``asyncio.start_server`` — keep-alive,
Content-Length framing, bounded request sizes — because the service
surface is six JSON routes, not the open web.

Concurrency model: the event loop owns all bookkeeping (queue, memo
index, telemetry); simulation runs in ``--workers`` pool processes (or
an inline thread with ``--workers 0``).  Identical in-flight requests
coalesce onto one job.  Finished jobs publish their RunRecord with the
store's ``if_exists="skip"`` path, so even racing daemons sharing one
store write each result exactly once.
"""

import asyncio
import json
import os
import platform
import socket
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro import repro_version
from repro.runstore import RunRecord, RunStore, load_record
from repro.runstore.record import git_state
from repro.serve import jobqueue
from repro.serve.executor import execute_job, init_worker
from repro.serve.jobqueue import Job, JobQueue, QueueFull
from repro.serve.protocol import (
    OPS,
    JobSpec,
    ProtocolError,
    canonicalize,
    job_response,
    parse_controls,
)
from repro.sim.core import resolve_core
from repro.telemetry import MetricsRegistry, render_prometheus, tracing
from repro.telemetry.traceview import render_trace

#: Hard caps on the HTTP parser, defense against garbage input.
MAX_REQUEST_LINE = 8192
MAX_HEADERS = 64
MAX_HEADER_LINE = 8192

#: How many finished jobs to keep around for ``GET /v1/jobs/<id>``.
FINISHED_JOBS_KEPT = 1024

#: How many distinct traces the daemon keeps for ``GET /v1/traces``
#: (oldest dropped first; a ``--trace-log`` file keeps everything).
TRACES_KEPT = 256


@dataclass
class ServeConfig:
    """Everything ``repro serve`` accepts on the command line."""

    host: str = "127.0.0.1"
    port: int = 8023  #: 0 = ephemeral (the bound port is reported)
    workers: int = 1  #: pool processes; 0 = inline thread (tests/dev)
    core: Optional[str] = None  #: simulation core knob (resolved once)
    store: Optional[str] = None  #: run-store root (memoization cache)
    max_queue_depth: int = 256
    job_timeout: float = 600.0  #: per-job execution ceiling, seconds
    idle_timeout: float = 60.0  #: keep-alive connection idle ceiling
    max_body_bytes: int = 1 << 20
    mp_context: Optional[str] = None  #: multiprocessing start method
    tracing: bool = False  #: record request/queue/worker trace spans
    trace_log: Optional[str] = None  #: append span JSONL here
    #: dump the span tree of any request slower than this (seconds)
    slow_request_seconds: Optional[float] = None


class ServeServer:
    """One daemon instance; start/stop from an asyncio event loop."""

    def __init__(self, config: ServeConfig,
                 registry: Optional[MetricsRegistry] = None):
        self.config = config
        self.registry = registry or MetricsRegistry()
        self.core = resolve_core(config.core)
        self.store = RunStore(config.store)
        self.queue = JobQueue(max_depth=config.max_queue_depth)
        self.jobs: "Dict[str, Job]" = {}
        #: request_key -> run_id for every stored record (memo index)
        self.memo: Dict[str, str] = {}
        #: run_id -> the record file answering it; a hit reads this one
        #: file and never lists the store
        self.run_paths: Dict[str, Path] = {}
        #: request_key -> not-yet-finished Job (request coalescing)
        self.inflight: Dict[str, Job] = {}
        self.started_at = 0.0
        #: git envelope, computed once — records are published per miss
        #: and must not each pay two subprocess calls
        self._git = git_state()
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = None
        self._dispatchers = []
        self._connections = set()
        self._paused: Optional[asyncio.Event] = None
        #: tracing is on via the config knob or the ambient flag
        self.tracing = config.tracing or tracing.tracing_enabled()
        #: trace_id -> finished span records, oldest trace evicted first
        self._trace_store: "OrderedDict[str, List[dict]]" = OrderedDict()
        self._trace_file = None
        self._busy = 0  #: jobs currently occupying pool workers

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self.started_at = time.monotonic()
        if self.tracing and self.config.trace_log:
            self._trace_file = open(self.config.trace_log, "a")
        self._index_store()
        self._pool = self._make_pool()
        self._paused = asyncio.Event()
        self._paused.set()  # not paused
        lanes = max(1, self.config.workers)
        self._dispatchers = [
            asyncio.ensure_future(self._dispatch_loop())
            for _ in range(lanes)
        ]
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections) + self._dispatchers:
            task.cancel()
        for task in list(self._connections) + self._dispatchers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._trace_file is not None:
            self._trace_file.close()
            self._trace_file = None

    @property
    def port(self) -> int:
        """The actually bound port (after :meth:`start`)."""
        return self._server.sockets[0].getsockname()[1]

    def pause(self) -> None:
        """Hold dispatch (jobs queue but do not execute) — test seam."""
        self._paused.clear()

    def resume(self) -> None:
        self._paused.set()

    def _make_pool(self):
        if self.config.workers == 0:
            # Inline mode: jobs run on one thread in this process.  The
            # executor installs a fresh thread-local registry per job,
            # so worker counters never collide with the server's.
            return ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serve-inline"
            )
        mp_context = None
        if self.config.mp_context:
            import multiprocessing

            mp_context = multiprocessing.get_context(
                self.config.mp_context
            )
        return ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=mp_context,
            initializer=init_worker,
            initargs=(self.core,),
        )

    def _index_store(self) -> None:
        """Prime the memo index from every record already on disk.

        Records come oldest first, so of several files with one run id
        the newest is indexed — the one :meth:`RunStore.find` returns.
        """
        for path in self.store.paths():
            record = load_record(path)
            self.memo[record.request_key()] = record.run_id
            self.run_paths[record.run_id] = path
        self._gauge("serve.memo_entries", len(self.memo))

    def _load_run(self, run_id: str) -> Optional[RunRecord]:
        """The stored record with ``run_id``, or ``None``.

        Reads the indexed file (content hash re-checked by
        :func:`load_record`).  If that file is gone (gc'd), one store
        lookup finds the newest duplicate with the same run id (e.g. a
        CLI ``--record`` of the same run) and re-points the index at it.
        """
        path = self.run_paths.get(run_id)
        if path is not None:
            try:
                return load_record(path)
            except FileNotFoundError:
                pass
        paths = self.store.paths_for(run_id)
        if not paths:
            self.run_paths.pop(run_id, None)
            return None
        self.run_paths[run_id] = paths[-1]
        return load_record(paths[-1])

    # -- telemetry helpers -------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def _observe(self, name: str, value: float) -> None:
        self.registry.histogram(name).observe(value)

    # -- tracing helpers ---------------------------------------------------
    #
    # The daemon records spans with *explicit* contexts, never the
    # thread-local frame stack: interleaved coroutines share one event
    # loop thread, so a stack would braid unrelated requests together.
    # Span ids stay derived (child_context), so the tree is still
    # deterministic given the request's root context.

    def _record_trace_span(self, record: dict) -> None:
        trace_id = record["trace_id"]
        store = self._trace_store
        if trace_id not in store and len(store) >= TRACES_KEPT:
            store.popitem(last=False)
        store.setdefault(trace_id, []).append(record)
        if self._trace_file is not None:
            self._trace_file.write(
                json.dumps(record, sort_keys=True) + "\n"
            )
            self._trace_file.flush()

    def _request_context(self, controls) -> "tracing.TraceContext":
        """The ``serve.request`` span context for one incoming request.

        A client-supplied ``traceparent`` links the request under the
        caller's trace; otherwise a fresh trace is rooted.
        """
        if controls.traceparent:
            parent = tracing.from_traceparent(controls.traceparent)
            return tracing.child_context(parent, "serve.request", 0)
        trace_id = tracing.new_trace_id()
        return tracing.TraceContext(
            trace_id=trace_id,
            span_id=tracing.derive_span_id(
                trace_id, "", "serve.request", 0
            ),
        )

    def _log_slow_request(self, ctx, op: str, seconds: float) -> None:
        self._count("serve.slow_requests")
        tree = render_trace(
            self._trace_store.get(ctx.trace_id, []),
            trace_id=ctx.trace_id,
        )
        print(
            f"repro serve: SLOW {op} request took {seconds:.3f}s "
            f"(threshold {self.config.slow_request_seconds:.3f}s), "
            f"trace {ctx.trace_id}:\n{tree}",
            file=sys.stderr, flush=True,
        )

    # -- job machinery -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self.queue.get()
            self._gauge("serve.queue_depth", self.queue.depth)
            await self._paused.wait()
            if job.state == jobqueue.CANCELLED:
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        job.state = jobqueue.RUNNING
        job.started_at = time.monotonic()
        self._observe("serve.queue_wait_seconds", job.queue_seconds)
        ctx = job.trace_ctx
        exec_ctx = None
        traceparent = None
        if ctx is not None:
            # The queue wait is an async phase: its span is recorded
            # here, at dispatch, with the admission wall time as start.
            self._record_trace_span(tracing.make_record(
                tracing.child_context(ctx, "serve.queue", 0),
                "serve.queue", job.enqueued_wall, job.queue_seconds,
                {"job_id": job.id, "priority": job.controls.priority},
            ))
            exec_ctx = tracing.child_context(ctx, "serve.execute", 1)
            traceparent = exec_ctx.to_traceparent()
        loop = asyncio.get_running_loop()
        exec_wall = time.time()
        exec_start = time.perf_counter()

        def record_execute(error: str = "") -> None:
            if exec_ctx is None:
                return
            attrs = {"job_id": job.id, "op": job.spec.op}
            if error:
                attrs["error"] = error
            self._record_trace_span(tracing.make_record(
                exec_ctx, "serve.execute", exec_wall,
                time.perf_counter() - exec_start, attrs,
            ))

        self._busy += 1
        self._gauge("serve.workers_busy", self._busy)
        try:
            out = await asyncio.wait_for(
                loop.run_in_executor(
                    self._pool, execute_job, job.spec.spec, self.core,
                    traceparent,
                ),
                timeout=self.config.job_timeout,
            )
        except asyncio.TimeoutError:
            record_execute(error="job_timeout")
            self._finish_job(
                job, error="job execution timed out after "
                f"{self.config.job_timeout:.0f}s",
                error_code="job_timeout",
            )
            return
        except Exception as exc:  # worker died, pickling, bug...
            record_execute(error=type(exc).__name__)
            self._finish_job(
                job, error=f"{type(exc).__name__}: {exc}",
                error_code="execution_failed",
            )
            return
        finally:
            self._busy -= 1
            self._gauge("serve.workers_busy", self._busy)
        record_execute()
        if exec_ctx is not None and out.get("spans") is not None:
            for span_record in out["spans"].records:
                self._record_trace_span(span_record)
        if job.state == jobqueue.CANCELLED:
            return  # result discarded; record intentionally unpublished
        record = self._publish(job.spec, out)
        self.registry.merge(out["registry"])
        body = job_response(
            job.spec.stub, record.metrics, record.run_id,
            cached=False, sim_core=self.core,
        )
        job.result = body
        job.run_id = record.run_id
        self._finish_job(job)

    def _publish(self, spec: JobSpec, out: dict) -> RunRecord:
        """Seal and store the finished job's RunRecord (skip-if-exists)."""
        record = RunRecord(
            kind=spec.kind, label=spec.label,
            scale=spec.stub["scale"],
            compile_config=spec.stub["compile_config"],
            matrix=spec.stub["matrix"],
            metrics=out["metrics"],
            command=f"serve {spec.op}",
            wall_seconds=out["seconds"],
            sim_core=self.core,
            telemetry=out["registry"].snapshot(),
        )
        record.git = dict(self._git)
        record.seal()
        self.run_paths[record.run_id] = self.store.add(
            record, if_exists="skip"
        )
        self.memo[spec.request_key] = record.run_id
        self._gauge("serve.memo_entries", len(self.memo))
        return record

    def _finish_job(self, job: Job, error: str = "",
                    error_code: str = "") -> None:
        job.finished_at = time.monotonic()
        if error:
            job.state = jobqueue.FAILED
            job.error = error
            job.error_code = error_code
            self._count("serve.jobs_failed")
        elif job.state != jobqueue.CANCELLED:
            job.state = jobqueue.DONE
            self._count("serve.jobs_completed")
            self._observe("serve.exec_seconds", job.exec_seconds)
        self.inflight.pop(job.spec.request_key, None)
        job.done_event.set()
        self._prune_jobs()

    def _prune_jobs(self) -> None:
        # Insertion order is creation order, so the slice drops oldest.
        finished = [
            job_id for job_id, job in self.jobs.items()
            if job.state in jobqueue.TERMINAL and not job.waiters
        ]
        excess = len(finished) - FINISHED_JOBS_KEPT
        for job_id in finished[:max(0, excess)]:
            del self.jobs[job_id]

    # -- request handling --------------------------------------------------

    async def _handle_post(self, op: str, body: dict,
                           peer: str) -> Tuple[int, dict]:
        spec = canonicalize(op, body)
        controls = parse_controls(body)
        if not self.tracing:
            return await self._handle_post_inner(
                op, spec, controls, peer, None
            )
        ctx = self._request_context(controls)
        wall = time.time()
        start = time.perf_counter()
        try:
            return await self._handle_post_inner(
                op, spec, controls, peer, ctx
            )
        finally:
            seconds = time.perf_counter() - start
            self._record_trace_span(tracing.make_record(
                ctx, "serve.request", wall, seconds,
                {"op": op, "client": controls.client or peer},
            ))
            if (self.config.slow_request_seconds is not None
                    and seconds >= self.config.slow_request_seconds):
                self._log_slow_request(ctx, op, seconds)

    async def _handle_post_inner(self, op, spec, controls, peer,
                                 ctx) -> Tuple[int, dict]:
        self._count(f"serve.requests.{op}")

        # Memoization: identical request -> one file read, no simulation.
        run_id = self.memo.get(spec.request_key)
        if run_id is not None:
            record = self._load_run(run_id)
            if record is not None:
                self._count("serve.cache_hit")
                return 200, job_response(
                    spec.stub, record.metrics, record.run_id,
                    cached=True, sim_core=record.sim_core or self.core,
                )
            # No file holds the run any more: drop the stale entry.
            del self.memo[spec.request_key]
        self._count("serve.cache_miss")

        # Coalescing: a second identical request while the first is
        # still queued/running shares its job instead of re-enqueueing.
        job = self.inflight.get(spec.request_key)
        if job is None:
            job = Job(
                id=self.queue.next_id(), spec=spec, controls=controls,
                client=controls.client or peer, trace_ctx=ctx,
            )
            try:
                self.queue.put(job)
            except QueueFull:
                self._count("serve.rejected_queue_full")
                return 429, {
                    "error": {
                        "code": "queue_full",
                        "message": (
                            f"job queue is at capacity "
                            f"({self.queue.max_depth}); retry later"
                        ),
                    },
                    "status": 429,
                    "retry_after": 1,
                }
            self.jobs[job.id] = job
            self.inflight[spec.request_key] = job
            self._count("serve.jobs_enqueued")
            self._gauge("serve.queue_depth", self.queue.depth)
        else:
            self._count("serve.coalesced")

        if not controls.wait:
            return 202, {
                "status": "accepted", "job_id": job.id,
                "state": job.state, "request_key": spec.request_key,
            }

        job.waiters += 1
        timeout = controls.timeout or self.config.job_timeout + 5.0
        try:
            await asyncio.wait_for(job.done_event.wait(), timeout)
        except asyncio.TimeoutError:
            return 504, {
                "error": {
                    "code": "wait_timeout",
                    "message": (
                        f"job {job.id} still {job.state} after "
                        f"{timeout:.1f}s; poll /v1/jobs/{job.id}"
                    ),
                },
                "status": 504, "job_id": job.id,
            }
        finally:
            job.waiters -= 1
        return self._job_outcome(job)

    def _job_outcome(self, job: Job) -> Tuple[int, dict]:
        if job.state == jobqueue.DONE:
            return 200, job.result
        if job.state == jobqueue.CANCELLED:
            return 409, {
                "error": {"code": "cancelled",
                          "message": f"job {job.id} was cancelled"},
                "status": 409, "job_id": job.id,
            }
        return 500, {
            "error": {"code": job.error_code or "job_failed",
                      "message": job.error or "job failed"},
            "status": 500, "job_id": job.id,
        }

    def _handle_get_job(self, job_id: str) -> Tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, _error(404, "unknown_job",
                               f"no job {job_id!r}")
        return 200, job.describe()

    def _handle_cancel_job(self, job_id: str) -> Tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, _error(404, "unknown_job",
                               f"no job {job_id!r}")
        if job.state in jobqueue.TERMINAL:
            return 409, _error(
                409, "not_cancellable",
                f"job {job_id} already {job.state}",
            )
        if job.state == jobqueue.RUNNING:
            # Best effort: the pool task cannot be interrupted, but its
            # result is discarded and never published.
            job.state = jobqueue.CANCELLED
            job.finished_at = time.monotonic()
            self.inflight.pop(job.spec.request_key, None)
            job.done_event.set()
        else:
            self.queue.cancel(job)
            self.inflight.pop(job.spec.request_key, None)
            self._gauge("serve.queue_depth", self.queue.depth)
        self._count("serve.jobs_cancelled")
        return 200, {"job_id": job_id, "state": job.state}

    def _handle_get_run(self, run_id: str) -> Tuple[int, dict]:
        record = self._load_run(run_id)
        if record is None:
            return 404, _error(
                404, "unknown_run",
                f"no stored run {run_id!r} (store: {self.store.root})",
            )
        return 200, record.to_dict()

    def _handle_healthz(self) -> Tuple[int, dict]:
        # Build/identity fields (version/core/pid/host/python) are what
        # tell the daemons of a fleet apart; the rest is live state the
        # `repro top` dashboard polls.
        return 200, {
            "status": "ok",
            "version": repro_version(),
            "core": self.core,
            "workers": self.config.workers,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "python": platform.python_version(),
            "tracing": self.tracing,
            "uptime_seconds": round(
                time.monotonic() - self.started_at, 3
            ),
            "queue_depth": self.queue.depth,
            "queue_lanes": self.queue.lane_depths(),
            "busy_workers": self._busy,
            "inflight": len(self.inflight),
            "memo_entries": len(self.memo),
            "store": str(self.store.root),
        }

    def _handle_metrics(self, query: str) -> Tuple[int, object]:
        fmt = parse_qs(query).get("format", ["json"])[-1]
        if fmt == "prom":
            return 200, render_prometheus(self.registry.snapshot())
        if fmt != "json":
            return 400, _error(
                400, "unknown_format",
                f"unknown metrics format {fmt!r} (json or prom)",
            )
        return 200, self.registry.snapshot()

    def _handle_traces(self) -> Tuple[int, dict]:
        traces = []
        for trace_id, records in self._trace_store.items():
            traces.append({
                "trace_id": trace_id,
                "spans": len(records),
                "names": sorted({r["name"] for r in records}),
            })
        return 200, {"traces": traces, "kept": TRACES_KEPT}

    def _handle_get_trace(self, trace_id: str) -> Tuple[int, dict]:
        records = self._trace_store.get(trace_id)
        if records is None:
            return 404, _error(
                404, "unknown_trace",
                f"no trace {trace_id!r} (daemon keeps the last "
                f"{TRACES_KEPT})",
            )
        return 200, {
            "trace_id": trace_id,
            "spans": sorted(
                records, key=lambda r: (r["trace_id"], r["span_id"])
            ),
        }

    # -- HTTP layer --------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=self.config.idle_timeout,
                    )
                except asyncio.TimeoutError:
                    break
                except ProtocolError as exc:
                    # Unparseable framing: answer once, then drop the
                    # connection (we cannot trust the stream position).
                    self._count("serve.http_errors")
                    await self._write_response(
                        writer, exc.status, exc.to_dict(), False
                    )
                    break
                if request is None:
                    break
                method, path, headers, body, http10 = request
                started = time.perf_counter()
                keep_alive = (
                    not http10
                    and headers.get("connection", "") != "close"
                )
                try:
                    status, payload = await self._route(
                        method, path, body, writer
                    )
                except ProtocolError as exc:
                    status, payload = exc.status, exc.to_dict()
                    self._count("serve.http_errors")
                except Exception as exc:  # never leak a traceback
                    status, payload = 500, _error(
                        500, "internal_error",
                        f"{type(exc).__name__}: {exc}",
                    )
                    self._count("serve.http_errors")
                self._observe(
                    "serve.request_seconds",
                    time.perf_counter() - started,
                )
                await self._write_response(
                    writer, status, payload, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with the connection open.  Finish the
            # task cleanly: asyncio.streams' connection_made callback
            # calls task.exception(), which *raises* on a task that
            # ends cancelled and would spam the loop's error handler.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    RuntimeError):
                pass

    async def _read_request(self, reader):
        """Parse one HTTP/1.x request; None on clean EOF."""
        line = await reader.readline()
        if not line:
            return None
        if len(line) > MAX_REQUEST_LINE:
            raise ProtocolError("request line too long", status=431,
                                code="request_too_large")
        try:
            method, target, version = (
                line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise ProtocolError("malformed request line",
                                code="bad_request") from None
        headers = {}
        for _ in range(MAX_HEADERS):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            if len(header) > MAX_HEADER_LINE:
                raise ProtocolError("header line too long", status=431,
                                    code="request_too_large")
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ProtocolError("too many headers", status=431,
                                code="request_too_large")
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                length = int(length)
            except ValueError:
                raise ProtocolError("bad Content-Length",
                                    code="bad_request") from None
            if length > self.config.max_body_bytes:
                raise ProtocolError(
                    f"body larger than {self.config.max_body_bytes} "
                    "bytes", status=413, code="body_too_large",
                )
            body = await reader.readexactly(length)
        return (
            method.upper(), target, headers, body,
            version.upper() == "HTTP/1.0",
        )

    async def _route(self, method, path, body, writer):
        path, _, query = path.partition("?")
        path = path.rstrip("/") or "/"
        parts = path.strip("/").split("/")
        if parts and parts[0] == "v1":
            parts = parts[1:]
        elif parts not in (["metrics"], ["healthz"]):
            # Scraper-friendly aliases: /metrics and /healthz work
            # without the /v1 prefix; everything else requires it.
            return 404, _error(404, "unknown_route",
                               f"no route {path!r}")
        if method == "GET":
            if parts == ["healthz"]:
                return self._handle_healthz()
            if parts == ["metrics"]:
                return self._handle_metrics(query)
            if parts == ["traces"]:
                return self._handle_traces()
            if len(parts) == 2 and parts[0] == "traces":
                return self._handle_get_trace(parts[1])
            if len(parts) == 2 and parts[0] == "jobs":
                return self._handle_get_job(parts[1])
            if len(parts) == 2 and parts[0] == "runs":
                return self._handle_get_run(parts[1])
        elif method == "POST":
            if len(parts) == 1 and parts[0] in OPS:
                peer = writer.get_extra_info("peername")
                peer = peer[0] if peer else "unknown"
                return await self._handle_post(
                    parts[0], _parse_json(body), peer
                )
            if (len(parts) == 3 and parts[0] == "jobs"
                    and parts[2] == "cancel"):
                return self._handle_cancel_job(parts[1])
        elif method == "DELETE":
            if len(parts) == 2 and parts[0] == "jobs":
                return self._handle_cancel_job(parts[1])
        else:
            return 405, _error(405, "method_not_allowed",
                               f"method {method} not allowed")
        return 404, _error(404, "unknown_route",
                           f"no route {method} {path!r}")

    async def _write_response(self, writer, status, payload,
                              keep_alive) -> None:
        if isinstance(payload, str):
            # Text payloads (Prometheus exposition) ship verbatim.
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, sort_keys=True).encode()
            content_type = "application/json"
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if status == 429:
            head += "Retry-After: 1\r\n"
        head += (
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
            "\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 504: "Gateway Timeout",
}


def _error(status: int, code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message},
            "status": status}


def _parse_json(body: bytes) -> dict:
    if not body:
        raise ProtocolError("empty request body (expected JSON)",
                            code="bad_json")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON body: {exc}",
                            code="bad_json") from None


# -- running the daemon --------------------------------------------------------


async def _run_until_cancelled(server: ServeServer) -> None:
    await server.start()
    print(
        f"repro serve: listening on "
        f"http://{server.config.host}:{server.port} "
        f"(workers={server.config.workers}, core={server.core}, "
        f"store={server.store.root})",
        flush=True,
    )
    try:
        await asyncio.Event().wait()  # until cancelled
    finally:
        await server.stop()


def run_server(config: ServeConfig,
               registry: Optional[MetricsRegistry] = None) -> int:
    """Blocking entry point used by ``repro serve``; 0 on clean exit."""
    server = ServeServer(config, registry=registry)
    try:
        asyncio.run(_run_until_cancelled(server))
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
    return 0


class ServerThread:
    """A live daemon on a background thread — tests and benchmarks.

    ::

        with ServerThread(ServeConfig(port=0, workers=0)) as handle:
            client = ServeClient(port=handle.port)
            ...

    The event loop runs on the thread; ``call`` hops a coroutine over
    for the rare test that pokes server internals (pause/resume).
    """

    def __init__(self, config: ServeConfig,
                 registry: Optional[MetricsRegistry] = None):
        self.server = ServeServer(config, registry=registry)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("serve thread failed to start")
        return self

    def __exit__(self, *exc) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), loop
            ).result(timeout=30.0)
            loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=30.0)

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.run_until_complete(self.server.start())
        self._started.set()
        loop.run_forever()
        loop.close()

    async def _shutdown(self) -> None:
        await self.server.stop()

    @property
    def port(self) -> int:
        return self.server.port

    def call(self, coro):
        """Run a coroutine on the server loop; returns its result."""
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop
        ).result(timeout=30.0)

    def pause(self) -> None:
        self._loop.call_soon_threadsafe(self.server.pause)

    def resume(self) -> None:
        self._loop.call_soon_threadsafe(self.server.resume)
