"""End-to-end daemon tests: memoization, errors, backpressure, cores.

Most tests run the server in ``--workers 0`` inline mode (jobs execute
on a thread inside the daemon process — fast, and safe to combine with
the background server thread).  One test runs a real spawned pool
worker to prove the core knob threads end-to-end.

The acceptance assertions from the issue live here:

* the same request twice returns byte-identical bodies except
  ``"cached": true`` the second time, with **zero** additional
  simulator invocations (``sim.*`` counter deltas are zero);
* a request the serial CLI already recorded is served from the store,
  and a record the daemon publishes is bit-identical (same ``run_id``,
  same metrics) to what the serial CLI writes for the same request.
"""

import http.client
import json
import os
import time
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.runstore import RunRecord, RunStore, utc_timestamp
from repro.serve import ServeClient, ServeConfig, ServerThread

TINY = {"workload": "crc", "scale": "tiny"}


@contextmanager
def serve(store, **overrides):
    overrides.setdefault("workers", 0)
    config = ServeConfig(port=0, store=str(store), **overrides)
    with ServerThread(config) as handle:
        with ServeClient(port=handle.port, timeout=120.0) as client:
            yield handle, client


def sim_counters(client):
    _, snapshot = client.metrics()
    return {
        name: value
        for name, value in snapshot.get("counters", {}).items()
        if name.startswith("sim.")
    }


def counter(client, name):
    _, snapshot = client.metrics()
    return snapshot.get("counters", {}).get(name, 0)


def wait_for(predicate, timeout=60.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not met before timeout")


def fill_store(store, count):
    """``count`` sealed records under request keys no test asks for."""
    runs = RunStore(store)
    for i in range(count):
        record = RunRecord(
            kind="simulate", label=f"filler{i:04d}", scale="tiny",
            metrics={"filler.value": float(i)},
        )
        record.timestamp = utc_timestamp(1000.0 + i)
        record.git = {"sha": "f" * 40, "dirty": False}
        runs.add(record.seal())


@contextmanager
def store_listings():
    """The ``RunStore.paths`` and ``os.scandir`` calls made inside."""
    calls = []
    paths, scandir = RunStore.paths, os.scandir

    def spy_paths(store):
        calls.append("RunStore.paths")
        return paths(store)

    def spy_scandir(*args):
        calls.append("os.scandir")
        return scandir(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunStore, "paths", spy_paths)
        patch.setattr(os, "scandir", spy_scandir)
        yield calls


class TestMemoization:
    def test_second_request_is_a_cache_hit_without_simulation(
        self, tmp_path
    ):
        with serve(tmp_path / "runs") as (_, client):
            status, first = client.simulate(**TINY)
            assert status == 200
            assert first["cached"] is False
            assert first["metrics"]  # real numbers came back

            before = sim_counters(client)
            assert before["sim.runs"] >= 1

            status, second = client.simulate(**TINY)
            assert status == 200
            assert second["cached"] is True
            assert second["run_id"] == first["run_id"]

            # Identical bodies except the cached flag.
            a, b = dict(first), dict(second)
            assert a.pop("cached") is False
            assert b.pop("cached") is True
            assert a == b

            # Zero additional simulator work for the hit.
            assert sim_counters(client) == before
            assert counter(client, "serve.cache_hit") == 1
            assert counter(client, "serve.cache_miss") == 1

    def test_misses_leave_records_and_one_lock_file(self, tmp_path):
        store = tmp_path / "runs"
        predictors = ("gshare", "bimodal", "gselect")
        with serve(store) as (_, client):
            for predictor in predictors:
                status, body = client.simulate(predictor=predictor, **TINY)
                assert status == 200
                assert body["cached"] is False
        assert len(RunStore(store).paths()) == len(predictors)
        dot_files = [p for p in store.iterdir() if p.name.startswith(".")]
        assert len(dot_files) <= 1

    def test_hit_survives_a_daemon_restart(self, tmp_path):
        store = tmp_path / "runs"
        with serve(store) as (_, client):
            _, first = client.simulate(**TINY)
            assert first["cached"] is False
        # New daemon, same store: the index is primed from disk, so the
        # hit reads the indexed file without listing the store.
        with serve(store) as (handle, client):
            (path,) = RunStore(store).paths_for(first["run_id"])
            assert handle.server.run_paths[first["run_id"]] == path
            with store_listings() as calls:
                status, again = client.simulate(**TINY)
            assert status == 200
            assert again["cached"] is True
            assert again["run_id"] == first["run_id"]
            assert calls == []
            assert counter(client, "serve.cache_miss") == 0

    def test_run_route_returns_the_stored_record(self, tmp_path):
        with serve(tmp_path / "runs") as (_, client):
            _, body = client.simulate(**TINY)
            with store_listings() as calls:
                status, record = client.run(body["run_id"])
            assert calls == []  # read through the daemon's index
            assert status == 200
            assert record["run_id"] == body["run_id"]
            assert record["kind"] == "simulate"
            assert record["metrics"] == body["metrics"]
            assert record["command"] == "serve simulate"


class TestMemoIndex:
    """The daemon answers a hit from its request-key index: one read of
    the indexed record file, no store listing; a stale entry falls back
    to one store lookup."""

    def test_hit_lists_nothing_in_a_full_store(self, tmp_path):
        store = tmp_path / "runs"
        fill_store(store, 500)
        with serve(store) as (_, client):
            status, miss = client.simulate(**TINY)
            assert status == 200 and miss["cached"] is False
            with store_listings() as calls:
                status, hit = client.simulate(**TINY)
        assert status == 200
        assert calls == []
        assert hit.pop("cached") is True
        assert miss.pop("cached") is False
        assert hit == miss

    def test_deleted_record_falls_back_to_a_duplicate(self, tmp_path):
        store = tmp_path / "runs"
        with serve(store) as (handle, client):
            _, first = client.simulate(**TINY)
            run_id = first["run_id"]
            published = handle.server.run_paths[run_id]
            # A second file with the same run id.
            assert main([
                "simulate", "crc", "--scale", "tiny",
                "--record", "--store", str(store),
            ]) == 0
            (duplicate,) = [
                path for path in RunStore(store).paths_for(run_id)
                if path != published
            ]
            published.unlink()
            status, again = client.simulate(**TINY)
            assert status == 200
            assert again["cached"] is True
            assert again["run_id"] == run_id
            assert handle.server.run_paths[run_id] == duplicate
            assert counter(client, "serve.cache_miss") == 1
            assert counter(client, "serve.cache_hit") == 1

    def test_no_file_left_is_a_miss_that_republishes(self, tmp_path):
        store = tmp_path / "runs"
        with serve(store) as (handle, client):
            _, first = client.simulate(**TINY)
            run_id = first["run_id"]
            handle.server.run_paths[run_id].unlink()
            assert RunStore(store).paths_for(run_id) == []
            status, again = client.simulate(**TINY)
            assert status == 200
            assert again["cached"] is False
            assert again["run_id"] == run_id
            assert counter(client, "serve.cache_miss") == 2
            (path,) = RunStore(store).paths_for(run_id)
            assert handle.server.run_paths[run_id] == path


class TestSerialDaemonIdentity:
    def test_cli_recorded_run_is_served_from_the_store(self, tmp_path):
        """Serial first, daemon second: daemon reuses the CLI record."""
        store = tmp_path / "runs"
        assert main([
            "simulate", "crc", "--scale", "tiny",
            "--record", "--store", str(store),
        ]) == 0
        (cli_record,) = RunStore(store).records()
        with serve(store) as (_, client):
            status, body = client.simulate(**TINY)
            assert status == 200
            assert body["cached"] is True
            assert body["run_id"] == cli_record.run_id
            assert body["metrics"] == cli_record.metrics
            assert counter(client, "serve.cache_miss") == 0
            # The daemon never wrote anything.
            assert len(RunStore(store).paths()) == 1

    def test_daemon_record_is_bit_identical_to_the_cli(self, tmp_path):
        """Daemon first, serial second: same run id, same metrics."""
        with serve(tmp_path / "daemon-runs") as (_, client):
            _, body = client.simulate(**TINY)
        cli_store = tmp_path / "cli-runs"
        assert main([
            "simulate", "crc", "--scale", "tiny",
            "--record", "--store", str(cli_store),
        ]) == 0
        (cli_record,) = RunStore(cli_store).records()
        assert body["run_id"] == cli_record.run_id
        assert body["metrics"] == cli_record.metrics
        assert body["request_key"] == cli_record.request_key()


    @pytest.mark.parametrize("predictor", ["tage", "static", "perfect"])
    def test_predictors_without_an_entries_knob(self, tmp_path, predictor):
        """These names used to answer 500: the daemon passes
        ``entries`` to every factory."""
        with serve(tmp_path / "daemon-runs") as (_, client):
            status, body = client.simulate(predictor=predictor, **TINY)
        assert status == 200
        cli_store = tmp_path / "cli-runs"
        assert main([
            "simulate", "crc", "--scale", "tiny", "--predictor",
            predictor, "--record", "--store", str(cli_store),
        ]) == 0
        (cli_record,) = RunStore(cli_store).records()
        assert body["run_id"] == cli_record.run_id
        assert body["metrics"] == cli_record.metrics

    def test_fast_daemon_runs_every_family_on_kernels(self, tmp_path):
        with serve(tmp_path / "runs", core="fast") as (_, client):
            for predictor in ("tournament", "perceptron", "tage"):
                status, _ = client.simulate(predictor=predictor, **TINY)
                assert status == 200
            assert counter(client, "sim.core.fast") == 3
            assert counter(client, "sim.fallback.predictor") == 0
            assert counter(client, "sim.core.object") == 0


class TestOtherOps:
    def test_profile_roundtrip_and_memoization(self, tmp_path):
        with serve(tmp_path / "runs") as (_, client):
            status, body = client.profile(**TINY)
            assert status == 200
            assert body["kind"] == "profile"
            assert body["metrics"]["profile.events"] > 0
            status, again = client.profile(**TINY)
            assert again["cached"] is True
            assert again["run_id"] == body["run_id"]

    def test_sweep_roundtrip_and_memoization(self, tmp_path):
        with serve(tmp_path / "runs") as (_, client):
            status, body = client.sweep(
                workloads=["crc", "qsort"], scale="tiny"
            )
            assert status == 200
            assert body["kind"] == "sweep"
            assert any(
                key.startswith("crc.") for key in body["metrics"]
            )
            assert any(
                key.startswith("qsort.") for key in body["metrics"]
            )
            # Re-ordered axes are the same logical request.
            status, again = client.sweep(
                workloads=["qsort", "crc", "qsort"], scale="tiny"
            )
            assert again["cached"] is True
            assert again["run_id"] == body["run_id"]


class TestErrorPaths:
    def test_malformed_json_is_structured_400(self, tmp_path):
        with serve(tmp_path / "runs") as (handle, _):
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=30.0
            )
            try:
                conn.request(
                    "POST", "/v1/simulate", body=b"{not json",
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400
            assert body["error"]["code"] == "bad_json"

    def test_unknown_workload_is_structured_404(self, tmp_path):
        with serve(tmp_path / "runs") as (_, client):
            status, body = client.simulate(
                workload="not-a-workload", scale="tiny"
            )
            assert status == 404
            assert body["error"]["code"] == "unknown_workload"

    def test_unknown_field_is_structured_400(self, tmp_path):
        with serve(tmp_path / "runs") as (_, client):
            status, body = client.simulate(workload="crc", turbo=True)
            assert status == 400
            assert body["error"]["code"] == "unknown_field"

    def test_unknown_route_and_method(self, tmp_path):
        with serve(tmp_path / "runs") as (_, client):
            status, body = client.request("GET", "/v1/nope")
            assert status == 404
            status, body = client.request("PUT", "/v1/simulate")
            assert status == 405
            status, body = client.request("GET", "/v1/jobs/job-999999")
            assert status == 404
            assert body["error"]["code"] == "unknown_job"
            status, body = client.request("GET", "/v1/runs/ffffffffffff")
            assert status == 404
            assert body["error"]["code"] == "unknown_run"

    def test_oversized_body_is_413(self, tmp_path):
        with serve(tmp_path / "runs", max_body_bytes=1024) as \
                (handle, _):
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=30.0
            )
            try:
                conn.request(
                    "POST", "/v1/simulate",
                    body=b"x" * 2048,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 413
            assert body["error"]["code"] == "body_too_large"


class TestQueueBehaviour:
    def test_backpressure_429_when_the_queue_is_full(self, tmp_path):
        with serve(tmp_path / "runs", max_queue_depth=2) as \
                (handle, client):
            handle.pause()
            job_ids = []
            # First job is dequeued and held at the pause gate...
            status, body = client.simulate(
                workload="crc", scale="tiny", entries=16, wait=False
            )
            assert status == 202
            job_ids.append(body["job_id"])
            wait_for(lambda: client.healthz()[1]["queue_depth"] == 0)
            # ...the next two fill the queue...
            for entries in (32, 64):
                status, body = client.simulate(
                    workload="crc", scale="tiny", entries=entries,
                    wait=False,
                )
                assert status == 202
                job_ids.append(body["job_id"])
            # ...and the fourth distinct request is shed at admission.
            status, body = client.simulate(
                workload="crc", scale="tiny", entries=128, wait=False
            )
            assert status == 429
            assert body["error"]["code"] == "queue_full"
            assert body["retry_after"] == 1
            assert counter(client, "serve.rejected_queue_full") == 1

            handle.resume()
            for job_id in job_ids:
                wait_for(
                    lambda j=job_id: client.job(j)[1]["state"] == "done"
                )

    def test_cancel_a_queued_job(self, tmp_path):
        with serve(tmp_path / "runs", max_queue_depth=8) as \
                (handle, client):
            handle.pause()
            # Occupy the dispatcher so the victim stays in the queue.
            _, gate = client.simulate(
                workload="crc", scale="tiny", entries=16, wait=False
            )
            wait_for(lambda: client.healthz()[1]["queue_depth"] == 0)
            _, victim = client.simulate(
                workload="crc", scale="tiny", entries=32, wait=False
            )
            status, body = client.cancel(victim["job_id"])
            assert status == 200
            assert body["state"] == "cancelled"
            status, body = client.job(victim["job_id"])
            assert body["state"] == "cancelled"
            # Cancelling a finished job is a structured conflict.
            handle.resume()
            wait_for(
                lambda: client.job(gate["job_id"])[1]["state"] == "done"
            )
            status, body = client.cancel(gate["job_id"])
            assert status == 409
            assert body["error"]["code"] == "not_cancellable"
            assert counter(client, "serve.jobs_cancelled") == 1
            # The cancelled job's record was never published.
            assert len(RunStore(tmp_path / "runs").paths()) == 1

    def test_identical_inflight_requests_coalesce(self, tmp_path):
        with serve(tmp_path / "runs") as (handle, client):
            handle.pause()
            _, first = client.simulate(**TINY, wait=False)
            _, second = client.simulate(**TINY, wait=False)
            assert first["job_id"] == second["job_id"]
            assert counter(client, "serve.coalesced") == 1
            assert counter(client, "serve.jobs_enqueued") == 1
            handle.resume()
            wait_for(
                lambda: client.job(first["job_id"])[1]["state"]
                == "done"
            )
            status, body = client.job(first["job_id"])
            assert body["result"]["cached"] is False

    def test_wait_false_then_poll_for_the_result(self, tmp_path):
        with serve(tmp_path / "runs") as (_, client):
            status, body = client.simulate(**TINY, wait=False)
            assert status == 202
            job_id = body["job_id"]
            wait_for(
                lambda: client.job(job_id)[1]["state"] == "done"
            )
            _, done = client.job(job_id)
            assert done["result"]["run_id"]
            assert done["exec_seconds"] > 0


class TestOperational:
    def test_healthz_shape(self, tmp_path):
        with serve(tmp_path / "runs") as (handle, client):
            status, body = client.healthz()
            assert status == 200
            assert body["status"] == "ok"
            assert body["core"] == "object"
            assert body["workers"] == 0
            assert body["queue_depth"] == 0
            assert body["pool_restarts"] == 0
            assert str(tmp_path / "runs") in body["store"]

    def test_priority_zero_jumps_the_queue(self, tmp_path):
        with serve(tmp_path / "runs", max_queue_depth=8) as \
                (handle, client):
            handle.pause()
            _, gate = client.simulate(
                workload="crc", scale="tiny", entries=16, wait=False
            )
            wait_for(lambda: client.healthz()[1]["queue_depth"] == 0)
            _, slow = client.simulate(
                workload="crc", scale="tiny", entries=32,
                wait=False, priority=9,
            )
            _, urgent = client.simulate(
                workload="crc", scale="tiny", entries=64,
                wait=False, priority=0,
            )
            handle.resume()
            for body in (gate, slow, urgent):
                wait_for(
                    lambda b=body: client.job(b["job_id"])[1]["state"]
                    == "done"
                )
            finished = {
                name: client.job(body["job_id"])[1]
                for name, body in (("slow", slow), ("urgent", urgent))
            }
            # The urgent job waited less than the low-priority one that
            # was admitted before it.
            assert finished["urgent"]["queue_seconds"] <= \
                finished["slow"]["queue_seconds"]


class TestPoolRecovery:
    def test_killed_worker_pool_is_replaced(self, tmp_path):
        """A SIGKILLed pool worker breaks the pool for good; the daemon
        replaces it, so a later miss succeeds and hits are unchanged."""
        import signal

        with serve(tmp_path / "runs", workers=1,
                   mp_context="spawn") as (handle, client):
            status, first = client.simulate(**TINY)
            assert status == 200
            _, hit_before = client.simulate(**TINY)
            assert hit_before["cached"] is True
            (pid,) = list(handle.server._pool._processes)
            os.kill(pid, signal.SIGKILL)
            replies = []
            for entries in (16, 32):
                status, body = client.simulate(
                    workload="crc", scale="tiny", entries=entries
                )
                replies.append((status, body))
                if status == 200:
                    break
            # The miss that finds the pool broken fails; the next runs
            # on the new pool.
            assert replies[-1][0] == 200, replies
            for status, body in replies[:-1]:
                assert (status, body["error"]["code"]) == \
                    (500, "execution_failed")
            assert counter(client, "serve.pool_restarts") == 1
            assert client.healthz()[1]["pool_restarts"] == 1
            _, hit_after = client.simulate(**TINY)
            assert json.dumps(hit_after, sort_keys=True) == \
                json.dumps(hit_before, sort_keys=True)


class TestAsyncClient:
    def test_async_roundtrip(self, tmp_path):
        import asyncio

        from repro.serve import AsyncServeClient

        async def run(port):
            async with AsyncServeClient(port=port) as client:
                status, health = await client.healthz()
                assert status == 200
                status, body = await client.submit("simulate", **TINY)
                assert status == 200
                status, again = await client.submit("simulate", **TINY)
                assert again["cached"] is True
                return body, again

        with serve(tmp_path / "runs") as (handle, _):
            body, again = asyncio.run(run(handle.port))
        assert again["run_id"] == body["run_id"]


class TestCoreThreading:
    def test_core_knob_threads_into_spawned_pool_workers(
        self, tmp_path
    ):
        """The --core satellite, end to end: a daemon under
        ``--core numpy`` runs its (spawned) pool workers on the numpy
        core, the envelope says so, and the record is bit-identical to
        the serial object-core run."""
        pytest.importorskip("numpy")
        store = tmp_path / "runs"
        with serve(store, workers=1, core="numpy",
                   mp_context="spawn") as (_, client):
            status, body = client.simulate(**TINY)
            assert status == 200
            assert body["sim_core"] == "numpy"
        record = RunStore(store).records()[-1]
        assert record.sim_core == "numpy"
        # The worker really replayed on the numpy core (its merged
        # telemetry says which core ran), not just the envelope.
        assert record.telemetry["counters"].get("sim.core.numpy", 0) \
            >= 1
        # Cores are bit-identical: the serial object-core CLI run
        # produces the same payload, hence the same run id.
        cli_store = tmp_path / "cli-runs"
        assert main([
            "simulate", "crc", "--scale", "tiny",
            "--record", "--store", str(cli_store),
        ]) == 0
        (cli_record,) = RunStore(cli_store).records()
        assert cli_record.run_id == record.run_id
        assert cli_record.metrics == record.metrics
