"""The process-wide decoded-trace memo under ``TraceCache``.

A loaded trace file is served from memory while its inode, size and
modification time are unchanged; a replaced, truncated or removed file
goes back to the disk path.  The memo is an LRU bounded by bytes, its
arrays are read-only, and built traces never enter it.
"""

import os
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import MetricsRegistry
from repro.trace import Trace, TraceCache, TraceMeta
from repro.trace import cache as cache_mod
from repro.workloads import get_workload


def _trace(salt: int = 0, n: int = 3) -> Trace:
    return Trace.from_lists(
        b_pc=[salt + i for i in range(n)],
        b_idx=[10 * (i + 1) for i in range(n)],
        b_taken=[i % 2 == 0 for i in range(n)],
        b_guard=[i % 3 for i in range(n)],
        b_guard_def=[-1] * n,
        b_kind=[0] * n,
        b_region=[False] * n,
        b_target=[4] * n,
        d_pc=[0],
        d_idx=[5],
        d_value=[True],
        d_pred=[1],
        meta=TraceMeta(workload="memo", scale="t", instructions=40 + salt),
    )


@pytest.fixture(autouse=True)
def _empty_memo():
    cache_mod.clear_memo()
    yield
    cache_mod.clear_memo()


@pytest.fixture
def loads(monkeypatch):
    """Per-file count of real ``Trace.load`` calls."""
    calls = Counter()
    load = Trace.load.__func__

    def counting_load(cls, path):
        calls[os.path.abspath(path)] += 1
        return load(cls, path)

    monkeypatch.setattr(Trace, "load", classmethod(counting_load))
    return calls


def _path(cache: TraceCache, key: str) -> str:
    return os.path.abspath(cache.key_path(key))


class TestHits:
    def test_repeat_get_is_served_from_memory(self, tmp_path, loads):
        cache = TraceCache(tmp_path)
        cache.put("k", _trace(1))
        registry = MetricsRegistry()
        with telemetry.use_registry(registry):
            first = cache.get("k")
            second = TraceCache(tmp_path).get("k")
        assert second is first
        assert loads[_path(cache, "k")] == 1
        counters = registry.snapshot()["counters"]
        assert counters["trace_cache.hits"] == 2
        assert counters["trace_cache.memo_hits"] == 1

    def test_memoized_arrays_are_read_only(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("k", _trace(1))
        trace = cache.get("k")
        with pytest.raises(ValueError):
            trace.b_taken[0] = not trace.b_taken[0]
        with pytest.raises(ValueError):
            trace.d_idx += 1
        assert cache.get("k").b_pc.tolist() == [1, 2, 3]

    def test_cache_directories_never_share_entries(self, tmp_path):
        one = TraceCache(tmp_path / "one")
        two = TraceCache(tmp_path / "two")
        one.put("k", _trace(1))
        two.put("k", _trace(2))
        for _ in range(2):
            assert one.get("k").b_pc.tolist() == [1, 2, 3]
            assert two.get("k").b_pc.tolist() == [2, 3, 4]


class TestInvalidation:
    def test_replaced_file_is_reloaded(self, tmp_path, loads):
        cache = TraceCache(tmp_path)
        cache.put("k", _trace(1))
        assert cache.get("k").meta.instructions == 41
        cache.put("k", _trace(2))
        assert cache.get("k").meta.instructions == 42
        assert loads[_path(cache, "k")] == 2

    def test_truncated_file_is_rebuilt(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("k", _trace(1))
        cache.get("k")
        path = cache.key_path("k")
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        assert cache.get("k") is None
        assert not path.exists()
        rebuilt = cache.get_or_build("k", lambda: _trace(3))
        assert rebuilt.meta.instructions == 43
        assert cache.builds == 1

    def test_removed_file_is_rebuilt(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("k", _trace(1))
        cache.get("k")
        cache.key_path("k").unlink()
        assert cache.get("k") is None
        assert len(cache_mod._MEMO) == 0
        assert cache.get_or_build("k", lambda: _trace(3)).b_pc[0] == 3
        assert cache.builds == 1

    def test_clear_invalidates_the_memo(self, tmp_path, loads):
        cache = TraceCache(tmp_path / "one")
        other = TraceCache(tmp_path / "two")
        cache.put("k", _trace(1))
        other.put("k", _trace(2))
        cache.get("k")
        kept = other.get("k")
        assert len(cache_mod._MEMO) == 2
        assert cache.clear() == 1
        assert len(cache_mod._MEMO) == 1
        assert other.get("k") is kept
        cache.put("k", _trace(1))
        cache.get("k")
        assert loads[_path(cache, "k")] == 2


class TestBound:
    def test_byte_bound_evicts_least_recently_used(self, tmp_path,
                                                   monkeypatch, loads):
        cache = TraceCache(tmp_path)
        for key in "abc":
            cache.put(key, _trace(ord(key)))
        cache.get("a")
        size = cache_mod._MEMO.nbytes
        cache_mod.clear_memo()
        monkeypatch.setattr(cache_mod._MEMO, "limit", 2 * size)
        cache.get("a")
        cache.get("b")
        cache.get("a")  # b is now the least recently used
        cache.get("c")
        assert cache_mod._MEMO.nbytes == 2 * size
        before = dict(loads)
        cache.get("a")
        cache.get("c")
        assert dict(loads) == before
        cache.get("b")
        assert loads[_path(cache, "b")] == 2

    def test_trace_larger_than_the_bound_is_not_memoized(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cache_mod._MEMO, "limit", 16)
        cache = TraceCache(tmp_path)
        cache.put("k", _trace(1))
        assert cache.get("k") is not cache.get("k")
        assert len(cache_mod._MEMO) == 0


class TestBypass:
    def test_built_trace_is_not_memoized(self, tmp_path, loads):
        cache = TraceCache(tmp_path)
        built = cache.get_or_build("k", lambda: _trace(1))
        assert built.b_pc.flags.writeable
        assert len(cache_mod._MEMO) == 0
        loaded = cache.get("k")
        assert loaded is not built
        assert loads[_path(cache, "k")] == 1

    def test_use_cache_false_bypasses_the_memo(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
        workload = get_workload("crc")
        cached = workload.trace(scale="tiny")
        cached = workload.trace(scale="tiny")
        assert len(cache_mod._MEMO) == 1
        fresh = workload.trace(scale="tiny", use_cache=False)
        assert fresh is not cached
        assert fresh.b_pc.flags.writeable
        assert len(cache_mod._MEMO) == 1
        assert np.array_equal(fresh.b_pc, cached.b_pc)


def test_concurrent_threads_share_one_consistent_memo(tmp_path,
                                                      monkeypatch):
    cache = TraceCache(tmp_path)
    keys = [f"k{i}" for i in range(6)]
    for i, key in enumerate(keys):
        cache.put(key, _trace(10 * i, n=64))
    cache.get(keys[0])
    size = cache_mod._MEMO.nbytes
    cache_mod.clear_memo()
    # Room for three of the six: threads keep evicting each other.
    monkeypatch.setattr(cache_mod._MEMO, "limit", 3 * size)
    start = threading.Barrier(8)

    def worker(seed: int):
        start.wait()
        wrong = 0
        for step in range(200):
            i = (seed * 7 + step * (seed + 1)) % len(keys)
            trace = TraceCache(tmp_path).get(keys[i])
            wrong += int(trace.b_pc[0] != 10 * i)
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(worker, seed) for seed in range(8)]
            wrong = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [0] * 8
    memo = cache_mod._MEMO
    assert memo.nbytes == size * len(memo) <= memo.limit
