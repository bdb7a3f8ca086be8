"""On-disk trace cache.

Generating a trace means interpreting millions of instructions, so traces
are cached under a key derived from the workload name, input scale, and
compile configuration.  Workloads are deterministic, hence a cache hit is
bit-identical to a regeneration.

The cache is safe under concurrent builders (e.g. parallel sweep
workers all warming the same suite):

* writes land in a per-call unique temp file and are published with an
  atomic :func:`os.replace`, so readers only ever see complete files;
* :meth:`TraceCache.get_or_build` takes a per-key advisory file lock
  around the miss path, so N processes racing on one key perform
  exactly one build — the rest block briefly, then load the winner's
  file.

Loaded traces are memoized process-wide (:data:`_MEMO`): a repeat
request for a file is served from memory while the file's inode, size
and modification time are unchanged, so one process reads each trace
file once however many experiments, sweeps or serve jobs ask for it.
The memo is an LRU bounded by :data:`MEMO_BYTES`; its arrays are
read-only, since every requester shares them.  Traces a builder has
just produced are not memoized: the next request loads the published
file.

Every instance counts its own traffic (:attr:`TraceCache.hits`,
:attr:`TraceCache.misses`, :attr:`TraceCache.builds`) and mirrors the
counts — plus memo hits and lock-wait and build-time histograms — into
the current :mod:`repro.telemetry` registry under ``trace_cache.*``.
"""

import hashlib
import os
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.telemetry import span
from repro.trace.container import Trace

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: Environment variable overriding the default cache directory.
CACHE_ENV = "REPRO_TRACE_CACHE"


def default_cache_dir() -> Path:
    """The cache directory (``$REPRO_TRACE_CACHE`` or ``~/.cache/repro``)."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-traces"


#: Byte budget of the decoded-trace memo.  Every tiny trace run-all
#: reads (41 files, about 29 MB of arrays) fits, and so does the small
#: suite (30 traces, about 195 MB).
MEMO_BYTES = 256 << 20

#: What identifies one version of a file: (inode, size, mtime in ns).
Stamp = Tuple[int, int, int]


def _stamp(path: str) -> Optional[Stamp]:
    """The file's current stamp, or ``None`` if it does not exist."""
    try:
        info = os.stat(path)
    except OSError:
        return None
    return info.st_ino, info.st_size, info.st_mtime_ns


def _freeze(trace: Trace) -> int:
    """Make the trace's arrays read-only; returns their total bytes."""
    size = 0
    for value in vars(trace).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
            size += value.nbytes
    return size


class _TraceMemo:
    """Thread-safe LRU of loaded traces, keyed by absolute file path and
    bounded by the bytes of their arrays."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        #: path -> (stamp, trace, bytes), least recently used first
        self._entries: "OrderedDict[str, Tuple[Stamp, Trace, int]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, path: str, stamp: Optional[Stamp]) -> Optional[Trace]:
        """The trace loaded from ``path`` while it had ``stamp``; a
        stale entry is dropped."""
        with self._lock:
            entry = self._entries.get(path)
            if entry is None:
                return None
            if entry[0] != stamp:
                self._drop(path)
                return None
            self._entries.move_to_end(path)
            return entry[1]

    def put(self, path: str, stamp: Stamp, trace: Trace) -> None:
        size = _freeze(trace)
        if size > self.limit:
            return
        with self._lock:
            if path in self._entries:
                self._drop(path)
            self._entries[path] = (stamp, trace, size)
            self.nbytes += size
            while self.nbytes > self.limit:
                self._drop(next(iter(self._entries)))

    def discard(self, directory: str) -> None:
        """Forget every entry for a file in ``directory``."""
        with self._lock:
            for path in [p for p in self._entries
                         if os.path.dirname(p) == directory]:
                self._drop(path)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def _drop(self, path: str) -> None:
        self.nbytes -= self._entries.pop(path)[2]


#: The process-wide memo behind every :class:`TraceCache`.
_MEMO = _TraceMemo(MEMO_BYTES)


def clear_memo() -> None:
    """Empty the process-wide trace memo (the files stay on disk)."""
    _MEMO.clear()


class TraceCache:
    """Caches :class:`~repro.trace.container.Trace` objects on disk."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        #: completed :meth:`get` calls that found a loadable file
        self.hits = 0
        #: completed :meth:`get` calls that found nothing usable
        self.misses = 0
        #: builder invocations performed by :meth:`get_or_build`
        self.builds = 0

    def stats(self) -> Dict[str, int]:
        """This instance's counters as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
        }

    def key_path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return self.directory / f"{digest}.npz"

    def _lock_path(self, key: str) -> Path:
        return self.key_path(key).with_suffix(".lock")

    @contextmanager
    def _key_lock(self, key: str):
        """Exclusive per-key advisory lock (no-op where unsupported)."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self._lock_path(key), "w") as handle:
            start = time.perf_counter()
            fcntl.flock(handle, fcntl.LOCK_EX)
            if telemetry.enabled():
                telemetry.get_registry().histogram(
                    "trace_cache.lock_wait_seconds"
                ).observe(time.perf_counter() - start)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _load(self, key: str) -> Tuple[Optional[Trace], bool]:
        """Load ``key`` without touching the hit/miss counters.

        Returns the trace (``None`` on a miss) and whether the memo
        served it without reading the file.
        """
        path = os.path.abspath(self.key_path(key))
        stamp = _stamp(path)
        trace = _MEMO.get(path, stamp)
        if trace is not None:
            return trace, True
        if stamp is None:
            return None, False
        try:
            trace = Trace.load(path)
        except Exception:
            # A truncated or stale file is treated as a miss.
            Path(path).unlink(missing_ok=True)
            return None, False
        # Memoize only if no writer replaced the file mid-load.
        if _stamp(path) == stamp:
            _MEMO.put(path, stamp, trace)
        return trace, False

    def get(self, key: str) -> Optional[Trace]:
        """Return the cached trace for ``key``, or ``None``."""
        trace, memoized = self._load(key)
        if trace is None:
            self.misses += 1
            self._count("trace_cache.misses")
        else:
            self.hits += 1
            self._count("trace_cache.hits")
            if memoized:
                self._count("trace_cache.memo_hits")
        return trace

    def put(self, key: str, trace: Trace) -> None:
        """Store ``trace`` under ``key``.

        The write goes to a per-call unique temp name, then an atomic
        rename publishes it — concurrent writers of the same key cannot
        truncate each other mid-write, and the loser's rename simply
        (atomically) re-publishes identical bytes.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.key_path(key)
        tmp = path.with_suffix(
            f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}.npz"
        )
        try:
            with span("cache-publish"):
                trace.save(tmp)
                os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def get_or_build(self, key: str, builder: Callable[[], Trace]) -> Trace:
        """Fetch ``key`` from the cache, building and storing on a miss.

        The miss path holds a per-key file lock across the re-check,
        build and store, giving exactly-one-build semantics across
        concurrent processes.
        """
        trace = self.get(key)
        if trace is not None:
            return trace
        with self._key_lock(key):
            # Another process may have built while we waited on the lock;
            # that late load is not re-counted as a hit or miss.
            trace, _ = self._load(key)
            if trace is None:
                start = time.perf_counter()
                trace = builder()
                self.builds += 1
                self._count("trace_cache.builds")
                if telemetry.enabled():
                    telemetry.get_registry().histogram(
                        "trace_cache.build_seconds"
                    ).observe(time.perf_counter() - start)
                self.put(key, trace)
        return trace

    def clear(self) -> int:
        """Delete all cached traces; returns the number removed."""
        _MEMO.discard(os.path.abspath(self.directory))
        if not self.directory.exists():
            return 0
        removed = 0
        for path in self.directory.glob("*.npz"):
            path.unlink()
            removed += 1
        for path in self.directory.glob("*.lock"):
            path.unlink(missing_ok=True)
        return removed

    @staticmethod
    def _count(name: str) -> None:
        if telemetry.enabled():
            telemetry.get_registry().counter(name).inc()
