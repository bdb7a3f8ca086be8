"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a plain, picklable bag of named
instruments.  Sweep workers each populate a fresh registry per grid
point and ship it back to the parent with the point's result; the parent
merges them in canonical point order, so the merged counters are
bit-identical whether a sweep ran serially or over N processes (counter
addition is commutative, and the merge order is fixed anyway).

Instrument semantics under :meth:`MetricsRegistry.merge`:

* counters add,
* gauges take the elementwise ``max`` (deterministic regardless of which
  process reported last),
* histograms require identical bucket bounds and add their per-bucket
  counts and running sums.

The *current* registry is process-global (see :func:`get_registry` /
:func:`use_registry`).  Instrumented code records into whatever registry
is current; with telemetry disabled (:func:`set_enabled` /
:func:`disabled`) every recording helper is a no-op.
"""

import math
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Sequence, Tuple

#: Default histogram bucket upper bounds, in seconds — spans and phase
#: timings land here.  The last implicit bucket is +inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Log-bucket growth factor of the quantile sketch.  gamma = 1.02 bounds
#: the relative error of any reported quantile by (gamma-1)/(gamma+1),
#: i.e. under 1% — far tighter than the coarse fixed buckets — while a
#: full nanoseconds-to-minutes latency range still fits in ~1300 sparse
#: bins.
SKETCH_GAMMA = 1.02

#: Values at or below this collapse into the sketch's zero bin.
SKETCH_MIN = 1e-9

#: Percentiles every histogram snapshot reports.
PERCENTILES = (0.50, 0.95, 0.99)


class QuantileSketch:
    """Streaming quantiles with exact, order-independent merges.

    A DDSketch-style log-bucket sketch: a value lands in bin
    ``ceil(log_gamma(value))``, so every bin covers one multiplicative
    step of ``gamma`` and any quantile read back from bin midpoints has
    bounded *relative* error.  Bins are a sparse dict of counts, which
    makes :meth:`merge` plain integer addition — commutative,
    associative, and bit-deterministic regardless of how work was
    sharded across processes.  That is the same contract counters give,
    and it is why serial and N-worker runs report identical
    percentiles.
    """

    __slots__ = ("gamma", "bins", "zeros", "count", "total", "_log_gamma")

    def __init__(self, gamma: float = SKETCH_GAMMA):
        if gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {gamma}")
        self.gamma = gamma
        self._log_gamma = math.log(gamma)
        self.bins: Dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        if value <= SKETCH_MIN:
            self.zeros += 1
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self.bins[index] = self.bins.get(index, 0) + 1
        self.count += 1
        self.total += value

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (0.0 on an empty sketch)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(0, math.ceil(q * self.count) - 1)
        if rank < self.zeros:
            return 0.0
        seen = self.zeros
        for index in sorted(self.bins):
            seen += self.bins[index]
            if seen > rank:
                # Midpoint of the bin (gamma^(i-1), gamma^i].
                return (
                    2.0 * self.gamma ** index / (self.gamma + 1.0)
                )
        # Unreachable when counts are consistent; be defensive anyway.
        return 2.0 * self.gamma ** max(self.bins) / (self.gamma + 1.0)

    def percentiles(self) -> Dict[str, float]:
        """The standard ``{"p50": ..., "p95": ..., "p99": ...}`` readout."""
        return {
            f"p{int(100 * q)}": self.quantile(q) for q in PERCENTILES
        }

    def merge(self, other: "QuantileSketch") -> None:
        if self.gamma != other.gamma:
            raise ValueError(
                f"sketch gamma differs ({self.gamma} vs {other.gamma})"
            )
        for index, count in other.bins.items():
            self.bins[index] = self.bins.get(index, 0) + count
        self.zeros += other.zeros
        self.count += other.count
        self.total += other.total

    def snapshot(self) -> dict:
        return {
            "gamma": self.gamma,
            "zeros": self.zeros,
            "count": self.count,
            "total": self.total,
            "bins": {
                str(index): count
                for index, count in sorted(self.bins.items())
            },
        }

    @classmethod
    def from_snapshot(cls, payload: dict) -> "QuantileSketch":
        sketch = cls(gamma=payload.get("gamma", SKETCH_GAMMA))
        sketch.zeros = payload.get("zeros", 0)
        sketch.count = payload.get("count", 0)
        sketch.total = payload.get("total", 0.0)
        sketch.bins = {
            int(index): count
            for index, count in payload.get("bins", {}).items()
        }
        return sketch

    def __repr__(self):
        return (
            f"QuantileSketch(count={self.count}, "
            f"p50={self.quantile(0.5):.6f})"
        )


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self):
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (worker count, utilisation, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self):
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram with a running sum and count.

    ``buckets`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound.  Fixed buckets keep merges
    exact: two histograms with the same bounds merge by adding counts.

    Every histogram also feeds a :class:`QuantileSketch`, so p50/p95/p99
    ride along in snapshots with the same deterministic-merge guarantee
    as the bucket counts.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count", "sketch")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0
        self.sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1
        self.sketch.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Quantile ``q`` in [0, 1] from the embedded sketch."""
        return self.sketch.quantile(q)

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                f"histogram {self.name!r}: bucket bounds differ "
                f"({self.buckets} vs {other.buckets})"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.count += other.count
        self.sketch.merge(other.sketch)

    def __repr__(self):
        return (
            f"Histogram({self.name!r}, count={self.count}, "
            f"mean={self.mean:.6f})"
        )


class MetricsRegistry:
    """Named counters, gauges and histograms for one process (or point)."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instrument access (get-or-create) --------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, buckets)
        return histogram

    # -- aggregation ------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (see module docstring)."""
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            mine = self.gauge(name)
            mine.set(max(mine.value, gauge.value))
        for name, histogram in other.histograms.items():
            self.histogram(name, histogram.buckets).merge(histogram)

    def snapshot(self) -> dict:
        """A JSON-serialisable snapshot of every instrument."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self.counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self.gauges.items())
            },
            "histograms": {
                name: dict(
                    {
                        "buckets": list(histogram.buckets),
                        "counts": list(histogram.counts),
                        "total": histogram.total,
                        "count": histogram.count,
                        "sketch": histogram.sketch.snapshot(),
                    },
                    **histogram.sketch.percentiles(),
                )
                for name, histogram in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_snapshot(cls, payload: dict) -> "MetricsRegistry":
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry.counter(name).inc(value)
        for name, value in payload.get("gauges", {}).items():
            registry.gauge(name).set(value)
        for name, data in payload.get("histograms", {}).items():
            histogram = registry.histogram(name, tuple(data["buckets"]))
            histogram.counts = list(data["counts"])
            histogram.total = data["total"]
            histogram.count = data["count"]
            if "sketch" in data:
                histogram.sketch = QuantileSketch.from_snapshot(
                    data["sketch"]
                )
        return registry

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def __repr__(self):
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, "
            f"histograms={len(self.histograms)})"
        )


# -- process-global current registry ------------------------------------------

_state = threading.local()
_GLOBAL_REGISTRY = MetricsRegistry()
_ENABLED = True


def get_registry() -> MetricsRegistry:
    """The registry instrumented code currently records into."""
    return getattr(_state, "registry", None) or _GLOBAL_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Temporarily record into ``registry`` (nestable)."""
    previous = getattr(_state, "registry", None)
    _state.registry = registry
    try:
        yield registry
    finally:
        _state.registry = previous


def enabled() -> bool:
    """Whether instrumented code records at all."""
    return _ENABLED


def set_enabled(value: bool) -> None:
    global _ENABLED
    _ENABLED = bool(value)


@contextmanager
def disabled():
    """Turn every telemetry helper into a no-op for the duration."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous
