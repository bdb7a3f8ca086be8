"""Spans and distributed tracing.

:func:`span` is the one way to time a phase of work (trace build,
cache publish, sweep, an experiment, one simulation).  On exit it
writes at most two records:

* while telemetry is enabled (:func:`repro.telemetry.enabled`), one
  observation into the current registry's name-keyed histogram
  ``span.<name>.seconds`` — its ``count`` is the number of calls;
* while tracing is on, one ``trace-span`` record into the current
  :class:`SpanCollector`, linked to its parent by the frame stack below.

One request to the serve daemon — or one sweep grid point — crosses
several process boundaries: HTTP handler, job queue, pool worker,
simulation driver.  Tracing gives every such unit of work a **trace
context** (W3C-traceparent-style ``trace_id`` / ``span_id`` /
``parent_id``) that is carried across those boundaries explicitly, so
all the spans it produces reassemble into one tree no matter which
process timed them.

Design constraints, in order:

* **Deterministic span identity.**  Child span ids are *derived* —
  ``sha256(trace_id : parent_span_id : name : seq)`` truncated to 16 hex
  digits — never random.  A sweep run over 1 worker and over 4 workers
  produces the *same* span set (same ids, same parent links) because
  each grid point's context is derived from the sweep span and the
  point's canonical index, independent of scheduling.  Only timestamps
  differ.
* **Mergeable collection.**  Spans land in a :class:`SpanCollector` — a
  plain picklable list of JSON-ready dicts with a concatenating
  :meth:`~SpanCollector.merge`, mirroring how
  :class:`~repro.telemetry.MetricsRegistry` travels from sweep workers
  back to the parent.
* **Zero cost when off.**  Tracing defaults to disabled; every helper
  reduces to one flag check.  Per-point call sites (``sim.driver``,
  ``fastcore.decode``, ``fastcore.replay``, ``sweep-point``) open their
  span only while tracing, so an untraced run pays nothing per point.

Propagation format is a W3C ``traceparent`` string,
``00-<trace_id:32hex>-<span_id:16hex>-01``, accepted from HTTP clients
and shipped verbatim through pool-worker arguments.
"""

import hashlib
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.telemetry.registry import enabled, get_registry

#: Environment knob: ``REPRO_TRACING=1`` turns tracing on at import.
TRACING_ENV = "REPRO_TRACING"

#: traceparent version prefix / flags we emit (always sampled).
_TP_VERSION = "00"
_TP_FLAGS = "01"


@dataclass(frozen=True)
class TraceContext:
    """Identity of one span: where its children hang in the tree."""

    trace_id: str  #: 32 lowercase hex chars, shared by the whole tree
    span_id: str  #: 16 lowercase hex chars, this span
    parent_id: str = ""  #: 16 hex chars, or "" for a root span

    def to_traceparent(self) -> str:
        return f"{_TP_VERSION}-{self.trace_id}-{self.span_id}-{_TP_FLAGS}"


def new_trace_id() -> str:
    """A fresh random 32-hex trace id (roots of *new* traces only)."""
    return uuid.uuid4().hex


def derive_span_id(trace_id: str, parent_id: str, name: str,
                   seq: int) -> str:
    """Deterministic child span id — pure function of the tree position.

    Two processes deriving the id for the same (parent, name, seq) get
    the same 16-hex digits, which is what makes 1-worker and N-worker
    runs produce identical span sets.
    """
    material = f"{trace_id}:{parent_id}:{name}:{seq}"
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def child_context(parent: TraceContext, name: str,
                  seq: int) -> TraceContext:
    """The context of ``parent``'s ``seq``-th child named ``name``."""
    return TraceContext(
        trace_id=parent.trace_id,
        span_id=derive_span_id(
            parent.trace_id, parent.span_id, name, seq
        ),
        parent_id=parent.span_id,
    )


def from_traceparent(value: str) -> TraceContext:
    """Parse a W3C traceparent string; raises ``ValueError`` if malformed."""
    parts = value.strip().split("-")
    if len(parts) != 4:
        raise ValueError(
            f"malformed traceparent {value!r} "
            "(want version-traceid-spanid-flags)"
        )
    version, trace_id, span_id, _flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
        raise ValueError(f"malformed traceparent {value!r}")
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        raise ValueError(
            f"malformed traceparent {value!r} (non-hex ids)"
        ) from None
    return TraceContext(trace_id=trace_id, span_id=span_id)


#: Field names and JSON types of one ``trace-span`` record written by
#: :func:`make_record` — the contract the schema checker validates
#: against.  ``attrs`` appears only when the span has attributes.
SPAN_FIELDS = {
    "event": str,
    "trace_id": str,
    "span_id": str,
    "parent_id": str,
    "name": str,
    "start": float,
    "seconds": float,
    "pid": int,
}
SPAN_OPTIONAL_FIELDS = {"attrs": dict}


def make_record(ctx: TraceContext, name: str, start: float,
                seconds: float, attrs: Optional[dict] = None) -> dict:
    """One finished span as its JSONL dict.

    Identity fields (``trace_id``/``span_id``/``parent_id``/``name``/
    ``attrs``) are deterministic; ``start``/``seconds``/``pid`` are the
    per-run measurement and are excluded from
    :meth:`SpanCollector.identity`.
    """
    record = {
        "event": "trace-span",
        "trace_id": ctx.trace_id,
        "span_id": ctx.span_id,
        "parent_id": ctx.parent_id,
        "name": name,
        "start": start,
        "seconds": seconds,
        "pid": os.getpid(),
    }
    if attrs:
        record["attrs"] = attrs
    return record


class SpanCollector:
    """A picklable bag of finished span records with deterministic merge.

    The cross-process protocol mirrors :class:`MetricsRegistry`: each
    worker collects into a fresh collector, ships it back pickled, and
    the parent merges in canonical point order.  Because span ids are
    derived (not random) and :meth:`canonical` sorts by
    ``(trace_id, span_id)``, the merged set is bit-identical however the
    work was scheduled — only timestamps and pids vary.
    """

    def __init__(self):
        self.records: List[dict] = []

    def add(self, record: dict) -> None:
        self.records.append(record)

    def merge(self, other: "SpanCollector") -> None:
        self.records.extend(other.records)

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def canonical(self) -> List[dict]:
        """Records sorted by (trace_id, span_id) — scheduling-invariant."""
        return sorted(
            self.records,
            key=lambda r: (r["trace_id"], r["span_id"]),
        )

    def identity(self) -> List[Tuple[str, str, str, str]]:
        """The deterministic skeleton: sorted (trace, span, parent, name).

        Two runs of the same work agree on this exactly — it is the
        "same span set modulo timestamps" the merge tests assert.
        """
        return sorted(
            (r["trace_id"], r["span_id"], r["parent_id"], r["name"])
            for r in self.records
        )

    def traces(self) -> Dict[str, List[dict]]:
        """Records grouped by trace id, each group in canonical order."""
        grouped: Dict[str, List[dict]] = {}
        for record in self.canonical():
            grouped.setdefault(record["trace_id"], []).append(record)
        return grouped

    def write_jsonl(self, path) -> int:
        """Append canonical records to ``path`` (one JSON object/line)."""
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = self.canonical()
        with open(path, "a") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


def read_spans(path) -> List[dict]:
    """Read span records back from a JSONL file (non-span lines skipped).

    Tolerates mixed streams: a ``--metrics`` file carries ``header`` and
    ``metrics`` events, and a daemon trace log may be appended to
    by a still-running process (trailing partial line).
    """
    import json

    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (isinstance(event, dict)
                    and event.get("event") == "trace-span"):
                records.append(event)
    return records


# -- process-global tracing state ---------------------------------------------

#: Each frame is ``[context, next_child_seq]`` — the mutable seq gives
#: deterministic sibling numbering inside one thread.
_state = threading.local()
_GLOBAL_COLLECTOR = SpanCollector()
_TRACING = os.environ.get(TRACING_ENV, "").strip() == "1"


def tracing_enabled() -> bool:
    """Whether trace spans are recorded at all."""
    return _TRACING


@contextmanager
def use_tracing(value: bool = True):
    """Temporarily flip tracing on (or off) for the duration."""
    global _TRACING
    previous = _TRACING
    _TRACING = bool(value)
    try:
        yield
    finally:
        _TRACING = previous


def get_collector() -> SpanCollector:
    """The collector finished spans are currently recorded into."""
    # Explicit None test: an *empty* collector is falsy (__len__), and
    # falling back to the global one would silently drop its spans.
    collector = getattr(_state, "collector", None)
    return collector if collector is not None else _GLOBAL_COLLECTOR


@contextmanager
def use_collector(collector: SpanCollector):
    """Temporarily record spans into ``collector`` (nestable)."""
    previous = getattr(_state, "collector", None)
    _state.collector = collector
    try:
        yield collector
    finally:
        _state.collector = previous


def _frames() -> list:
    frames = getattr(_state, "frames", None)
    if frames is None:
        frames = _state.frames = []
    return frames


def current_context() -> Optional[TraceContext]:
    """The innermost open span's context on this thread (None if none)."""
    frames = getattr(_state, "frames", None)
    return frames[-1][0] if frames else None


@contextmanager
def use_context(ctx: TraceContext, next_seq: int = 0):
    """Install ``ctx`` as the root frame for the duration.

    This *replaces* the thread's frame stack (saving and restoring it),
    which is exactly what a worker wants: a sweep point or serve job
    runs under precisely the context its parent derived for it, with
    child numbering starting at ``next_seq`` — so the span tree a point
    produces is identical whether it ran in-process (under the parent's
    own stack) or in a pool worker (with no stack at all).
    """
    previous = getattr(_state, "frames", None)
    _state.frames = [[ctx, next_seq]]
    try:
        yield ctx
    finally:
        _state.frames = previous if previous is not None else []


def skip_span() -> None:
    """Take the sequence number a child span opened here would take,
    recording nothing — for an optional span, so that its absence does
    not renumber (and so re-identify) the siblings after it."""
    if _TRACING:
        frames = _frames()
        if frames:
            frames[-1][1] += 1


@contextmanager
def span(name: str, **attrs):
    """Time a phase: ``with span("sweep", points=32): ...``.

    Observes the block's duration into ``span.<name>.seconds`` while
    telemetry is enabled and, while tracing, opens a trace context
    (children link to it across nesting and, via the propagation
    plumbing, across processes) and records a ``trace-span`` with
    ``attrs`` (JSON-serialisable) on exit.  Yields that context, or
    ``None`` when not tracing.  With both off the block runs untimed.
    Spans are phase-grained — never wrap per-branch work in one.
    """
    timed = enabled()
    traced = _TRACING
    if not (timed or traced):
        yield None
        return
    ctx = None
    if traced:
        frames = _frames()
        if frames:
            parent = frames[-1]
            ctx = child_context(parent[0], name, parent[1])
            parent[1] += 1
        else:  # no open span: root a new trace (random trace id)
            trace_id = new_trace_id()
            ctx = TraceContext(trace_id=trace_id, span_id=derive_span_id(
                trace_id, "", name, 0
            ))
        frames.append([ctx, 0])
        wall_start = time.time()
    start = time.perf_counter()
    try:
        yield ctx
    finally:
        seconds = time.perf_counter() - start
        if timed:
            get_registry().histogram(f"span.{name}.seconds").observe(
                seconds
            )
        if traced:
            frames.pop()
            get_collector().add(
                make_record(ctx, name, wall_start, seconds, attrs or None)
            )
