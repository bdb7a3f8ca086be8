"""Telemetry event sinks.

A sink receives *events* — flat JSON-serialisable dicts with at least an
``"event"`` key: the CLI writes one ``"header"`` and, last, one
``"metrics"`` snapshot (span timings live in the snapshot's
``span.<name>.seconds`` histograms).  The default sink
is :class:`NullSink`, whose :meth:`~Sink.emit` is a no-op, so
instrumented code paths cost nothing unless a real sink is installed
(the CLI's ``--metrics out.jsonl`` flag installs a :class:`JsonlSink`).

Sinks are parent-process objects: sweep workers never see them and ship
their numbers back as pickled registries instead (see
:mod:`repro.telemetry.registry`).
"""

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Tuple


class Sink:
    """Event sink interface; also usable as a context manager."""

    def emit(self, event: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class NullSink(Sink):
    """Discards everything — the zero-overhead default."""

    __slots__ = ()

    def emit(self, event: dict) -> None:
        pass


class MemorySink(Sink):
    """Collects events in a list (tests, in-process reporting)."""

    def __init__(self):
        self.events: List[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()


class JsonlSink(Sink):
    """Appends one JSON object per line to a file.

    The file is opened lazily on the first event (creating the parent
    directory if needed) and written with normal block buffering — the
    profiler's event streams are tens of thousands of records, where
    per-line flushing costs real time.  Buffering makes the close path
    load-bearing: :meth:`close` (idempotent) flushes everything, and the
    context-manager ``__exit__`` runs it even when the body raised, so a
    simulation blowing up mid-run still leaves a complete, parseable
    file behind.  Call :meth:`flush` to checkpoint mid-run (e.g. before
    handing the path to a tail-following reader).
    """

    def __init__(self, path):
        self.path = Path(path)
        self._handle = None

    def emit(self, event: dict) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a")
        # One write per record keeps the line intact even if a later
        # event raises mid-serialisation.
        self._handle.write(
            json.dumps(event, sort_keys=True, default=str) + "\n"
        )

    def flush(self) -> None:
        """Push buffered records to disk without closing."""
        if self._handle is not None:
            self._handle.flush()

    @property
    def closed(self) -> bool:
        """No open handle (never emitted, or already closed)."""
        return self._handle is None

    def close(self) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            handle.close()


def read_events(path) -> List[dict]:
    """Parse a JSONL event file back into a list of dicts.

    Blank lines are skipped; a malformed line raises ``ValueError``
    naming the offending line number.
    """
    events = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from None
    return events


def read_events_lenient(path) -> Tuple[List[dict], int]:
    """Like :func:`read_events`, but skip malformed lines.

    Returns ``(events, skipped)`` — ``skipped`` counts the non-blank
    lines that failed to parse or decoded to a non-object.  A stream
    truncated mid-line by a crashed (or still-running) producer should
    degrade to a partial report, not a traceback; callers decide how
    loudly to warn.
    """
    events = []
    skipped = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(event, dict):
                skipped += 1
                continue
            events.append(event)
    return events, skipped


# -- process-global current sink ----------------------------------------------

_state = threading.local()
_NULL_SINK = NullSink()


def get_sink() -> Sink:
    """The sink events are currently emitted to (default: a NullSink)."""
    return getattr(_state, "sink", None) or _NULL_SINK


def set_sink(sink: Optional[Sink]) -> None:
    """Install ``sink`` as current (``None`` restores the NullSink)."""
    _state.sink = sink


@contextmanager
def use_sink(sink: Sink):
    """Temporarily emit events to ``sink`` (nestable)."""
    previous = getattr(_state, "sink", None)
    _state.sink = sink
    try:
        yield sink
    finally:
        _state.sink = previous
