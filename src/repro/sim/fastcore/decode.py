"""Pre-decode: lower a trace + options into a flat replay plan.

The key observation that makes vectorised replay possible: in
trace-driven simulation the global history register's evolution is
*prediction-independent* — actual outcomes are shifted in at predict
time and predicate defines at their availability points, neither of
which depends on what any predictor said.  So the entire history stream,
every branch's predict-time history value, the squash mask and the
delayed-update schedule can be computed up front with numpy; only the
counter-table state remains serial, and that is what the replay loops
(:mod:`repro.sim.fastcore.replay`) and the segmented-scan backend
(:mod:`repro.sim.fastcore.batch`) handle.

A :class:`ReplayPlan` is one (trace, SimOptions) decode: per-branch
predict-time history values, squash mask, branch classes, and the
merged *event stream* (reads, delayed-update applications, squash
train-PHT updates) in exactly the order a branch-by-branch front end
performs them.  It is the only derivation of that stream: every
simulation core replays it.  Which branches are squashed and which
predicate defines enter history are the front end's rules
(:func:`~repro.pipeline.availability.squash_mask`,
:func:`~repro.pipeline.availability.pgu_defines`); this module only
applies them.

Plans of different options often read the same history stream: E8's
PGU points at one distance share it with every variant whose SFP still
shifts history, and every unused distance reads the plain stream.  So
:func:`history_values` memoizes the per-branch history values per trace
object, keyed by what the stream reads (:func:`_stream_key`), in one
process-wide LRU of :data:`HISTORY_MEMO_BYTES` whose entries leave
with their trace (:class:`TraceLRU`); every plan that reads a stream
holds the one read-only array as its ``ghr``.
"""

import mmap
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional

import numpy as np

from repro.pipeline.availability import pgu_defines, pgu_delay, squash_mask
from repro.sim.driver import SimOptions
from repro.trace.container import Trace


@dataclass
class ReplayPlan:
    """Everything replay needs, decoded once per (trace, options).

    Consumers only read the arrays: ``ghr``, ``taken``, ``cls`` and a
    uniform plan's event arrays are read-only and shared with other
    plans (``taken`` is a view of the trace's outcomes).
    """

    options: SimOptions
    workload: str
    instructions: int
    n: int
    pc: np.ndarray  #: int64, per branch
    taken: np.ndarray  #: uint8, per branch
    ghr: np.ndarray  #: uint64, predict-time history value per branch
    cls: np.ndarray  #: int8, per branch
    squash: Optional[np.ndarray]  #: bool per branch, None without SFP
    # -- event stream, in front-end order --------------------------------
    ev_branch: np.ndarray  #: int64, branch each event belongs to
    ev_read: np.ndarray  #: uint8, event predicts (and counts stats)
    ev_trans: np.ndarray  #: uint8, event applies a counter transition
    uniform: bool  #: every event is read+trans (the common tight case)
    applied_updates: int  #: delayed updates that actually applied
    # -- per-class counts, fixed by the plan -----------------------------
    class_counts: np.ndarray = field(init=False)  #: branches per class
    #: squashed branches per class (zeros without SFP)
    squash_class_counts: np.ndarray = field(init=False)
    squashed: int = field(init=False)  #: squashed branches

    def __post_init__(self):
        self.class_counts = np.bincount(self.cls, minlength=3)
        if self.squash is None:
            self.squash_class_counts = np.zeros(3, dtype=np.int64)
            self.squashed = 0
        else:
            self.squash_class_counts = np.bincount(
                self.cls[self.squash], minlength=3
            )
            self.squashed = int(self.squash.sum())

    def per_event(self, values: np.ndarray) -> np.ndarray:
        """Per-branch ``values`` at every event (``values[ev_branch]``);
        ``values`` itself when the events are the branches in order."""
        if self.uniform and self.ev_branch.shape[0] == self.n:
            return values
        return values[self.ev_branch]


class TraceLRU:
    """A thread-safe LRU of values derived from trace objects.

    Entries are keyed by the trace object's identity plus a caller's
    key.  A weak reference to the trace confirms the identity, so a
    later object that reuses a dead trace's ``id`` misses, and its
    callback drops the trace's entries as soon as the trace is
    collected.  The summed ``weigh(value)`` of the entries stays within
    the ``limit`` given to :meth:`put`; the least recently used go
    first.
    """

    def __init__(self, weigh=lambda value: 1):
        self._weigh = weigh
        #: total weight of the entries
        self.size = 0
        #: (id of the trace, key) -> (weak reference, value, weight),
        #: least recently used first
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: id of a live trace -> its weak reference (with the callback)
        self._refs: dict = {}
        #: references whose trace died while the lock was held
        self._dead: list = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, trace, key: Hashable):
        """The value stored for ``(trace, key)``, or ``None``."""
        with self._lock:
            self._purge()
            entry = self._entries.get((id(trace), key))
            if entry is None or entry[0]() is not trace:
                return None
            self._entries.move_to_end((id(trace), key))
            return entry[1]

    def put(self, trace, key: Hashable, value, limit: int) -> None:
        """Store ``value`` for ``(trace, key)``, then evict down to
        ``limit``; a value heavier than ``limit`` is not kept."""
        weight = self._weigh(value)
        with self._lock:
            self._purge()
            ref = self._refs.get(id(trace))
            if ref is None or ref() is not trace:
                ref = weakref.ref(trace, self._collected)
                self._refs[id(trace)] = ref
            old = self._entries.pop((id(trace), key), None)
            if old is not None:
                self.size -= old[2]
            if weight <= limit:
                self._entries[id(trace), key] = (ref, value, weight)
                self.size += weight
            while self.size > limit:
                self.size -= self._entries.popitem(last=False)[1][2]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._refs.clear()
            self._dead.clear()
            self.size = 0

    def _collected(self, ref) -> None:
        # A trace died.  The callback may run inside a locked section
        # (a collection triggered there); then the next call purges.
        self._dead.append(ref)
        if self._lock.acquire(blocking=False):
            try:
                self._purge()
            finally:
                self._lock.release()

    def _purge(self) -> None:
        """Drop the entries of every collected trace (lock held)."""
        while self._dead:
            ref = self._dead.pop()
            for key in [k for k, entry in self._entries.items()
                        if entry[0] is ref]:
                self.size -= self._entries.pop(key)[2]
            for ident in [i for i, r in self._refs.items() if r is ref]:
                del self._refs[ident]


#: Byte budget of the history memo.  One tiny run-all reads about
#: 20 MB of distinct streams, but E8 and E10 reuse theirs within a few
#: points of the same trace, so a budget this small keeps most hits
#: (476 streams computed for 1091 decodes) without raising peak RSS.
HISTORY_MEMO_BYTES = 4 << 20

#: Per-branch history values, keyed by :func:`_stream_key`.
_HISTORY = TraceLRU(weigh=lambda values: values.nbytes)


def _stream_key(options: SimOptions) -> tuple:
    """``(emits, defines, width)``: what the history stream reads.

    ``emits`` is ``None`` when every branch shifts its outcome in, or
    the squash mask's inputs ``(distance, squash_known_true)`` when
    squashed branches skip history; ``defines`` is ``None`` without
    PGU, or ``(effective delay, which)``.
    """
    sfp = options.sfp
    emits = None
    if sfp is not None and not sfp.update_history:
        emits = (options.distance, sfp.squash_known_true)
    defines = None
    if options.pgu is not None:
        defines = (pgu_delay(options), options.pgu.which)
    return emits, defines, min(options.history_bits, 64)


def history_values(trace: Trace, options: SimOptions,
                   squash: Optional[np.ndarray]) -> np.ndarray:
    """Per-branch predict-time history (read-only ``uint64``), shared
    by every plan of ``trace`` that reads the same stream."""
    key = _stream_key(options)
    values = _HISTORY.get(trace, key)
    if values is None:
        values = _mapped_uint64(_history_values(trace, options, squash))
        _HISTORY.put(trace, key, values, HISTORY_MEMO_BYTES)
    return values


#: A memo entry's mapping: private, anonymous and, where the system
#: offers it, populated up front rather than one page fault at a time.
_MAP_FLAGS = (
    mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
)


def _mapped_uint64(values: np.ndarray) -> np.ndarray:
    """``values`` as a read-only ``uint64`` array in an anonymous
    mapping of its own.

    Memo entries outlive the decode's temporaries; allocated from the
    heap they would pin it between freed blocks.  A mapping of its own
    leaves the heap alone and returns its pages to the system once the
    entry is evicted and no plan holds it (with heap-allocated entries a
    4 MB budget raised ``runall-warm``'s peak RSS by about 5%).
    """
    if values.shape[0] == 0:
        out = np.zeros(0, dtype=np.uint64)
    else:
        mapping = mmap.mmap(-1, values.shape[0] * 8, flags=_MAP_FLAGS)
        out = np.frombuffer(mapping, dtype=np.uint64)
        out[:] = values
    out.flags.writeable = False
    return out


#: ``(arange(n), ones(n))`` for the largest ``n`` decoded so far,
#: read-only: every uniform plan's event arrays are prefixes of these.
_UNIFORM = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8))


def _uniform_events(n: int):
    """``(ev_branch, ev_read, ev_trans)`` of a uniform plan of ``n``
    branches: one read+transition event per branch, as read-only views
    that every uniform plan in the process shares."""
    global _UNIFORM
    branch, ones = _UNIFORM
    if branch.shape[0] < n:
        branch = np.arange(n, dtype=np.int64)
        ones = np.ones(n, dtype=np.uint8)
        branch.flags.writeable = False
        ones.flags.writeable = False
        _UNIFORM = (branch, ones)
    return branch[:n], ones[:n], ones[:n]


def _history_values(trace: Trace, options: SimOptions,
                    squash: Optional[np.ndarray]) -> np.ndarray:
    """Per-branch predict-time history, via one bit stream.

    The stream interleaves predicate-define bits (at their availability
    points) with branch-outcome bits (squashed branches emit only when
    ``sfp.update_history``), in the order the history register receives
    them.  Each branch's value is then the ``history_bits``-wide window of the
    stream before its read position — the register's LSB is the most
    recent bit (:func:`bit_windows`), in the narrowest unsigned dtype
    that holds it.
    """
    n = trace.num_branches
    if n == 0:
        return np.zeros(0, dtype=np.uint64)

    d_idx, d_bits, delay = pgu_defines(trace, options)
    # defs_le[i] = defines shifted in by the time branch i predicts: those
    # visible at its fetch, d_idx + delay <= b_idx (a define visible at a
    # branch precedes that branch's own read).
    defs_le = np.searchsorted(d_idx + delay, trace.b_idx, side="right")
    # read_pos[i] = stream bits before branch i's read: those defines and
    # the outcomes of the emitting branches before i.
    if squash is None or options.sfp.update_history:
        read_pos = defs_le + np.arange(n)
        emit_pos = read_pos
        emitted = trace.b_taken
    else:
        emits_excl = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(~squash, out=emits_excl[1:])
        read_pos = defs_le + emits_excl[:n]
        emit_idx = np.flatnonzero(~squash)
        emit_pos = read_pos[emit_idx]
        emitted = trace.b_taken[emit_idx]
    # The stream holds every define visible by the last branch, in
    # order, in the slots the emitting branches leave free.
    defines = int(defs_le[-1])
    bits = np.zeros(defines + emit_pos.shape[0], dtype=np.uint8)
    bits[emit_pos] = emitted
    if defines:
        define_slot = np.ones(bits.shape[0], dtype=bool)
        define_slot[emit_pos] = False
        bits[define_slot] = d_bits[:defines]
    return bit_windows(bits, read_pos, min(options.history_bits, 64))


def bit_windows(bits: np.ndarray, read_pos: np.ndarray,
                width: int) -> np.ndarray:
    """The ``width`` (at most 64) stream bits before each read position.

    ``bits`` is a 0/1 ``uint8`` stream; window ``i`` holds
    ``sum_t bits[read_pos[i] - 1 - t] << t`` for ``t < width`` (the
    newest bit at the LSB), with zeros for positions before the
    stream's start.  Windows of every position are built by doubling —
    a window of ``2s`` bits is the ``s``-bit window at ``p`` and the
    one at ``p - s`` shifted up by ``s`` — in the narrowest unsigned
    dtype that holds ``width`` bits, which is also the result's dtype.
    """
    dtype = next(
        t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
        if width <= np.iinfo(t).bits
    )
    windows = np.zeros(int(bits.shape[0]) + 1, dtype=dtype)
    windows[1:] = bits
    span = 1
    while span < width:
        windows[span:] |= windows[:-span] << dtype(span)
        span <<= 1
    out = windows[read_pos]
    if width < np.iinfo(dtype).bits:
        out &= dtype((1 << width) - 1)
    return out


def build_plan(trace: Trace, options: SimOptions) -> ReplayPlan:
    """Decode one (trace, options) pair into a :class:`ReplayPlan`."""
    n = trace.num_branches
    squash = squash_mask(trace, options)
    ghr = history_values(trace, options, squash)
    # A read-only uint8 view of the outcomes, not a copy.
    taken = trace.b_taken.astype(bool, copy=False).view(np.uint8)
    taken.flags.writeable = False
    pc = trace.b_pc.astype(np.int64, copy=False)  # no copy when int64

    sfp = options.sfp
    train_squashed = sfp is not None and sfp.update_pht
    if squash is None:
        participates = np.ones(n, dtype=bool)
    else:
        participates = ~squash

    applied_updates = 0
    if not options.delayed_update:
        # One event per participating branch (read + transition); a
        # squashed branch appears as a transition-only event when the
        # filter still trains the PHT.
        if squash is None or (not train_squashed and not squash.any()):
            ev_branch, ev_read, ev_trans = _uniform_events(n)
            uniform = True
        else:
            keep = participates | (squash if train_squashed else False)
            ev_branch = np.flatnonzero(keep).astype(np.int64)
            ev_trans = _uniform_events(ev_branch.shape[0])[2]
            if train_squashed:
                ev_read = participates[ev_branch].astype(np.uint8)
            else:
                ev_read = ev_trans
            uniform = bool(ev_read.all())
    else:
        # Delayed updates: reads stay at their branch; each enqueued
        # update applies just before the first later branch whose fetch
        # index reaches apply_at = idx + distance (pending updates drain
        # before that branch predicts).  Updates never reached by a
        # later branch stay pending forever, exactly like a pending-update
        # queue at end of trace.  Squash train-PHT updates are immediate
        # even in delayed mode.
        read_idx = np.flatnonzero(participates).astype(np.int64)
        apply_at = trace.b_idx[read_idx] + options.distance
        target = np.searchsorted(trace.b_idx, apply_at, side="left")
        target = np.maximum(target, read_idx + 1)
        applies = target < n
        upd_idx = read_idx[applies]
        upd_target = target[applies]
        applied_updates = int(upd_idx.shape[0])
        if train_squashed and squash is not None:
            pht_idx = np.flatnonzero(squash).astype(np.int64)
        else:
            pht_idx = np.zeros(0, dtype=np.int64)
        ev_branch = np.concatenate([upd_idx, read_idx, pht_idx])
        ev_read = np.concatenate([
            np.zeros(upd_idx.shape[0], dtype=np.uint8),
            np.ones(read_idx.shape[0], dtype=np.uint8),
            np.zeros(pht_idx.shape[0], dtype=np.uint8),
        ])
        ev_trans = np.concatenate([
            np.ones(upd_idx.shape[0], dtype=np.uint8),
            np.zeros(read_idx.shape[0], dtype=np.uint8),
            np.ones(pht_idx.shape[0], dtype=np.uint8),
        ])
        # Order: by firing position, pending updates draining before the
        # read (or squash update) at the same branch; the stable sort
        # keeps the queue's FIFO order among updates sharing a position.
        pos = np.concatenate([upd_target, read_idx, pht_idx])
        own = np.concatenate([
            np.zeros(upd_idx.shape[0], dtype=np.int64),
            np.ones(read_idx.shape[0], dtype=np.int64),
            np.ones(pht_idx.shape[0], dtype=np.int64),
        ])
        order = np.argsort((pos << 1) | own, kind="stable")
        ev_branch = ev_branch[order]
        ev_read = ev_read[order]
        ev_trans = ev_trans[order]
        uniform = False

    return ReplayPlan(
        options=options,
        workload=trace.meta.workload or "<trace>",
        instructions=trace.meta.instructions,
        n=n,
        pc=pc,
        taken=taken,
        ghr=ghr,
        cls=trace.branch_classes(),
        squash=squash,
        ev_branch=ev_branch,
        ev_read=ev_read,
        ev_trans=ev_trans,
        uniform=uniform,
        applied_updates=applied_updates,
    )
