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
train-PHT updates) in exactly the order the reference driver would
perform them.  Which branches are squashed and which predicate defines
enter history are the front end's rules
(:func:`~repro.pipeline.availability.squash_mask`,
:func:`~repro.pipeline.availability.pgu_defines`), shared with the
driver; this module only applies them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.pipeline.availability import pgu_defines, squash_mask
from repro.sim.driver import SimOptions
from repro.trace.container import Trace


@dataclass
class ReplayPlan:
    """Everything replay needs, decoded once per (trace, options)."""

    options: SimOptions
    workload: str
    instructions: int
    n: int
    pc: np.ndarray  #: int64, per branch
    taken: np.ndarray  #: uint8, per branch
    ghr: np.ndarray  #: uint64, predict-time history value per branch
    cls: np.ndarray  #: int8, per branch
    squash: Optional[np.ndarray]  #: bool per branch, None without SFP
    # -- event stream, in reference-driver order -------------------------
    ev_branch: np.ndarray  #: int64, branch each event belongs to
    ev_read: np.ndarray  #: uint8, event predicts (and counts stats)
    ev_trans: np.ndarray  #: uint8, event applies a counter transition
    uniform: bool  #: every event is read+trans (the common tight case)
    applied_updates: int  #: delayed updates that actually applied

    def per_event(self, values: np.ndarray) -> np.ndarray:
        """Per-branch ``values`` at every event (``values[ev_branch]``);
        ``values`` itself when the events are the branches in order."""
        if self.uniform and self.ev_branch.shape[0] == self.n:
            return values
        return values[self.ev_branch]


def _history_values(trace: Trace, options: SimOptions,
                    squash: Optional[np.ndarray]) -> np.ndarray:
    """Per-branch predict-time history, via one bit stream.

    The stream interleaves predicate-define bits (at their availability
    points) with branch-outcome bits (squashed branches emit only when
    ``sfp.update_history``), exactly as the driver shifts them.  Each
    branch's value is then the ``history_bits``-wide window of the
    stream before its read position — the register's LSB is the most
    recent bit (:func:`bit_windows`).
    """
    n = trace.num_branches
    length = options.history_bits
    if n == 0:
        return np.zeros(0, dtype=np.uint64)

    if squash is None or options.sfp.update_history:
        emits = np.ones(n, dtype=bool)
    else:
        emits = ~squash
    # emits_excl[i] = number of emitting branches with index < i.
    emits_excl = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(emits, out=emits_excl[1:])

    d_idx, d_bits, delay = pgu_defines(trace, options)
    # First branch whose fetch sees the define: d_idx + delay <= b_idx.
    visible_at = np.searchsorted(trace.b_idx, d_idx + delay, side="left")
    in_range = visible_at < n
    visible_at = visible_at[in_range]
    d_bits = d_bits[in_range]
    # defs_le[i] = defines shifted in by the time branch i predicts
    # (everything visible at or before i precedes i's own read).
    defs_le = np.cumsum(np.bincount(visible_at, minlength=n))

    m = int(visible_at.shape[0]) + int(emits_excl[n])
    bits = np.zeros(m, dtype=np.uint8)
    # Define k sits after the k-1 earlier defines and every emitting
    # branch fetched before its visibility point.
    def_slots = np.arange(visible_at.shape[0]) + emits_excl[visible_at]
    bits[def_slots] = d_bits
    emit_idx = np.flatnonzero(emits)
    bits[defs_le[emit_idx] + emits_excl[emit_idx]] = trace.b_taken[emit_idx]

    return bit_windows(
        bits, defs_le + emits_excl[:n], min(length, 64)
    ).astype(np.uint64)


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
    ghr = _history_values(trace, options, squash)
    taken = trace.b_taken.astype(np.uint8)
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
            ev_branch = np.arange(n, dtype=np.int64)
            ev_read = np.ones(n, dtype=np.uint8)
            ev_trans = np.ones(n, dtype=np.uint8)
            uniform = True
        else:
            keep = participates | (squash if train_squashed else False)
            ev_branch = np.flatnonzero(keep).astype(np.int64)
            ev_read = participates[ev_branch].astype(np.uint8)
            ev_trans = np.ones(ev_branch.shape[0], dtype=np.uint8)
            uniform = bool(ev_read.all())
    else:
        # Delayed updates: reads stay at their branch; each enqueued
        # update applies just before the first later branch whose fetch
        # index reaches apply_at = idx + distance (pending updates drain
        # before that branch predicts).  Updates never reached by a
        # later branch stay pending forever, exactly like the driver's
        # queue at end of trace.  Squash train-PHT updates are immediate
        # even in delayed mode (the driver calls update() directly).
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
