"""Per-event loops: the oracles of the vectorised replay paths.

These are the fast core's previous loops, one iteration per event (or
per branch).  They are kept as the oracles of the replay tests
(``tests/test_replay_runs.py``, ``tests/test_replay_families.py``) and
of the replay benchmark gates (``benchmarks/test_bench_replay.py``,
``benchmarks/test_bench_families.py``).  Nothing in ``src/`` uses them.

* :func:`replay_table_uniform` — every event reads then trains one
  counter of a table predictor (bimodal, gshare, gselect, GAg).
* :func:`replay_table_flags` — a table predictor's events with read /
  transition flags (delayed update, ``sfp.update_pht``).
* :func:`replay_local` — the local predictor: per-slot history shifted
  at train events, feeding a pattern table; events carry
  read/transition flags.
* :func:`oracle_replay` — the fast core's previous path for those
  predictors on one replay plan.
* :func:`replay_perceptron` — the perceptron loop recomputing every
  output as a dot product of the row's list and the history's sign
  tuple (:func:`sign_tuples`); :func:`oracle_composite` runs it (or the
  tournament loop) over a plan a chunk at a time.
* :func:`simulate_frontend_loop` — the fetch replay, branch by branch.

Every replay loop returns the *event positions* that mispredicted,
ascending.

Two helpers let the replay tests use the object predictors as their
reference: :func:`make_plan` builds a replay plan from explicit event
arrays, and :func:`object_state` reads a predictor's tables as plain
lists, so two predictors' trained states compare with ``==``.
"""

import operator

import numpy as np

from repro.pipeline.fetchsim import FrontendResult
from repro.predictors import (
    LocalPredictor,
    PerceptronPredictor,
    TagePredictor,
    TournamentPredictor,
)
from repro.sim import SimOptions
from repro.sim.fastcore.decode import ReplayPlan
from repro.sim.fastcore.kernels import INDEX_FUNCTIONS
from repro.sim.fastcore.replay import _replay_chunked


def make_plan(pc, taken, read=None, trans=None, ghr=None):
    """A replay plan whose events are the given branches, in order."""
    n = len(pc)
    read = np.ones(n, np.uint8) if read is None else np.asarray(
        read, dtype=np.uint8
    )
    trans = np.ones(n, np.uint8) if trans is None else np.asarray(
        trans, dtype=np.uint8
    )
    return ReplayPlan(
        options=SimOptions(),
        workload="stream",
        instructions=n,
        n=n,
        pc=np.asarray(pc, dtype=np.int64).reshape(n),
        taken=np.asarray(taken, dtype=np.uint8).reshape(n),
        ghr=(
            np.zeros(n, dtype=np.uint64) if ghr is None
            else np.asarray(ghr, dtype=np.uint64)
        ),
        cls=np.zeros(n, dtype=np.int8),
        squash=None,
        ev_branch=np.arange(n, dtype=np.int64),
        ev_read=read,
        ev_trans=trans,
        uniform=bool(read.all() and trans.all()),
        applied_updates=0,
    )


def object_state(predictor) -> dict:
    """A predictor's trained tables, as fresh lists (a perceptron's
    weights as every one of its ``entries`` rows, untouched ones as
    zeros)."""
    if isinstance(predictor, TournamentPredictor):
        return {
            "chooser": list(predictor.chooser.table),
            "a": object_state(predictor.a),
            "b": object_state(predictor.b),
        }
    if isinstance(predictor, PerceptronPredictor):
        return {"weights": predictor.weights.rows(predictor.entries)}
    if isinstance(predictor, TagePredictor):
        return {
            "base": list(predictor.base.table),
            "tags": [list(t) for t in predictor.tags],
            "counters": [list(c) for c in predictor.counters],
            "useful": [list(u) for u in predictor.useful],
            "ticks": predictor.ticks,
        }
    state = {"table": list(predictor.counters.table)}
    if isinstance(predictor, LocalPredictor):
        state["histories"] = list(predictor.histories)
    return state


def replay_table_uniform(table, idxs, takens):
    mis = []
    add = mis.append
    k = 0
    for i, t in zip(idxs, takens):
        value = table[i]
        if t:
            if value < 2:
                add(k)
            if value < 3:
                table[i] = value + 1
        else:
            if value >= 2:
                add(k)
            if value:
                table[i] = value - 1
        k += 1
    return mis


def replay_local(predictor, pcs, takens, reads, transs):
    table = predictor.counters.table
    histories = predictor.histories
    tmask = predictor.counters.mask
    lmask = predictor.local_mask
    hmask = predictor.history_mask
    mis = []
    add = mis.append
    k = 0
    for pc, t in zip(pcs, takens):
        slot = pc & lmask
        local = histories[slot] & hmask
        idx = local & tmask
        if reads[k] and (table[idx] >= 2) != t:
            add(k)
        if transs[k]:
            value = table[idx]
            if t:
                if value < 3:
                    table[idx] = value + 1
            elif value:
                table[idx] = value - 1
            histories[slot] = (local << 1) | t
        k += 1
    return mis


def replay_table_flags(table, idxs, takens, reads, transs):
    mis = []
    add = mis.append
    k = 0
    for i, t in zip(idxs, takens):
        value = table[i]
        if reads[k] and (value >= 2) != t:
            add(k)
        if transs[k]:
            if t:
                if value < 3:
                    table[i] = value + 1
            elif value:
                table[i] = value - 1
        k += 1
    return mis


def oracle_replay(predictor, plan) -> np.ndarray:
    """Mispredicted branch indices of a table or local predictor, one
    event at a time."""
    ev_branch = plan.ev_branch
    takens = plan.taken[ev_branch].tolist()
    if isinstance(predictor, LocalPredictor):
        mis = replay_local(
            predictor, plan.pc[ev_branch].tolist(), takens,
            plan.ev_read.tolist(), plan.ev_trans.tolist(),
        )
    else:
        idxs = INDEX_FUNCTIONS[type(predictor)](
            predictor, plan.pc[ev_branch], plan.ghr[ev_branch]
        ).tolist()
        table = predictor.counters.table
        if plan.uniform:
            mis = replay_table_uniform(table, idxs, takens)
        else:
            mis = replay_table_flags(
                table, idxs, takens, plan.ev_read.tolist(),
                plan.ev_trans.tolist(),
            )
    return ev_branch[np.asarray(mis, dtype=np.int64)]


def sign_tuples(predictor, ghr):
    """(per-event key, sign tuple ``(1, s_1 .. s_h)`` per key): one
    shared tuple per distinct history value."""
    history_bits = predictor.history_bits
    values, keys = np.unique(
        ghr & np.uint64((1 << history_bits) - 1), return_inverse=True
    )
    shifts = np.arange(history_bits, dtype=np.uint64)
    bits = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.int64)
    signs = np.ones((values.shape[0], history_bits + 1), dtype=np.int64)
    signs[:, 1:] = 2 * bits - 1
    return keys.reshape(-1).tolist(), list(map(tuple, signs.tolist()))


def clipper(limit: int):
    """A function clamping ``v`` in ``[-limit - 1, limit + 1]`` to
    ``[-limit, limit]``: a lookup in a table up to limits of 2**16
    (negative ``v`` index from the end), a comparison beyond."""
    if limit >> 16:
        return lambda v: max(-limit, min(limit, v))
    upper = [min(v, limit) for v in range(limit + 2)]
    lower = [max(-v, -limit) for v in range(limit + 1, 0, -1)]
    return (upper + lower).__getitem__


def replay_perceptron(predictor, pc, ghr, taken, read, trans):
    takens = taken.tolist()
    reads = read.tolist()
    transs = trans.tolist()
    rows = (pc & predictor.mask).tolist()
    keys, signs_of = sign_tuples(predictor, ghr)
    weights = predictor.weights
    threshold = predictor.threshold
    clip = clipper(predictor.weight_limit)
    mul = operator.mul
    plus = operator.add
    minus = operator.sub
    mis = []
    add = mis.append
    k = 0
    for row, t in zip(rows, takens):
        w = weights[row]
        signs = signs_of[keys[k]]
        output = sum(map(mul, w, signs))
        wrong = (output >= 0) != t
        if reads[k] and wrong:
            add(k)
        if transs[k] and (wrong or -threshold <= output <= threshold):
            w[:] = map(clip, map(plus if t else minus, w, signs))
        k += 1
    return mis


def oracle_composite(loop, predictor, plan) -> np.ndarray:
    """Mispredicted branch indices of a composite predictor's per-event
    ``loop`` over the plan, a chunk at a time."""
    return plan.ev_branch[_replay_chunked(loop, predictor, plan)]


def simulate_frontend_loop(trace, flags, model) -> FrontendResult:
    """:func:`repro.pipeline.fetchsim.simulate_frontend`, one branch at
    a time."""
    b_idx = trace.b_idx
    taken = trace.b_taken
    correct = flags.correct
    misfetch = flags.misfetch
    if len(correct) != trace.num_branches:
        raise ValueError("flags do not match the trace")

    width = model.width
    fetch_cycles = 0.0
    mispredict_cycles = 0.0
    misfetch_cycles = 0.0
    bubble_cycles = 0.0

    prev = 0  # dynamic index where the current fetch run began
    for i in range(trace.num_branches):
        end = int(b_idx[i])
        if taken[i]:
            run = end - prev + 1
            fetch_cycles += -(-run // width)
            prev = end + 1
            if correct[i]:
                if misfetch[i]:
                    misfetch_cycles += model.misfetch_penalty
                else:
                    bubble_cycles += model.taken_bubble
            else:
                mispredict_cycles += model.mispredict_penalty
        elif not correct[i]:
            # Wrongly predicted taken: the run still breaks at the
            # branch (fetch went down the wrong path) plus the penalty.
            run = end - prev + 1
            fetch_cycles += -(-run // width)
            prev = end + 1
            mispredict_cycles += model.mispredict_penalty
        # correctly predicted not-taken: the run continues.

    tail = trace.meta.instructions - prev
    if tail > 0:
        fetch_cycles += -(-tail // width)

    cycles = (
        fetch_cycles + mispredict_cycles + misfetch_cycles + bubble_cycles
    )
    return FrontendResult(
        cycles=cycles,
        instructions=trace.meta.instructions,
        fetch_cycles=fetch_cycles,
        mispredict_cycles=mispredict_cycles,
        misfetch_cycles=misfetch_cycles,
        bubble_cycles=bubble_cycles,
    )
