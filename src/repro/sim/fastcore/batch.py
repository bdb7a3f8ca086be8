"""Numpy-batched replay for table-indexed kernels.

The serial dependency in table replay is per *entry*, not per branch:
events touching different counters never interact.  So the backend
groups the event stream by table index and resolves each entry's
counter walk with a scan instead of a Python loop:

1. Group events by table index and split each counter's events into
   runs of one direction and one read/transition flag pair — the same
   grouping and run split the scalar replay uses
   (:func:`~repro.sim.fastcore.replay.split_runs`).
2. Represent each run's effect on its counter as a *clamped add*
   ``f(x) = clip(x + a, lo, hi)``.  The taken/not-taken transitions of a
   2-bit saturating counter generate only 18 distinct functions under
   composition (including the identity, which read-only runs use), so
   each function is a small int and composition is one table lookup.
3. Each counter's first run is replaced by the constant function of the
   state it leaves (its start value read from the table, then the run).
   Constant functions absorb under composition (``const . g =
   const``), so a Hillis–Steele inclusive scan over the whole run array
   needs no segment boundaries: a prefix stops at its counter's first
   run at the latest, and every finished prefix is the constant state
   its run leaves.  Every run of three or more trained events is a
   constant too, so only chains of short runs stay in the scan's active
   set for more than a pass.
4. Only a run's first two events can mispredict when it trains (a
   read-only run mispredicts throughout or not at all), so mispredict
   positions and the final state of every touched counter fall out
   vectorised (:func:`~repro.sim.fastcore.replay.settle_runs`).

Bit-identical to the scalar loops by construction; the differential
suite checks it against the object core anyway.
"""

import numpy as np

from repro.sim.fastcore.kernels import TableKernel
from repro.sim.fastcore.replay import settle_runs, split_runs, start_values

# -- the function monoid of a 2-bit saturating counter ------------------------


def _closure():
    """Enumerate compositions of {identity, taken, not-taken}.

    Functions are represented by their image over the domain (0, 1, 2,
    3).  The four constant functions come first, so a function id below
    4 is the constant state it yields.  Returns (funcs, index): the
    images, and image -> function id.
    """
    identity = (0, 1, 2, 3)
    taken = (1, 2, 3, 3)
    not_taken = (0, 0, 1, 2)
    funcs = [identity, taken, not_taken]
    seen = set(funcs)
    frontier = list(funcs)
    while frontier:
        new = []
        for g in frontier:
            for f in list(funcs):
                composed = tuple(g[f[x]] for x in range(4))
                if composed not in seen:
                    seen.add(composed)
                    funcs.append(composed)
                    new.append(composed)
        frontier = new
    funcs.sort(key=lambda f: (len(set(f)) > 1, f))
    assert funcs[:4] == [(v,) * 4 for v in range(4)]
    return funcs, {f: i for i, f in enumerate(funcs)}


def _tables():
    funcs, index = _closure()
    # comp[(g << 5) | f]: "apply f, then g".
    comp = np.zeros(len(funcs) << 5, dtype=np.uint8)
    for gi, g in enumerate(funcs):
        for fi, f in enumerate(funcs):
            comp[(gi << 5) | fi] = index[tuple(g[f[x]] for x in range(4))]
    # settle[(f << 2) | v]: f applied to v, which is also the id of that
    # constant function.
    settle = np.array([f[v] for f in funcs for v in range(4)],
                      dtype=np.uint8)
    # run[(symbol << 2) | k]: a run of k (1..3, 3 saturates) events with
    # symbol ``taken | read << 1 | trans << 2``; untrained runs are the
    # identity.
    run = np.zeros(32, dtype=np.uint8)
    for symbol in range(8):
        for k in range(1, 4):
            image = tuple(range(4))
            if symbol & 4:
                for _ in range(k):
                    image = tuple(
                        min(x + 1, 3) if symbol & 1 else max(x - 1, 0)
                        for x in image
                    )
            run[(symbol << 2) | k] = index[image]
    return comp, settle, run


_COMP, _SETTLE, _RUN = _tables()


def batch_supported(kernel) -> bool:
    """Does the numpy backend replay ``kernel``?  Table kernels only."""
    return isinstance(kernel, TableKernel)


def batch_replay(kernel, plan) -> np.ndarray:
    """Vectorised replay; mispredicted branch indices, ascending.

    Updates every counter the stream touches in ``kernel.table`` to the
    exact post-replay state the scalar loops would leave, so warm-start
    and pickle behaviour match.
    """
    ev_branch = plan.ev_branch
    if ev_branch.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    idx = kernel.batch_index(
        plan.per_event(plan.pc), plan.per_event(plan.ghr)
    )
    taken = plan.per_event(plan.taken)
    table = kernel.table
    if plan.uniform:
        runs = split_runs(idx, taken, len(table))
        symbol = runs.symbol | np.uint8(6)
    else:
        runs = split_runs(
            idx, taken | (plan.ev_read << 1) | (plan.ev_trans << 2),
            len(table), symbol_bits=3,
        )
        symbol = runs.symbol
    start_value = start_values(table, runs)
    flat = _RUN[(symbol << np.uint8(2)) | np.minimum(
        runs.length, 3
    ).astype(np.uint8)]
    first = runs.first
    flat[first] = _SETTLE[(flat[first] << np.uint8(2)) | start_value]

    # Inclusive scan: after the pass with step s, prefix r composes runs
    # r - 2s + 1 .. r.  A constant prefix (id below 4) is final, so only
    # the others stay active; each still lies inside its counter, and so
    # does the prefix it composes with next (or that one is constant
    # already).  At the end every id is the state its run leaves.
    active = np.flatnonzero(flat > 3)
    step = 1
    while active.size:
        key = flat[active].astype(np.uint16)
        key <<= 5
        key |= flat[active - step]
        composed = _COMP[key]
        flat[active] = composed
        step <<= 1
        active = active[composed > 3]
    ends = flat

    if plan.uniform:
        mis = settle_runs(table, runs, ends, start_value, runs.symbol)
    else:
        mis = settle_runs(
            table, runs, ends, start_value, symbol & np.uint8(1),
            reads=(symbol & 2) != 0, trains=(symbol & 4) != 0,
        )
    return ev_branch[mis]
