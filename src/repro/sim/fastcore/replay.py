"""Replay over pre-decoded event streams.

:func:`object_replay` is the ``object`` core: it steps the object
predictor itself through the plan's events, one ``predict`` or
``update`` call at a time.  The rest of this module is the ``fast`` and
``numpy`` cores: they replay on the predictor's own tables, training
them in place, from per-event indices computed with numpy
(:mod:`repro.sim.fastcore.kernels`).

2-bit counter tables (bimodal, gshare, gselect, GAg, and local's
pattern table) replay one *run* at a time, on every plan
(:func:`replay_table`):

* :func:`split_runs` regroups the events by table index (a counter
  only ever sees the events that index it), keeping stream order
  within a counter (:func:`~repro.sim.fastcore.kernels.group_events`),
  then splits each counter's events into runs of one symbol: the
  direction, plus the read / transition flags on plans that carry them
  (squash train-PHT events are transition-only; delayed update splits
  reads from their transitions).
* :func:`scan_runs` finds the state leaving every run with a scan over
  the 2-bit counter's function monoid, and :func:`settle_runs`
  recovers the mispredicted events from the state each run starts in.
  Only the counters the stream touches are read from, and written
  back to, the predictor's table.

A local predictor's indices come from
:func:`~repro.sim.fastcore.kernels.local_indices`: its histories shift
in actual outcomes only, so they never depend on a prediction.

A tournament's components are table or local predictors (a tournament
over any other predictor runs on the object core), so their indices
are per-event arrays too.  It replays a ``uniform`` plan as three run
replays (:func:`replay_tournament_runs`): each component on its own,
then the chooser over the events where the components disagree, the
only ones where it reads or trains.

The other composite cases each have their own loop, fed per-event
indices computed with numpy from the plan's ``pc`` and ``ghr`` arrays
(chooser, component and local pattern slots, perceptron history keys,
TAGE slots and tags); only their serial table state stays in Python:

* :func:`_replay_tournament` — tournaments on plans with read /
  transition flags;
* :func:`_replay_perceptron` — each touched row as one lane-packed
  int, its outputs memoized by history value until it next trains;
* :func:`_replay_tage` — allocation and aging make every event depend
  on the state the previous one left.

They run a chunk of :data:`CHUNK_EVENTS` events at a time, so the
per-event index lists never outgrow one chunk.

Every replay path returns the *event positions* that mispredicted,
ascending; :func:`fast_replay` maps them to branch indices through the
plan's ``ev_branch`` array, and the driver builds all statistics
vectorised.
"""

import itertools
from typing import NamedTuple

import numpy as np

from repro.pipeline.availability import pgu_defines
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.static import StaticPredictor
from repro.predictors.tage import TagePredictor
from repro.predictors.tournament import TournamentPredictor
from repro.predictors.twolevel import LocalPredictor
from repro.profiler.events import (
    AVAIL_NEVER,
    CONF_PERFECT,
    CONF_UNKNOWN,
    PGUPath,
    PredictionEvent,
    SFPDecision,
)
from repro.sim.fastcore.decode import ReplayPlan
from repro.sim.fastcore.kernels import (
    INDEX_FUNCTIONS,
    _low_bits,
    chooser_index,
    group_events,
    lane_layout,
    local_indices,
    perceptron_lanes,
    tage_slots,
)

#: Events per call of a composite predictor's loop.
CHUNK_EVENTS = 1 << 16


class Runs(NamedTuple):
    """An event stream grouped by counter and split into runs.

    ``order`` lists the event positions counter by counter (stream
    order within a counter); the run arrays index into it.
    """

    order: np.ndarray  #: event positions, grouped by counter
    start: np.ndarray  #: int64, a run's first slot in ``order``
    length: np.ndarray  #: int64, events in the run
    index: np.ndarray  #: the run's table index
    symbol: np.ndarray  #: uint8, the run's direction (and flags)
    first: np.ndarray  #: bool, the counter's first run
    last: np.ndarray  #: bool, the counter's last run


def split_runs(idx: np.ndarray, symbol: np.ndarray, entries: int,
               symbol_bits: int = 1) -> Runs:
    """Group events by table index; split at every change of symbol.

    ``symbol`` is a small per-event code (``symbol_bits`` wide: the
    direction, plus any read/transition flags); equal neighbours on one
    counter share a run.  ``entries`` is the table size.
    """
    count = int(idx.shape[0])
    order, sorted_idx, sorted_symbol = group_events(
        idx, entries - 1, symbol, symbol_bits
    )
    new = np.empty(count, dtype=bool)
    new[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=new[1:])
    cut = new.copy()
    cut[1:] |= sorted_symbol[1:] != sorted_symbol[:-1]
    start = np.flatnonzero(cut)
    length = np.empty_like(start)
    length[:-1] = start[1:] - start[:-1]
    length[-1] = count - start[-1]
    first = new[start]
    last = np.empty_like(first)
    last[:-1] = first[1:]
    last[-1] = True
    return Runs(order, start, length, sorted_idx[start],
                sorted_symbol[start], first, last)


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


def scan_runs(runs: Runs, symbol: np.ndarray,
              start_value: np.ndarray) -> np.ndarray:
    """``uint8`` state leaving every run.

    Each run's effect on its counter is one of the 18 functions above
    (``symbol`` is its 3-bit ``taken | read << 1 | trans << 2`` code),
    and a counter's first run becomes the constant function of the
    state it leaves.  Constants absorb under composition, so a
    Hillis–Steele inclusive scan over the whole run array needs no
    segment boundaries: after the pass with step s, prefix r composes
    runs r - 2s + 1 .. r, and a constant prefix (id below 4) is final,
    so only the others stay active.  Each still lies inside its
    counter, and so does the prefix it composes with next (or that one
    is constant already).  At the end every id is the state its run
    leaves.
    """
    flat = _RUN[(symbol << np.uint8(2)) | np.minimum(
        runs.length, 3
    ).astype(np.uint8)]
    first = runs.first
    flat[first] = _SETTLE[(flat[first] << np.uint8(2)) | start_value]
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
    return flat


#: Mispredicts at the head of a trained run, by ``4 * taken + state``:
#: a taken run mispredicts while the counter is below 2, a not-taken
#: run while it is 2 or more — at its second event too when it started
#: saturated the wrong way.
_HEAD_MISSES = np.array([0, 0, 1, 2, 2, 1, 0, 0], dtype=np.uint8)


def start_values(table, runs: Runs) -> np.ndarray:
    """``uint8`` start value of every counter the runs touch, read from
    the predictor's list (no conversion of the whole table)."""
    heads = runs.index[runs.first].tolist()
    return np.frombuffer(
        bytearray(map(table.__getitem__, heads)), dtype=np.uint8
    )


def settle_runs(table, runs: Runs, ends: np.ndarray,
                start_value: np.ndarray, taken: np.ndarray,
                reads=None, trains=None) -> np.ndarray:
    """Write back each counter's end value; mispredicted event positions.

    ``ends`` holds the state leaving every run, ``start_value`` each
    counter's state before its first run and ``taken`` every run's
    direction.  Without ``reads``/``trains`` (per run) every run reads
    and trains; a read-only run sees one state throughout, so it
    mispredicts at every event or at none, and a train-only run never
    counts.  Returns the mispredicted event positions, ascending.
    """
    last = runs.last
    for i, value in zip(runs.index[last].tolist(), ends[last].tolist()):
        table[i] = value
    state = np.empty_like(ends)
    state[1:] = ends[:-1]
    state[runs.first] = start_value
    misses = _HEAD_MISSES[(taken << np.uint8(2)) | state]
    heads = misses != 0
    twice = misses == 2
    twice &= runs.length > 1
    if reads is not None:
        heads &= reads
        twice &= reads & trains
    found = [runs.start[heads], runs.start[twice] + 1]
    if reads is not None:
        whole = heads & ~trains
        rest = runs.length[whole] - 1
        skip = np.cumsum(rest) - rest
        found.append(
            np.arange(int(rest.sum()))
            + np.repeat(runs.start[whole] + 1 - skip, rest)
        )
    return np.sort(runs.order[np.concatenate(found)])


def replay_runs(table, idx: np.ndarray, taken: np.ndarray, read=None,
                trans=None) -> np.ndarray:
    """Replay events on 2-bit counters, a run at a time.

    ``table`` is the predictor's list of counters, updated in place;
    ``idx`` and ``taken`` (``uint8``) are per-event arrays.  Without
    ``read``/``trans`` every event reads then trains; with them (per
    event ``uint8`` flags) runs also split where the flags change.
    Returns the event positions that mispredicted, ascending.
    """
    if idx.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if read is None:
        runs = split_runs(idx, taken, len(table))
        symbol = runs.symbol | np.uint8(6)
    else:
        runs = split_runs(idx, taken | (read << 1) | (trans << 2),
                          len(table), symbol_bits=3)
        symbol = runs.symbol
    start_value = start_values(table, runs)
    ends = scan_runs(runs, symbol, start_value)
    if read is None:
        return settle_runs(table, runs, ends, start_value, runs.symbol)
    return settle_runs(
        table, runs, ends, start_value, symbol & np.uint8(1),
        reads=(symbol & 2) != 0, trains=(symbol & 4) != 0,
    )


def _indices(predictor, pc: np.ndarray, ghr: np.ndarray,
             taken: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Per-event table index of a local predictor (which advances its
    histories) or a table predictor."""
    if type(predictor) is LocalPredictor:
        return local_indices(predictor, pc, taken, trans)
    return INDEX_FUNCTIONS[type(predictor)](predictor, pc, ghr)


def _wrong(mis: np.ndarray, count: int) -> np.ndarray:
    """Per-event ``bool``: the event position is in ``mis``."""
    wrong = np.zeros(count, dtype=bool)
    wrong[mis] = True
    return wrong


def replay_tournament_runs(predictor: TournamentPredictor, pc: np.ndarray,
                           ghr: np.ndarray, taken: np.ndarray,
                           trans: np.ndarray) -> np.ndarray:
    """Replay a uniform stream through a tournament as three run
    replays.

    Neither component's prediction depends on the chooser, so each
    component's table replays on its own (:func:`replay_runs`) and
    predicts ``taken ^ mispredicted``.  Where the components agree the
    chooser is neither consulted nor trained; where they disagree it
    reads and trains toward "b was right".  Its stream is therefore the
    disagreeing events alone, read+train again.  An event mispredicts
    when both components were wrong, or when they disagreed and the
    chooser picked the wrong one.  Returns the mispredicted event
    positions, ascending.
    """
    count = int(taken.shape[0])
    a = predictor.a
    b = predictor.b
    wrong_a = _wrong(replay_runs(
        a.counters.table, _indices(a, pc, ghr, taken, trans), taken
    ), count)
    wrong_b = _wrong(replay_runs(
        b.counters.table, _indices(b, pc, ghr, taken, trans), taken
    ), count)
    split = np.flatnonzero(wrong_a != wrong_b)
    picked_wrong = replay_runs(
        predictor.chooser.table,
        chooser_index(predictor, pc[split], ghr[split]),
        (~wrong_b[split]).view(np.uint8),
    )
    wrong = wrong_a & wrong_b
    wrong[split[picked_wrong]] = True
    return np.flatnonzero(wrong)


def _replay_tournament(predictor, pc, ghr, taken, read, trans):
    a = predictor.a
    b = predictor.b
    takens = taken.tolist()
    reads = read.tolist()
    transs = trans.tolist()
    cidxs = chooser_index(predictor, pc, ghr).tolist()
    aidxs = _indices(a, pc, ghr, taken, trans).tolist()
    bidxs = _indices(b, pc, ghr, taken, trans).tolist()
    chooser = predictor.chooser.table
    atable = a.counters.table
    btable = b.counters.table
    mis = []
    add = mis.append
    k = 0
    for ai, bi, t in zip(aidxs, bidxs, takens):
        va = atable[ai]
        vb = btable[bi]
        if reads[k]:
            if chooser[cidxs[k]] >= 2:
                if (vb >= 2) != t:
                    add(k)
            elif (va >= 2) != t:
                add(k)
        if transs[k]:
            pred_b = vb >= 2
            if (va >= 2) != pred_b:
                ci = cidxs[k]
                value = chooser[ci]
                if pred_b == t:
                    if value < 3:
                        chooser[ci] = value + 1
                elif value:
                    chooser[ci] = value - 1
            if t:
                if va < 3:
                    atable[ai] = va + 1
                if vb < 3:
                    btable[bi] = vb + 1
            else:
                if va:
                    atable[ai] = va - 1
                if vb:
                    btable[bi] = vb - 1
        k += 1
    return mis


def _replay_perceptron(predictor, pc, ghr, taken, read, trans):
    """Perceptron loop over lane-packed rows, each row's outputs
    memoized between its trainings.

    Every row the chunk touches is read from ``predictor.weights``
    (made on first touch), packed into one int
    (:meth:`~repro.sim.fastcore.kernels.Lanes.pack`) and written back
    in place at the end.  A row's output for a history key
    is lane ``n - 1`` of one product with the key's ``select`` (twice
    the lanes under a ``+1`` sign), less the row's weight sum and the
    key's bias offset ``2 * plus * bias``.  Training adds (taken) or
    subtracts the key's ``delta`` and moves the sum by ``2 * plus - n``;
    the row is unpacked and clipped only when a weight has left
    ``[-limit, limit]``, which shows as a lane with bit ``m`` set, or
    clear after adding ``2 * limit + 1`` to every lane.  Otherwise no
    lane borrows or carries.

    A row's weights only change when it trains, so its output for a
    key stays valid until then: one ``{key: output}`` dict per row,
    cleared when that row trains.  Training follows the predictor's
    rule (wrong, or ``|output| <= threshold``), which for a
    non-negative threshold is ``output <= threshold`` on a taken event
    and ``output >= -threshold`` on a not-taken one; a negative
    threshold is refused.
    """
    threshold = predictor.threshold
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    lanes = lane_layout(predictor)
    touched, slots = np.unique(pc & predictor.mask, return_inverse=True)
    weights = predictor.weights
    rows = [weights[row] for row in touched.tolist()]
    packed = list(map(lanes.pack, rows))
    sums = list(map(sum, rows))
    keys, select, delta, plus = perceptron_lanes(predictor, lanes, ghr)
    width = predictor.history_bits + 1
    step = [2 * p - width for p in plus]
    offset = [2 * p * lanes.bias for p in plus]
    shift = lanes.width * (width - 1)
    lane_mask = (1 << lanes.width) - 1
    high = lanes.fill(1 << lanes.high_bit)
    limit = predictor.weight_limit
    fill = lanes.fill(2 * limit + 1)
    if read.all() and trans.all():
        reads = transs = itertools.repeat(1)
    else:
        reads = read.tolist()
        transs = trans.tolist()
    memos = [{} for _ in rows]
    mis = []
    add = mis.append
    k = 0
    for slot, key, t, r, tr in zip(slots.reshape(-1).tolist(), keys,
                                   taken.tolist(), reads, transs):
        memo = memos[slot]
        output = memo.get(key)
        if output is None:
            output = memo[key] = (
                ((packed[slot] * select[key]) >> shift) & lane_mask
            ) - sums[slot] - offset[key]
        if r and (output >= 0) != t:
            add(k)
        if tr and (output <= threshold if t else output >= -threshold):
            if t:
                row = packed[slot] + delta[key]
                total = sums[slot] + step[key]
            else:
                row = packed[slot] - delta[key]
                total = sums[slot] - step[key]
            if row & high or (row + fill) & high != high:
                clipped = [
                    max(-limit, min(limit, w)) for w in lanes.unpack(row)
                ]
                row = lanes.pack(clipped)
                total = sum(clipped)
            packed[slot] = row
            sums[slot] = total
            memo.clear()
        k += 1
    for w, row in zip(rows, packed):
        w[:] = lanes.unpack(row)
    return mis


def _replay_tage(predictor, pc, ghr, taken, read, trans):
    takens = taken.tolist()
    reads = read.tolist()
    transs = trans.tolist()
    base_slots, slots, tags = tage_slots(predictor, pc, ghr)
    base_slots = base_slots.tolist()
    slots = [s.tolist() for s in slots]
    tags = [g.tolist() for g in tags]
    count = len(slots)
    longest_first = range(count - 1, -1, -1)
    base = predictor.base.table
    tag_tables = predictor.tags
    counter_tables = predictor.counters
    useful_tables = predictor.useful
    period = predictor.aging_period
    mis = []
    add = mis.append
    k = 0
    for t in takens:
        provider = alt = -1
        for table in longest_first:
            slot = slots[table][k]
            if tag_tables[table][slot] == tags[table][k]:
                if provider < 0:
                    provider = table
                    pslot = slot
                else:
                    alt = table
                    aslot = slot
                    break
        if provider >= 0:
            counters = counter_tables[provider]
            value = counters[pslot]
            prediction = value >= 4
        else:
            bslot = base_slots[k]
            value = base[bslot]
            prediction = value >= 2
        if reads[k] and prediction != t:
            add(k)
        if not transs[k]:
            k += 1
            continue
        if provider >= 0:
            if alt >= 0:
                alt_prediction = counter_tables[alt][aslot] >= 4
            else:
                alt_prediction = base[base_slots[k]] >= 2
            if prediction != alt_prediction:
                useful = useful_tables[provider]
                if prediction == t:
                    if useful[pslot] < 3:
                        useful[pslot] += 1
                elif useful[pslot]:
                    useful[pslot] -= 1
            if t:
                if value < 7:
                    counters[pslot] = value + 1
            elif value:
                counters[pslot] = value - 1
        elif t:
            if value < 3:
                base[bslot] = value + 1
        elif value:
            base[bslot] = value - 1
        if prediction != t:
            for table in range(provider + 1, count):
                slot = slots[table][k]
                if not useful_tables[table][slot]:
                    tag_tables[table][slot] = tags[table][k]
                    counter_tables[table][slot] = 4 if t else 3
                    break
            else:
                for table in range(provider + 1, count):
                    useful = useful_tables[table]
                    slot = slots[table][k]
                    if useful[slot]:
                        useful[slot] -= 1
            predictor.ticks += 1
            if predictor.ticks >= period:
                predictor.age()
        k += 1
    return mis


#: predictor class -> its chunked replay loop
_COMPOSITE_LOOPS = {
    TournamentPredictor: _replay_tournament,
    PerceptronPredictor: _replay_perceptron,
    TagePredictor: _replay_tage,
}


def _replay_chunked(loop, predictor, plan: ReplayPlan) -> np.ndarray:
    """Event positions that mispredicted, one chunk at a time."""
    ev_branch = plan.ev_branch
    found = []
    for start in range(0, int(ev_branch.shape[0]), CHUNK_EVENTS):
        stop = start + CHUNK_EVENTS
        branches = ev_branch[start:stop]
        mis = loop(
            predictor, plan.pc[branches], plan.ghr[branches],
            plan.taken[branches], plan.ev_read[start:stop],
            plan.ev_trans[start:stop],
        )
        found.append(np.asarray(mis, dtype=np.int64) + start)
    if not found:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(found)


def fast_replay(predictor, plan: ReplayPlan) -> np.ndarray:
    """Replay the plan on ``predictor``; mispredicted branch indices.

    Trains the predictor's own tables in place, event for event as its
    ``update`` would (see :func:`~repro.sim.fastcore.kernels.kernelizable`
    for the predictors it takes).
    """
    ev_branch = plan.ev_branch
    if plan.uniform and type(predictor) is TournamentPredictor:
        return ev_branch[replay_tournament_runs(
            predictor, plan.per_event(plan.pc), plan.per_event(plan.ghr),
            plan.per_event(plan.taken), plan.ev_trans,
        )]
    loop = _COMPOSITE_LOOPS.get(type(predictor))
    if loop is not None:
        return ev_branch[_replay_chunked(loop, predictor, plan)]
    return replay_table(predictor, plan)


def replay_table(predictor, plan: ReplayPlan) -> np.ndarray:
    """Replay the plan on a table or local predictor's counters
    (:func:`replay_runs`); mispredicted branch indices, ascending."""
    taken = plan.per_event(plan.taken)
    idx = _indices(
        predictor, plan.per_event(plan.pc), plan.per_event(plan.ghr), taken,
        plan.ev_trans,
    )
    table = predictor.counters.table
    if plan.uniform:
        mis = replay_runs(table, idx, taken)
    else:
        mis = replay_runs(table, idx, taken, plan.ev_read, plan.ev_trans)
    return plan.ev_branch[mis]


def object_replay(predictor, plan: ReplayPlan,
                  target: np.ndarray) -> np.ndarray:
    """Replay the plan through an object predictor; mispredicted branches.

    The ``object`` core: one ``predict`` per read event and one
    ``update`` per transition event, each with the branch's
    predict-time history, so the predictor trains exactly as the front
    end drives it.  ``target`` holds the trace's per-branch targets: a
    static predictor is told the target before each prediction, a
    perfect one the outcome.  Returns ascending branch indices.
    """
    targets = (
        target.tolist() if isinstance(predictor, StaticPredictor) else None
    )
    oracle = isinstance(predictor, PerfectPredictor)
    pcs = plan.pc.tolist()
    ghrs = plan.ghr.tolist()
    takens = plan.taken.view(bool).tolist()
    predict = predictor.predict
    update = predictor.update
    mis = []
    for i, read, trans in zip(plan.ev_branch.tolist(),
                              plan.ev_read.tolist(), plan.ev_trans.tolist()):
        taken = takens[i]
        if read:
            if targets is not None:
                predictor.set_target(targets[i])
            elif oracle:
                predictor.set_outcome(taken)
            if predict(pcs[i], ghrs[i]) != taken:
                mis.append(i)
        if trans:
            update(pcs[i], ghrs[i], taken)
    return np.asarray(mis, dtype=np.int64)


def btb_misfetches(plan: ReplayPlan, mis: np.ndarray, target: np.ndarray,
                   config) -> np.ndarray:
    """Branch indices that misfetch under a BTB of geometry ``config``.

    ``mis`` holds the mispredicted branch indices of the replay and
    ``target`` the trace's per-branch targets (-1: none).

    A post-pass over the finished replay: every direction is known by
    now (a non-squashed branch predicted ``taken ^ mispredicted``), so
    fetch's BTB traffic replays exactly, over taken branches only.  A
    lookup happens where fetch looks up — taken and squashed, or taken
    and predicted taken — and misses count as misfetches; an
    insert follows wherever the branch has a target.  Returns carry no
    target, so a lookup there refreshes an entry's LRU position with no
    insert after it: the BTB state depends on the predictions, not on
    the trace alone.

    An entry is just the branch's pc: within one set the BTB's tag
    (``pc >> log2(sets)``) determines the pc, and targets never decide
    a hit.
    """
    taken = plan.taken.astype(bool)
    # Fetch has the direction right where the branch was squashed or
    # predicted correctly; a right taken branch needs its target.
    right = np.ones(plan.n, dtype=bool)
    right[mis] = False
    if plan.squash is not None:
        right |= plan.squash
    looks = taken & right
    inserts = taken & (target >= 0)
    branches = np.flatnonzero(looks | inserts)
    sets = [[] for _ in range(config.sets)]  # pcs, LRU first
    set_mask = config.sets - 1
    ways = config.ways
    missed = []
    for i, pc, look, insert in zip(
        branches.tolist(),
        plan.pc[branches].tolist(),
        looks[branches].tolist(),
        inserts[branches].tolist(),
    ):
        entries = sets[pc & set_mask]
        if pc in entries:
            if entries[-1] != pc:
                entries.remove(pc)
                entries.append(pc)
            continue
        if look:
            missed.append(i)
        if insert:
            if len(entries) >= ways:
                del entries[0]
            entries.append(pc)
    return np.asarray(missed, dtype=np.int64)


def emit_events(collector, trace, plan: ReplayPlan,
                mis: np.ndarray) -> None:
    """Hand ``collector`` the event of every sampled branch, in order.

    A post-pass over the finished replay, like the BTB's: sampling
    takes every ``rate``-th branch from index ``-seed mod rate``, and
    every field is known once the mispredict vector ``mis`` is.  A
    predicted branch asserted ``taken ^ mispredicted``, a squashed one
    the filter's direction (taken only under ``squash_known_true``);
    the PGU bits before a branch are the defines that became visible
    since the previous branch.
    """
    sample = np.arange((-collector.seed) % collector.rate, plan.n,
                       collector.rate)
    if not sample.shape[0]:
        return
    taken = trace.b_taken[sample]
    fetch = trace.b_idx[sample]
    wrong = np.zeros(plan.n, dtype=bool)
    wrong[mis] = True
    predicted = taken ^ wrong[sample]
    sfp = np.full(sample.shape[0], SFPDecision.NOT_FILTERED)
    conf = np.full(sample.shape[0], CONF_UNKNOWN)
    options = plan.options
    if plan.squash is not None:
        squashed = plan.squash[sample]
        if not options.sfp.squash_known_true:
            predicted[squashed] = False
        sfp[squashed] = np.where(
            predicted[squashed] == taken[squashed],
            SFPDecision.FILTERED_CORRECT, SFPDecision.FILTERED_WRONG,
        )
        conf[squashed] = CONF_PERFECT
    if options.pgu is not None:
        # Defines visible by a fetch at j: d_idx + delay <= j.
        d_idx, _, delay = pgu_defines(trace, options)
        previous = np.where(sample > 0, trace.b_idx[sample - 1], -1)
        bits = (np.searchsorted(d_idx, fetch - delay, "right")
                - np.searchsorted(d_idx, previous - delay, "right"))
        pgu = np.where(bits > 0, PGUPath.INSERT, PGUPath.UPDATE)
    else:
        bits = np.zeros(sample.shape[0], dtype=np.int64)
        pgu = np.full(sample.shape[0], PGUPath.OFF)
    guard_def = trace.b_guard_def[sample]
    avail = np.where(guard_def >= 0, fetch - guard_def, AVAIL_NEVER)
    collect = collector.collect
    for fields in zip(
        sample.tolist(), trace.b_pc[sample].tolist(),
        plan.cls[sample].tolist(), trace.b_region[sample].tolist(),
        trace.b_guard[sample].tolist(), avail.tolist(), sfp.tolist(),
        pgu.tolist(), bits.tolist(), predicted.tolist(), taken.tolist(),
        conf.tolist(),
    ):
        collect(PredictionEvent(*fields[:-1], conf=fields[-1]))


def jrs_confidence(plan: ReplayPlan, correct: np.ndarray,
                   estimator) -> np.ndarray:
    """Confidence of every prediction under a JRS resetting-counter table.

    ``correct`` holds the replay's per-branch outcome (a squashed branch
    reads ``True``) and ``estimator`` is a
    :class:`~repro.predictors.confidence.ConfidenceEstimator`, whose
    table trains in place.  Returns a per-branch ``bool`` array: the
    counter at ``(pc ^ ghr) & mask`` stood at or above the threshold
    when the branch predicted (always ``False`` for squashed branches,
    which never consult the estimator).

    Like the BTB pass, a post-pass over the finished replay: every
    prediction's correctness is known, so each counter's history is
    fixed.  A counter only sees the predictions that index it; grouped
    by counter (stream order within a counter), its value before an
    event is its start value plus the events since the group's start,
    or the events since its last misprediction, saturating at the
    ceiling.  Only the counters the stream touches are read from, and
    written back to, the estimator's table.
    """
    confident = np.zeros(plan.n, dtype=bool)
    reads = (
        np.flatnonzero(~plan.squash)
        if plan.squash is not None
        else np.arange(plan.n)
    )
    count = int(reads.shape[0])
    if count == 0:
        return confident
    mask = estimator.mask
    idx = _low_bits(plan.ghr[reads], mask)
    idx ^= plan.pc[reads]
    idx &= mask
    order, key, hit = group_events(
        idx, mask, correct[reads].astype(np.uint8)
    )
    pos = np.arange(count)
    new = np.empty(count, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    heads = np.flatnonzero(new)
    table = estimator.table
    # A counter restarts from its start value at its first event and
    # from zero after each misprediction; ``anchor`` is the latest
    # restart at or before every event.
    restart = np.zeros(count, dtype=np.int64)
    restart[heads] = list(map(table.__getitem__, key[heads].tolist()))
    anchor = np.where(new, pos, 0)
    anchor[1:] = np.maximum(anchor[1:], np.where(hit[:-1] == 0, pos[1:], 0))
    np.maximum.accumulate(anchor, out=anchor)
    value = np.minimum(restart[anchor] + (pos - anchor), estimator.ceiling)
    confident[reads[order]] = value >= estimator.threshold
    tails = np.empty_like(heads)
    tails[:-1] = heads[1:] - 1
    tails[-1] = count - 1
    final = np.where(
        hit[tails] != 0, np.minimum(value[tails] + 1, estimator.ceiling), 0
    )
    for i, v in zip(key[heads].tolist(), final.tolist()):
        table[i] = v
    return confident
