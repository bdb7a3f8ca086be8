"""Scalar replay loops over pre-decoded event streams.

Three loops, from hottest to most general:

* :func:`_replay_table_uniform` — every event reads then trains one
  counter (the common no-SFP, no-delay case).  Pure list indexing on
  ints; no attribute lookups, no allocation beyond the mispredict list.
* :func:`_replay_table_flags` — same tables, but events carry read /
  transition flags (squash train-PHT events are transition-only;
  delayed-update mode splits reads from their transitions).
* :func:`_replay_generic` — drives any kernel through the scalar ABI
  (``predict``/``train``); the fallback for kernels without a
  vectorised index (the local kernel gets a specialised variant).

The composite kernels (tournament, perceptron, TAGE) each have their
own loop, fed per-event indices computed with numpy from the plan's
``pc`` and ``ghr`` arrays (chooser and component slots, perceptron sign
tuples, TAGE slots and tags); only their serial table state stays in
Python.  They run a chunk of :data:`CHUNK_EVENTS` events at a time, so
the per-event index lists never outgrow one chunk.

Every loop returns the *event positions* that mispredicted; the caller
maps positions to branch indices through the plan's ``ev_branch`` array
and builds all statistics vectorised.
"""

import operator

import numpy as np

from repro.sim.fastcore.decode import ReplayPlan
from repro.sim.fastcore.kernels import (
    LocalKernel,
    PerceptronKernel,
    TableKernel,
    TageKernel,
    TournamentKernel,
)

#: Events per call of a composite kernel's loop.
CHUNK_EVENTS = 1 << 16


def _replay_table_uniform(table, idxs, takens):
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


def _replay_table_flags(table, idxs, takens, reads, transs):
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


def _replay_local(kernel, pcs, takens, reads, transs):
    table = kernel.table
    histories = kernel.histories
    tmask = kernel.mask
    lmask = kernel.local_mask
    hmask = kernel.history_mask
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


def _replay_generic(kernel, pcs, ghrs, takens, reads, transs):
    predict = kernel.predict
    train = kernel.train
    mis = []
    add = mis.append
    k = 0
    for pc, t in zip(pcs, takens):
        if reads[k] and predict(pc, ghrs[k])[0] != t:
            add(k)
        if transs[k]:
            train(pc, ghrs[k], t)
        k += 1
    return mis


def _replay_tournament(kernel, pc, ghr, takens, reads, transs):
    a = kernel.a
    b = kernel.b
    if type(a) is not LocalKernel or not isinstance(b, TableKernel):
        return _replay_generic(
            kernel, pc.tolist(), ghr.tolist(), takens, reads, transs
        )
    cidxs = kernel.batch_chooser_index(pc, ghr).tolist()
    bidxs = b.batch_index(pc, ghr).tolist()
    chooser = kernel.chooser
    atable = a.table
    histories = a.histories
    amask = a.mask
    lmask = a.local_mask
    hmask = a.history_mask
    btable = b.table
    mis = []
    add = mis.append
    k = 0
    for p, t in zip(pc.tolist(), takens):
        slot = p & lmask
        local = histories[slot] & hmask
        ai = local & amask
        va = atable[ai]
        bi = bidxs[k]
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
            histories[slot] = (local << 1) | t
        k += 1
    return mis


def _replay_perceptron(kernel, pc, ghr, takens, reads, transs):
    rows = (pc & kernel.mask).tolist()
    keys, sign_tuples = kernel.batch_signs(ghr)
    weights = kernel.weights
    threshold = kernel.threshold
    clip = kernel.clip.__getitem__
    mul = operator.mul
    plus = operator.add
    minus = operator.sub
    mis = []
    add = mis.append
    k = 0
    for row, t in zip(rows, takens):
        w = weights[row]
        signs = sign_tuples[keys[k]]
        output = sum(map(mul, w, signs))
        wrong = (output >= 0) != t
        if reads[k] and wrong:
            add(k)
        if transs[k] and (wrong or -threshold <= output <= threshold):
            w[:] = map(clip, map(plus if t else minus, w, signs))
        k += 1
    return mis


def _replay_tage(kernel, pc, ghr, takens, reads, transs):
    base_slots, slots, tags = kernel.batch_slots(pc, ghr)
    base_slots = base_slots.tolist()
    slots = [s.tolist() for s in slots]
    tags = [g.tolist() for g in tags]
    count = len(slots)
    longest_first = range(count - 1, -1, -1)
    base = kernel.base
    tag_tables = kernel.tags
    counter_tables = kernel.counters
    useful_tables = kernel.useful
    period = kernel.aging_period
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
            kernel.ticks += 1
            if kernel.ticks >= period:
                kernel.age()
        k += 1
    return mis


#: kernel class -> its chunked replay loop
_COMPOSITE_LOOPS = {
    TournamentKernel: _replay_tournament,
    PerceptronKernel: _replay_perceptron,
    TageKernel: _replay_tage,
}


def _replay_chunked(loop, kernel, plan: ReplayPlan) -> np.ndarray:
    """Event positions that mispredicted, one chunk at a time."""
    ev_branch = plan.ev_branch
    found = []
    for start in range(0, int(ev_branch.shape[0]), CHUNK_EVENTS):
        stop = start + CHUNK_EVENTS
        branches = ev_branch[start:stop]
        mis = loop(
            kernel, plan.pc[branches], plan.ghr[branches],
            plan.taken[branches].tolist(),
            plan.ev_read[start:stop].tolist(),
            plan.ev_trans[start:stop].tolist(),
        )
        found.append(np.asarray(mis, dtype=np.int64) + start)
    if not found:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(found)


def fast_replay(kernel, plan: ReplayPlan) -> np.ndarray:
    """Replay the plan through ``kernel``; mispredicted branch indices.

    Mutates the kernel's tables (so state round-trips match the object
    predictor's trained state event for event).
    """
    ev_branch = plan.ev_branch
    loop = _COMPOSITE_LOOPS.get(type(kernel))
    if loop is not None:
        return ev_branch[_replay_chunked(loop, kernel, plan)]
    takens = plan.taken[ev_branch].tolist()
    if getattr(kernel, "batchable", False):
        idxs = kernel.batch_index(
            plan.pc[ev_branch], plan.ghr[ev_branch]
        ).tolist()
        if plan.uniform:
            mis = _replay_table_uniform(kernel.table, idxs, takens)
        else:
            mis = _replay_table_flags(
                kernel.table, idxs, takens,
                plan.ev_read.tolist(), plan.ev_trans.tolist(),
            )
    else:
        pcs = plan.pc[ev_branch].tolist()
        reads = plan.ev_read.tolist()
        transs = plan.ev_trans.tolist()
        if isinstance(kernel, LocalKernel):
            mis = _replay_local(kernel, pcs, takens, reads, transs)
        else:
            ghrs = plan.ghr[ev_branch].tolist()
            mis = _replay_generic(
                kernel, pcs, ghrs, takens, reads, transs
            )
    if not mis:
        return np.zeros(0, dtype=np.int64)
    return ev_branch[np.asarray(mis, dtype=np.int64)]


def btb_misfetches(plan: ReplayPlan, mis: np.ndarray, target: np.ndarray,
                   config) -> np.ndarray:
    """Branch indices that misfetch under a BTB of geometry ``config``.

    ``mis`` holds the mispredicted branch indices of the replay and
    ``target`` the trace's per-branch targets (-1: none).

    A post-pass over the finished replay: every direction is known by
    now (a non-squashed branch predicted ``taken ^ mispredicted``), so
    the driver's BTB traffic replays exactly, over taken branches only.
    A lookup happens where the driver looks up — taken and squashed, or
    taken and predicted taken — and misses count as misfetches; an
    insert follows wherever the branch has a target.  Returns carry no
    target, so a lookup there refreshes an entry's LRU position with no
    insert after it: the BTB state depends on the predictions, not on
    the trace alone.

    An entry is just the branch's pc: within one set the driver's tag
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
