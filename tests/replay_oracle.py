"""Per-event replay loops: the oracle of the grouped run replay.

These are the fast core's previous loops for 2-bit counter tables, one
iteration per event.  They are kept as the oracle of the replay tests
(``tests/test_replay_runs.py``) and of the replay benchmark gate
(``benchmarks/test_bench_replay.py``).  Nothing in ``src/`` uses them.

* :func:`replay_table_uniform` — every event reads then trains one
  counter of a table kernel (bimodal, gshare, gselect, GAg).
* :func:`replay_local` — the local kernel: per-slot history shifted at
  train events, feeding a pattern table; events carry read/transition
  flags.
* :func:`oracle_replay` — the fast core's previous path for those
  kernels on one replay plan.

Every loop returns the *event positions* that mispredicted, ascending.
"""

import numpy as np

from repro.sim.fastcore.kernels import LocalKernel


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


def replay_local(kernel, pcs, takens, reads, transs):
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


def oracle_replay(kernel, plan) -> np.ndarray:
    """Mispredicted branch indices of a table or local kernel on a
    ``uniform`` plan (or any plan, for local), one event at a time."""
    ev_branch = plan.ev_branch
    takens = plan.taken[ev_branch].tolist()
    if isinstance(kernel, LocalKernel):
        mis = replay_local(
            kernel, plan.pc[ev_branch].tolist(), takens,
            plan.ev_read.tolist(), plan.ev_trans.tolist(),
        )
    else:
        if not plan.uniform:
            raise ValueError("the table oracle replays uniform plans only")
        idxs = kernel.batch_index(
            plan.pc[ev_branch], plan.ghr[ev_branch]
        ).tolist()
        mis = replay_table_uniform(kernel.table, idxs, takens)
    return ev_branch[np.asarray(mis, dtype=np.int64)]
