"""Flat predictor kernels: ints in, ints out, raw list tables.

A kernel is the allocation-free counterpart of one
:class:`~repro.predictors.base.BranchPredictor`: its state is plain
Python lists of small ints (picklable, pokeable, trivially diffable) and
its scalar ABI works entirely on integers:

* ``predict(pc, ghist) -> (pred, idx)`` — predicted direction (0/1) and
  the state index the prediction read.
* ``train(pc, ghist, taken) -> idx`` — full update path: recompute the
  index from the *stored* predict-time history (exactly what the
  object core passes to ``BranchPredictor.update``), apply the
  saturating-counter transition plus any kernel side effects (the local
  kernel shifts its private history here), and return the index touched.

Table-indexed kernels additionally expose ``batch_index(pc, ghr)``
(vectorised index computation over numpy arrays), which is what both the
run-grouped fast replay and the numpy backend consume.  The local
kernel computes its pattern indices from the outcome stream instead
(:meth:`LocalKernel.event_indices`), and the composite kernels
(tournament, perceptron, TAGE) expose their own vectorised per-event
indices for their replay loops.  The squash
false-path filter and predicate global update are *not* kernels: they
act on the history stream and the squash mask, which the pre-decode pass
in :mod:`repro.sim.fastcore.decode` materialises before any kernel runs.

Building a kernel from a predictor copies its *configuration*, not its
trained state: fresh tables initialised exactly as the object
constructors initialise theirs (e.g. 2-bit counters at weakly-not-taken
1), matching how sweeps hand every grid point a fresh predictor.
"""

import operator

import numpy as np

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gselect import GSelectPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage import TagePredictor, _fold
from repro.predictors.tournament import TournamentPredictor
from repro.predictors.twolevel import GAgPredictor, LocalPredictor
from repro.sim.fastcore.decode import bit_windows


class KernelError(ValueError):
    """No flat kernel models the given predictor."""


def group_events(values: np.ndarray, mask: int, symbol: np.ndarray,
                 symbol_bits: int = 1):
    """Stable grouping of events by ``values`` (all within ``mask``).

    Returns ``(order, grouped values, grouped symbols)``: the event
    positions sorted by value, stream order within a value, and the
    values and per-event ``uint8`` symbols (``symbol_bits`` wide) in that
    order.  When value, position and symbol pack into 32 bits, one
    ``sort`` of the packed key does it all (numpy sorts 32-bit keys
    with SIMD); otherwise a stable argsort of the values — a radix sort
    on a ``uint16`` key up to 65,536 values — and two gathers.
    """
    count = int(values.shape[0])
    pos_bits = max(1, (count - 1).bit_length())
    if mask.bit_length() + pos_bits + symbol_bits <= 32:
        key = values.astype(np.uint32)
        key <<= np.uint32(pos_bits)
        key |= np.arange(count, dtype=np.uint32)
        key <<= np.uint32(symbol_bits)
        key |= symbol
        key.sort()
        grouped_symbol = (key & np.uint32((1 << symbol_bits) - 1)).astype(
            np.uint8
        )
        key >>= np.uint32(symbol_bits)
        order = (key & np.uint32((1 << pos_bits) - 1)).astype(np.intp)
        key >>= np.uint32(pos_bits)
        return order, key, grouped_symbol
    key = values.astype(np.uint16) if mask >> 16 == 0 else values
    order = np.argsort(key, kind="stable")
    return order, key[order], symbol[order]


def _low_bits(ghr: np.ndarray, mask: int) -> np.ndarray:
    """``ghr & mask`` (``mask < 2**63``) as an ``int64`` array."""
    return (ghr & np.uint64(mask)).view(np.int64)


class TableKernel:
    """Shared shape of the four purely table-indexed kernels."""

    #: numpy backend eligibility (the local kernel opts out)
    batchable = True

    def __init__(self, entries: int, name: str):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.table = [1] * entries
        self.mask = entries - 1
        self.name = name

    # -- scalar ABI ----------------------------------------------------------

    def index(self, pc: int, ghist: int) -> int:
        raise NotImplementedError

    def predict(self, pc: int, ghist: int):
        idx = self.index(pc, ghist)
        return (1 if self.table[idx] >= 2 else 0, idx)

    def train(self, pc: int, ghist: int, taken: int) -> int:
        idx = self.index(pc, ghist)
        value = self.table[idx]
        if taken:
            if value < 3:
                self.table[idx] = value + 1
        elif value > 0:
            self.table[idx] = value - 1
        return idx

    # -- vectorised index ----------------------------------------------------

    def batch_index(self, pc: np.ndarray, ghr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- state ---------------------------------------------------------------

    def state(self) -> dict:
        return {"table": list(self.table)}

    def load_state(self, state: dict) -> None:
        table = list(state["table"])
        if len(table) != self.mask + 1:
            raise ValueError("state table size mismatch")
        self.table = table


class BimodalKernel(TableKernel):
    def __init__(self, entries: int):
        super().__init__(entries, f"bimodal-{entries}")

    def index(self, pc: int, ghist: int) -> int:
        return pc & self.mask

    def batch_index(self, pc, ghr):
        return pc & self.mask


class GShareKernel(TableKernel):
    def __init__(self, entries: int, history_bits: int):
        super().__init__(entries, f"gshare-{entries}/h{history_bits}")
        self.history_mask = (1 << history_bits) - 1

    def index(self, pc: int, ghist: int) -> int:
        return (pc ^ (ghist & self.history_mask)) & self.mask

    def batch_index(self, pc, ghr):
        idx = _low_bits(ghr, self.history_mask & self.mask)
        idx ^= pc
        idx &= self.mask
        return idx


class GSelectKernel(TableKernel):
    def __init__(self, entries: int, history_bits: int, pc_bits: int):
        super().__init__(entries, f"gselect-{entries}/h{history_bits}")
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.pc_mask = (1 << pc_bits) - 1

    def index(self, pc: int, ghist: int) -> int:
        return (
            ((pc & self.pc_mask) << self.history_bits)
            | (ghist & self.history_mask)
        ) & self.mask

    def batch_index(self, pc, ghr):
        idx = pc & self.pc_mask
        idx <<= self.history_bits
        idx |= _low_bits(ghr, self.history_mask & self.mask)
        idx &= self.mask
        return idx


class GAgKernel(TableKernel):
    def __init__(self, entries: int):
        super().__init__(entries, f"gag-{entries}")

    def index(self, pc: int, ghist: int) -> int:
        return ghist & self.mask

    def batch_index(self, pc, ghr):
        return _low_bits(ghr, self.mask)


class LocalKernel:
    """PAg-style local kernel: per-PC history feeding a pattern table.

    The pattern index reads private history that shifts in the actual
    outcome at every train event.  That history never depends on a
    prediction, so :meth:`event_indices` computes every event's index
    with numpy up front, and replay then walks the pattern table like
    any other table kernel.  The kernel still opts out of the numpy
    backend, whose ``batch_index`` contract takes no outcomes.
    """

    batchable = False

    def __init__(self, entries: int, local_entries: int,
                 history_bits: int):
        self.table = [1] * entries
        self.mask = entries - 1
        self.histories = [0] * local_entries
        self.local_mask = local_entries - 1
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.name = f"local-{entries}/l{local_entries}x{history_bits}"

    def index(self, pc: int, ghist: int) -> int:
        return self.histories[pc & self.local_mask] & self.history_mask

    def predict(self, pc: int, ghist: int):
        idx = self.index(pc, ghist)
        return (1 if self.table[idx & self.mask] >= 2 else 0, idx)

    def train(self, pc: int, ghist: int, taken: int) -> int:
        slot = pc & self.local_mask
        local = self.histories[slot] & self.history_mask
        idx = local & self.mask
        value = self.table[idx]
        if taken:
            if value < 3:
                self.table[idx] = value + 1
        elif value > 0:
            self.table[idx] = value - 1
        self.histories[slot] = (local << 1) | (1 if taken else 0)
        return idx

    def event_indices(self, pc: np.ndarray, taken: np.ndarray,
                      trans: np.ndarray) -> np.ndarray:
        """Pattern-table index of every event; advances ``histories``.

        ``pc``, ``taken`` and ``trans`` are per-event arrays (``trans``:
        the event trains).  An event reads its slot's starting history
        with the outcomes of the slot's earlier train events shifted
        in.  So the events are grouped by slot, each slot's bit stream
        (the low bits of its starting history, then its train outcomes)
        is laid end to end, and every index is a window of that stream
        (:func:`~repro.sim.fastcore.decode.bit_windows`).  Afterwards
        each trained slot holds ``((h & history_mask) << 1) | t`` for
        its last train event, exactly as per-event training leaves it.
        """
        count = int(pc.shape[0])
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        order, slots, taken = group_events(
            pc & self.local_mask, self.local_mask, taken
        )
        new = np.empty(count, dtype=bool)
        new[0] = True
        np.not_equal(slots[1:], slots[:-1], out=new[1:])
        first = np.flatnonzero(new)
        ends = np.append(first[1:], count)

        # Slot j's stream starts at j * width + (train events of earlier
        # slots); event k reads the bits before its own position.
        width = min(self.history_bits, 63)
        read_pos = np.repeat(
            np.arange(1, first.shape[0] + 1, dtype=np.int64) * width,
            ends - first,
        )
        if trans.all():
            trained = slice(None)
            read_pos += np.arange(count)
            last = ends - 1
        else:
            trained = np.flatnonzero(trans[order])
            before = np.zeros(count + 1, dtype=np.int64)
            before[trained + 1] = 1
            read_pos += np.cumsum(before[:-1])
            slot_of = slots[trained]
            last = np.empty(trained.shape[0], dtype=bool)
            last[:-1] = slot_of[1:] != slot_of[:-1]
            last[-1:] = True
            last = trained[last]
        histories = self.histories
        low = (1 << width) - 1
        start = np.array(
            [histories[slot] & low for slot in slots[first].tolist()],
            dtype=np.uint64,
        )
        bits = np.zeros(int(read_pos[-1]) + 1, dtype=np.uint8)
        offsets = np.arange(width, dtype=np.int64)
        bits[read_pos[first, None] - width + offsets] = (
            start[:, None] >> (width - 1 - offsets).astype(np.uint64)
        ) & np.uint64(1)
        bits[read_pos[trained]] = taken[trained]
        windows = bit_windows(bits, read_pos, width)
        del read_pos, bits

        if self.history_bits <= 63:
            for slot, window, t in zip(slots[last].tolist(),
                                       windows[last].tolist(),
                                       taken[last].tolist()):
                histories[slot] = (window << 1) | t
        else:
            hmask = self.history_mask
            for slot, t in zip(slots[trained].tolist(),
                               taken[trained].tolist()):
                histories[slot] = ((histories[slot] & hmask) << 1) | t

        windows &= windows.dtype.type(self.history_mask & self.mask)
        idxs = np.empty(count, dtype=windows.dtype)
        idxs[order] = windows
        return idxs

    def state(self) -> dict:
        return {
            "table": list(self.table),
            "histories": list(self.histories),
        }

    def load_state(self, state: dict) -> None:
        table = list(state["table"])
        histories = list(state["histories"])
        if len(table) != self.mask + 1:
            raise ValueError("state table size mismatch")
        if len(histories) != self.local_mask + 1:
            raise ValueError("state history table size mismatch")
        self.table = table
        self.histories = histories


def _check_size(table: list, expected: int, what: str) -> list:
    table = list(table)
    if len(table) != expected:
        raise ValueError(f"state {what} size mismatch")
    return table


class TournamentKernel:
    """Chooser of 2-bit counters picking between two component kernels.

    The chooser reads ``(pc ^ ghist) & mask``, a pure function of the
    event stream, so replay precomputes it; the components keep their
    own state.  The chooser trains only when the components disagree,
    toward the one that was right, recomputing both components'
    predictions at train time as the object predictor does.  Neither
    component ever depends on the chooser, and where they agree the
    chooser's value does not matter: so on a plan where every event
    reads and trains, each table replays on its own and the chooser
    over the disagreeing events alone
    (:func:`~repro.sim.fastcore.replay.replay_tournament_runs`).
    """

    batchable = False

    def __init__(self, entries: int, a, b):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.chooser = [1] * entries
        self.mask = entries - 1
        self.a = a
        self.b = b
        self.name = f"tournament-{entries}({a.name}|{b.name})"

    def predict(self, pc: int, ghist: int):
        idx = (pc ^ ghist) & self.mask
        component = self.b if self.chooser[idx] >= 2 else self.a
        return (component.predict(pc, ghist)[0], idx)

    def train(self, pc: int, ghist: int, taken: int) -> int:
        idx = (pc ^ ghist) & self.mask
        pred_a = self.a.predict(pc, ghist)[0]
        pred_b = self.b.predict(pc, ghist)[0]
        if pred_a != pred_b:
            value = self.chooser[idx]
            if pred_b == bool(taken):
                if value < 3:
                    self.chooser[idx] = value + 1
            elif value > 0:
                self.chooser[idx] = value - 1
        self.a.train(pc, ghist, taken)
        self.b.train(pc, ghist, taken)
        return idx

    def batch_chooser_index(self, pc, ghr):
        return (
            (pc.astype(np.uint64) ^ ghr) & np.uint64(self.mask)
        ).astype(np.int64)

    def state(self) -> dict:
        return {
            "chooser": list(self.chooser),
            "a": self.a.state(),
            "b": self.b.state(),
        }

    def load_state(self, state: dict) -> None:
        chooser = _check_size(state["chooser"], self.mask + 1, "chooser")
        self.a.load_state(state["a"])
        self.b.load_state(state["b"])
        self.chooser = chooser


def _clip_table(limit: int) -> list:
    """``table[v]`` clamps ``v`` in ``[-limit - 1, limit + 1]`` to
    ``[-limit, limit]``; negative ``v`` index from the end."""
    upper = [min(v, limit) for v in range(limit + 2)]
    lower = [max(-v, -limit) for v in range(limit + 1, 0, -1)]
    return upper + lower


class PerceptronKernel:
    """Rows of saturating weights over ``history_bits`` history bits.

    A history value is carried as its sign tuple ``(1, s_1 .. s_h)``
    with ``s_i = +1`` where bit ``i - 1`` is set and ``-1`` elsewhere,
    so the output is one dot product with the row (bias included) and
    training adds the tuple to the row (subtracts it for not-taken).
    """

    batchable = False

    def __init__(self, entries: int, history_bits: int,
                 weight_limit: int, threshold: int):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.weights = [[0] * (history_bits + 1) for _ in range(entries)]
        self.mask = entries - 1
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.weight_limit = weight_limit
        self.threshold = threshold
        self.clip = _clip_table(weight_limit)
        self.name = f"perceptron-{entries}x{history_bits}"

    def signs(self, ghist: int) -> tuple:
        return (1,) + tuple(
            1 if (ghist >> bit) & 1 else -1
            for bit in range(self.history_bits)
        )

    def predict(self, pc: int, ghist: int):
        row = pc & self.mask
        output = sum(map(operator.mul, self.weights[row],
                         self.signs(ghist)))
        return (1 if output >= 0 else 0, row)

    def train(self, pc: int, ghist: int, taken: int) -> int:
        row = pc & self.mask
        weights = self.weights[row]
        signs = self.signs(ghist)
        output = sum(map(operator.mul, weights, signs))
        if (output >= 0) == bool(taken) and abs(output) > self.threshold:
            return row
        step = operator.add if taken else operator.sub
        weights[:] = map(self.clip.__getitem__, map(step, weights, signs))
        return row

    def batch_signs(self, ghr):
        """(per-event key, sign tuple per key): one shared tuple per
        distinct history value."""
        values, keys = np.unique(
            ghr & np.uint64(self.history_mask), return_inverse=True
        )
        shifts = np.arange(self.history_bits, dtype=np.uint64)
        bits = ((values[:, None] >> shifts) & np.uint64(1)).astype(
            np.int64
        )
        signs = np.ones((values.shape[0], self.history_bits + 1),
                        dtype=np.int64)
        signs[:, 1:] = 2 * bits - 1
        return keys.reshape(-1).tolist(), list(map(tuple, signs.tolist()))

    def state(self) -> dict:
        return {"weights": [list(row) for row in self.weights]}

    def load_state(self, state: dict) -> None:
        weights = _check_size(state["weights"], self.mask + 1, "weights")
        rows = [
            _check_size(row, self.history_bits + 1, "weight row")
            for row in weights
        ]
        self.weights = rows


def _batch_fold(value: np.ndarray, bits: int, length: int) -> np.ndarray:
    """Vectorised :func:`repro.predictors.tage._fold` of values known
    to fit ``length`` bits."""
    folded = np.zeros(value.shape[0], dtype=np.uint64)
    if bits <= 0:
        return folded
    mask = np.uint64((1 << bits) - 1)
    for shift in range(0, min(length, 64), bits):
        folded ^= (value >> np.uint64(shift)) & mask
    return folded


class TageKernel:
    """TAGE-lite: bimodal base plus tagged geometric-history tables.

    Per tagged table ``i``: ``tags[i]``, 3-bit ``counters[i]`` and 2-bit
    ``useful[i]``.  Every slot and tag is a pure function of
    ``(pc, ghist)``, so the replay loop precomputes them per event
    (:meth:`batch_slots`); provider/altpred selection, allocation and
    aging stay serial.  ``ticks`` counts mispredicted updates
    toward the global useful-counter aging every ``aging_period``.
    """

    batchable = False

    def __init__(self, base_entries: int, table_entries: int,
                 history_lengths, tag_bits: int, aging_period: int):
        if base_entries <= 0 or base_entries & (base_entries - 1):
            raise ValueError("base entries must be a power of two")
        self.base = [1] * base_entries
        self.base_mask = base_entries - 1
        count = len(history_lengths)
        self.tags = [[0] * table_entries for _ in range(count)]
        self.counters = [[3] * table_entries for _ in range(count)]
        self.useful = [[0] * table_entries for _ in range(count)]
        self.mask = table_entries - 1
        self.history_lengths = list(history_lengths)
        self.tag_bits = tag_bits
        self.aging_period = aging_period
        self.ticks = 0
        self.name = (
            f"tage-{count}x{table_entries}"
            f"(h{history_lengths[0]}..{history_lengths[-1]})"
        )

    def slots(self, pc: int, ghist: int):
        """(slot, tag) per tagged table, shortest history first."""
        index_bits = self.mask.bit_length()
        tag_mask = (1 << self.tag_bits) - 1
        found = []
        for length in self.history_lengths:
            history = ghist & ((1 << length) - 1)
            slot = (
                pc ^ _fold(history, index_bits) ^ (pc >> 3)
            ) & self.mask
            tag = (
                pc ^ (_fold(history, self.tag_bits) << 1) ^ (pc >> 5)
            ) & tag_mask
            found.append((slot, tag))
        return found

    def _find(self, slots):
        """(provider, provider slot, alt, alt slot); -1 for a miss."""
        provider = alt = -1
        pslot = aslot = 0
        for table in range(len(slots) - 1, -1, -1):
            slot, tag = slots[table]
            if self.tags[table][slot] == tag:
                if provider < 0:
                    provider, pslot = table, slot
                else:
                    alt, aslot = table, slot
                    break
        return provider, pslot, alt, aslot

    def predict(self, pc: int, ghist: int):
        provider, pslot, _, _ = self._find(self.slots(pc, ghist))
        if provider >= 0:
            return (1 if self.counters[provider][pslot] >= 4 else 0, pslot)
        slot = pc & self.base_mask
        return (1 if self.base[slot] >= 2 else 0, slot)

    def train(self, pc: int, ghist: int, taken: int) -> int:
        taken = bool(taken)
        slots = self.slots(pc, ghist)
        provider, pslot, alt, aslot = self._find(slots)
        base_slot = pc & self.base_mask
        if provider >= 0:
            counters = self.counters[provider]
            value = counters[pslot]
            prediction = value >= 4
            if alt >= 0:
                alt_prediction = self.counters[alt][aslot] >= 4
            else:
                alt_prediction = self.base[base_slot] >= 2
            if prediction != alt_prediction:
                useful = self.useful[provider]
                if prediction == taken:
                    if useful[pslot] < 3:
                        useful[pslot] += 1
                elif useful[pslot] > 0:
                    useful[pslot] -= 1
            if taken and value < 7:
                counters[pslot] = value + 1
            elif not taken and value > 0:
                counters[pslot] = value - 1
        else:
            value = self.base[base_slot]
            prediction = value >= 2
            if taken and value < 3:
                self.base[base_slot] = value + 1
            elif not taken and value > 0:
                self.base[base_slot] = value - 1
        if prediction == taken:
            return pslot
        candidates = range(provider + 1, len(slots))
        for table in candidates:
            slot, tag = slots[table]
            if self.useful[table][slot] == 0:
                self.tags[table][slot] = tag
                self.counters[table][slot] = 4 if taken else 3
                break
        else:
            for table in candidates:
                slot = slots[table][0]
                if self.useful[table][slot] > 0:
                    self.useful[table][slot] -= 1
        self.ticks += 1
        if self.ticks >= self.aging_period:
            self.age()
        return pslot

    def age(self) -> None:
        """Global aging: decay every useful counter, restart the count."""
        self.ticks = 0
        for useful in self.useful:
            useful[:] = [u - 1 if u else 0 for u in useful]

    def batch_slots(self, pc, ghr):
        """(base slots, [slots per table], [tags per table]) as int64
        arrays, tables shortest history first."""
        pcu = pc.astype(np.uint64)
        index_bits = self.mask.bit_length()
        mask = np.uint64(self.mask)
        tag_mask = np.uint64((1 << self.tag_bits) - 1)
        mix_index = pcu ^ (pcu >> np.uint64(3))
        mix_tag = pcu ^ (pcu >> np.uint64(5))
        slots = []
        tags = []
        for length in self.history_lengths:
            history = (
                ghr & np.uint64((1 << length) - 1) if length < 64 else ghr
            )
            folded = _batch_fold(history, index_bits, length)
            slots.append(((mix_index ^ folded) & mask).astype(np.int64))
            folded = _batch_fold(history, self.tag_bits, length)
            tags.append(
                ((mix_tag ^ (folded << np.uint64(1))) & tag_mask).astype(
                    np.int64
                )
            )
        base = (pcu & np.uint64(self.base_mask)).astype(np.int64)
        return base, slots, tags

    def state(self) -> dict:
        return {
            "base": list(self.base),
            "tags": [list(t) for t in self.tags],
            "counters": [list(c) for c in self.counters],
            "useful": [list(u) for u in self.useful],
            "ticks": self.ticks,
        }

    def load_state(self, state: dict) -> None:
        base = _check_size(state["base"], self.base_mask + 1, "base")
        tables = {}
        for key in ("tags", "counters", "useful"):
            rows = _check_size(state[key], len(self.history_lengths), key)
            tables[key] = [
                _check_size(row, self.mask + 1, key) for row in rows
            ]
        self.base = base
        self.tags = tables["tags"]
        self.counters = tables["counters"]
        self.useful = tables["useful"]
        self.ticks = int(state["ticks"])


def _from_bimodal(p: BimodalPredictor) -> BimodalKernel:
    return BimodalKernel(p.entries)


def _from_gshare(p: GSharePredictor) -> GShareKernel:
    return GShareKernel(p.entries, p.history_bits)


def _from_gselect(p: GSelectPredictor) -> GSelectKernel:
    return GSelectKernel(p.entries, p.history_bits, p.pc_bits)


def _from_gag(p: GAgPredictor) -> GAgKernel:
    return GAgKernel(p.entries)


def _from_local(p: LocalPredictor) -> LocalKernel:
    return LocalKernel(p.entries, p.local_entries, p.history_bits)


def _from_tournament(p: TournamentPredictor) -> TournamentKernel:
    return TournamentKernel(
        p.entries, kernel_from_predictor(p.a), kernel_from_predictor(p.b)
    )


def _from_perceptron(p: PerceptronPredictor) -> PerceptronKernel:
    return PerceptronKernel(
        p.entries, p.history_bits, p.weight_limit, p.threshold
    )


def _from_tage(p: TagePredictor) -> TageKernel:
    return TageKernel(
        p.base_entries, p.table_entries, p.history_lengths, p.tag_bits,
        p.aging_period,
    )


#: predictor class -> kernel builder.  Exact classes only: a subclass
#: may override behaviour the kernel does not model, so it falls back to
#: the object core instead of silently diverging.
KERNEL_BUILDERS = {
    BimodalPredictor: _from_bimodal,
    GSharePredictor: _from_gshare,
    GSelectPredictor: _from_gselect,
    GAgPredictor: _from_gag,
    LocalPredictor: _from_local,
    TournamentPredictor: _from_tournament,
    PerceptronPredictor: _from_perceptron,
    TagePredictor: _from_tage,
}


def kernelizable(predictor) -> bool:
    """Does a flat kernel model this predictor exactly?"""
    if type(predictor) not in KERNEL_BUILDERS:
        return False
    if type(predictor) is TournamentPredictor:
        return kernelizable(predictor.a) and kernelizable(predictor.b)
    return True


def kernel_from_predictor(predictor):
    """A fresh kernel mirroring ``predictor``'s configuration."""
    builder = KERNEL_BUILDERS.get(type(predictor))
    if builder is None:
        raise KernelError(
            f"no flat kernel for {type(predictor).__name__} "
            f"({getattr(predictor, 'name', '?')}); the object core is "
            "the only path for this predictor"
        )
    return builder(predictor)
