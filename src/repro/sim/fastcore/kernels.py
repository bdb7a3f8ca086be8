"""Flat predictor kernels: tables plus vectorised indices.

A kernel is the allocation-free counterpart of one
:class:`~repro.predictors.base.BranchPredictor`: its state is plain
Python lists of small ints (picklable, pokeable, trivially diffable;
the perceptron's rows sit in a dict that makes each on first touch),
and its methods compute, with numpy, the index every event of a replay
reads.  It has no per-event ``predict``/``train``: the rules that read
and update the tables live once, in the run scan and the replay loops
of :mod:`repro.sim.fastcore.replay`, with the object predictors as the
readable reference.

* Table kernels (bimodal, gshare, gselect, GAg) map ``(pc, ghr)``
  arrays to 2-bit counter indices (:meth:`TableKernel.batch_index`).
* The local kernel computes its pattern indices from the outcome
  stream (:meth:`LocalKernel.event_indices`).
* The composite kernels (tournament, perceptron, TAGE) expose the
  per-event indices their replay loops read (``batch_chooser_index``,
  ``batch_lanes``, ``batch_slots``).
* Every kernel has ``state()``/``load_state()``: an exact, picklable
  snapshot of its tables.

The squash false-path filter and predicate global update are *not*
kernels: they act on the history stream and the squash mask, which the
pre-decode pass in :mod:`repro.sim.fastcore.decode` materialises before
any kernel runs.

Building a kernel from a predictor copies its *configuration*, not its
trained state: fresh tables initialised exactly as the object
constructors initialise theirs (e.g. 2-bit counters at weakly-not-taken
1), matching how sweeps hand every grid point a fresh predictor.
"""

import numpy as np

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gselect import GSelectPredictor
from repro.predictors.perceptron import PerceptronPredictor, WeightRows
from repro.predictors.tage import TagePredictor
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
    """Shared shape of the four purely table-indexed kernels: 2-bit
    counters at ``batch_index(pc, ghr)``, the only kernels the numpy
    core takes."""

    def __init__(self, entries: int, name: str):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.table = [1] * entries
        self.mask = entries - 1
        self.name = name

    def batch_index(self, pc: np.ndarray, ghr: np.ndarray) -> np.ndarray:
        """Per-event table index of ``pc`` (int64) and ``ghr`` (uint64)."""
        raise NotImplementedError

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

    def batch_index(self, pc, ghr):
        return pc & self.mask


class GShareKernel(TableKernel):
    def __init__(self, entries: int, history_bits: int):
        super().__init__(entries, f"gshare-{entries}/h{history_bits}")
        self.history_mask = (1 << history_bits) - 1

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

    def batch_index(self, pc, ghr):
        idx = pc & self.pc_mask
        idx <<= self.history_bits
        idx |= _low_bits(ghr, self.history_mask & self.mask)
        idx &= self.mask
        return idx


class GAgKernel(TableKernel):
    def __init__(self, entries: int):
        super().__init__(entries, f"gag-{entries}")

    def batch_index(self, pc, ghr):
        return _low_bits(ghr, self.mask)


class LocalKernel:
    """PAg-style local kernel: per-PC history feeding a pattern table.

    The pattern index reads private history that shifts in the actual
    outcome at every train event.  That history never depends on a
    prediction, so :meth:`event_indices` computes every event's index
    with numpy up front, and replay then walks the pattern table like
    any other table kernel.  It is not a :class:`TableKernel`: its
    indices need the outcomes, which ``batch_index`` does not take.
    """

    def __init__(self, entries: int, local_entries: int,
                 history_bits: int):
        self.table = [1] * entries
        self.mask = entries - 1
        self.histories = [0] * local_entries
        self.local_mask = local_entries - 1
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.name = f"local-{entries}/l{local_entries}x{history_bits}"

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
    """Chooser of 2-bit counters picking between two component kernels,
    each a table or local kernel.

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

    def __init__(self, entries: int, a, b):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.chooser = [1] * entries
        self.mask = entries - 1
        self.a = a
        self.b = b
        self.name = f"tournament-{entries}({a.name}|{b.name})"

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


class PerceptronKernel:
    """Rows of saturating weights over ``history_bits`` history bits.

    A history value is carried as its signs ``(1, s_1 .. s_h)`` with
    ``s_i = +1`` where bit ``i - 1`` is set and ``-1`` elsewhere, so the
    output is one dot product with the row (bias included) and
    training adds the signs to the row (subtracts them for not-taken).
    ``weights`` is a :class:`~repro.predictors.perceptron.WeightRows`:
    a row exists once an event has indexed it, so building a kernel
    costs the same at every table size.

    While a replay runs, a row is one Python int of ``n = history_bits
    + 1`` lanes of :attr:`lane` bits (:meth:`pack`): lane ``i`` holds
    ``w_i + bias``, with ``bias = 2**m - 1 - limit`` and ``m`` the bit
    length of ``2 * limit + 1``, so every lane lies in ``[1, 2**m)``
    and stays non-negative and below bit ``m + 1`` after one ±1 step.
    Lanes are 16 bits, doubled until they hold ``2 * n * 2**m``, so a
    product of two rows never carries from one lane into the next.
    """

    def __init__(self, entries: int, history_bits: int,
                 weight_limit: int, threshold: int):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.weights = WeightRows(history_bits + 1)
        self.mask = entries - 1
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.weight_limit = weight_limit
        self.threshold = threshold
        self.name = f"perceptron-{entries}x{history_bits}"
        width = 2 * weight_limit + 1
        self.high_bit = width.bit_length()
        self.bias = (1 << self.high_bit) - 1 - weight_limit
        self.lane = 16
        while (2 * (history_bits + 1)) << self.high_bit > 1 << self.lane:
            self.lane *= 2
        self.shifts = range(0, self.lane * (history_bits + 1), self.lane)

    def pack(self, weights) -> int:
        """A row's weights as one int, lane ``i`` holding ``w_i + bias``."""
        bias = self.bias
        return sum((w + bias) << shift for w, shift in zip(weights,
                                                           self.shifts))

    def unpack(self, row: int) -> list:
        """The weights :meth:`pack` stored in ``row``."""
        bias = self.bias
        mask = (1 << self.lane) - 1
        return [((row >> shift) & mask) - bias for shift in self.shifts]

    def lanes(self, count: int) -> int:
        """``count`` in every lane."""
        return sum(count << shift for shift in self.shifts)

    def batch_lanes(self, ghr):
        """Per-event key, and per distinct history value its
        ``(select, delta, plus)``.

        ``delta`` is the signs as a packed row (``row + delta`` trains
        toward taken); ``plus`` counts the ``+1`` signs.  ``select``
        holds 2 in lane ``n - 1 - i`` for every ``+1`` sign ``i``, so
        lane ``n - 1`` of ``row * select`` is twice the row's lanes
        under a ``+1`` sign.
        """
        values, keys = np.unique(
            ghr & np.uint64(self.history_mask), return_inverse=True
        )
        shifts = np.arange(self.history_bits, dtype=np.uint64)
        signs = np.ones((values.shape[0], self.history_bits + 1),
                        dtype=np.uint8)
        signs[:, 1:] = (values[:, None] >> shifts) & np.uint64(1)
        # Little-endian lanes: the value in each lane's low byte.
        positive = np.zeros(signs.shape + (self.lane // 8,), dtype=np.uint8)
        positive[:, :, 0] = signs
        size = signs.shape[1] * (self.lane // 8)
        ones = self.lanes(1)
        lanes = positive.tobytes()
        delta = [
            2 * int.from_bytes(lanes[at:at + size], "little") - ones
            for at in range(0, len(lanes), size)
        ]
        lanes = (2 * positive[:, ::-1]).tobytes()
        select = [
            int.from_bytes(lanes[at:at + size], "little")
            for at in range(0, len(lanes), size)
        ]
        plus = signs.sum(axis=1, dtype=np.int64).tolist()
        return keys.reshape(-1).tolist(), select, delta, plus

    def state(self) -> dict:
        return {"weights": self.weights.rows(self.mask + 1)}

    def load_state(self, state: dict) -> None:
        """Load a full list of ``entries`` rows; only rows that are not
        all zeros are kept (the rest are made again on first touch)."""
        weights = _check_size(state["weights"], self.mask + 1, "weights")
        rows = WeightRows(self.history_bits + 1)
        for i, row in enumerate(weights):
            row = _check_size(row, self.history_bits + 1, "weight row")
            if any(row):
                rows[i] = row
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


#: Predictor classes whose kernels are indexed per event without
#: reading any other state: a table kernel or the local kernel.  Only
#: these can be a tournament's components.
_TOURNAMENT_COMPONENTS = (
    BimodalPredictor,
    GSharePredictor,
    GSelectPredictor,
    GAgPredictor,
    LocalPredictor,
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
    """Does a flat kernel model this predictor exactly?

    A tournament does when both its components are table or local
    predictors; one over a tournament, perceptron or TAGE runs on the
    object core.
    """
    if type(predictor) is TournamentPredictor:
        return (type(predictor.a) in _TOURNAMENT_COMPONENTS
                and type(predictor.b) in _TOURNAMENT_COMPONENTS)
    return type(predictor) in KERNEL_BUILDERS


def kernel_from_predictor(predictor):
    """A fresh kernel mirroring ``predictor``'s configuration."""
    if not kernelizable(predictor):
        raise KernelError(
            f"no flat kernel for {type(predictor).__name__} "
            f"({getattr(predictor, 'name', '?')}); the object core is "
            "the only path for this predictor"
        )
    return KERNEL_BUILDERS[type(predictor)](predictor)
