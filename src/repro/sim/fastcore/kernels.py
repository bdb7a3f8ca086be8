"""Vectorised indices: what every event of a replay reads.

The ``fast`` and ``numpy`` cores replay on the predictor's own tables
(its ``counters.table``, ``histories``, ``chooser.table``, ``weights``
or TAGE lists) and train them in place, so a predictor simulated twice
keeps learning on every core.  This module holds the algorithms those
replays share: the grouping sort (:func:`group_events`) and, per
predictor family, the index every event of a replay reads, computed
with numpy from the plan's ``pc`` and ``ghr`` arrays
(:data:`INDEX_FUNCTIONS`).  The rules that read and update the tables
live once, in the run scan and the replay loops of
:mod:`repro.sim.fastcore.replay`, with the object predictors'
``predict``/``update`` as the readable reference.

* Bimodal, gshare, gselect and GAg map ``(pc, ghr)`` arrays to 2-bit
  counter indices (:data:`TABLE_CLASSES`).
* A local predictor's pattern indices come from the outcome stream
  (:func:`local_indices`).
* The composite families expose the per-event indices their replay
  loops read (:func:`chooser_index`, :func:`perceptron_lanes`,
  :func:`tage_slots`).

The squash false-path filter and predicate global update are not here:
they act on the history stream and the squash mask, which the
pre-decode pass in :mod:`repro.sim.fastcore.decode` materialises before
any replay runs.
"""

from typing import NamedTuple

import numpy as np

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gselect import GSelectPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage import TagePredictor
from repro.predictors.tournament import TournamentPredictor
from repro.predictors.twolevel import GAgPredictor, LocalPredictor
from repro.sim.fastcore.decode import bit_windows


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


# -- 2-bit counter tables: index of ``(pc int64, ghr uint64)`` arrays ---------


def bimodal_index(predictor: BimodalPredictor, pc, ghr):
    return pc & predictor.counters.mask


def gshare_index(predictor: GSharePredictor, pc, ghr):
    mask = predictor.counters.mask
    idx = _low_bits(ghr, predictor.history_mask & mask)
    idx ^= pc
    idx &= mask
    return idx


def gselect_index(predictor: GSelectPredictor, pc, ghr):
    idx = pc & predictor.pc_mask
    idx <<= predictor.history_bits
    idx |= _low_bits(ghr, predictor.history_mask & predictor.counters.mask)
    idx &= predictor.counters.mask
    return idx


def gag_index(predictor: GAgPredictor, pc, ghr):
    return _low_bits(ghr, predictor.counters.mask)


def local_indices(predictor: LocalPredictor, pc: np.ndarray,
                  taken: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Pattern-table index of every event; advances ``histories``.

    ``pc``, ``taken`` and ``trans`` are per-event arrays (``trans``:
    the event trains).  The pattern index reads private history that
    shifts in the actual outcome at every train event, never a
    prediction, so every index is known up front.  An event reads its
    slot's starting history with the outcomes of the slot's earlier
    train events shifted in.  So the events are grouped by slot, each
    slot's bit stream (the low bits of its starting history, then its
    train outcomes) is laid end to end, and every index is a window of
    that stream (:func:`~repro.sim.fastcore.decode.bit_windows`).
    Afterwards each trained slot holds ``((h & history_mask) << 1) | t``
    for its last train event, exactly as :meth:`LocalPredictor.update`
    leaves it.
    """
    count = int(pc.shape[0])
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    local_mask = predictor.local_mask
    order, slots, taken = group_events(pc & local_mask, local_mask, taken)
    new = np.empty(count, dtype=bool)
    new[0] = True
    np.not_equal(slots[1:], slots[:-1], out=new[1:])
    first = np.flatnonzero(new)
    ends = np.append(first[1:], count)

    # Slot j's stream starts at j * width + (train events of earlier
    # slots); event k reads the bits before its own position.
    width = min(predictor.history_bits, 63)
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
    histories = predictor.histories
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

    if predictor.history_bits <= 63:
        for slot, window, t in zip(slots[last].tolist(),
                                   windows[last].tolist(),
                                   taken[last].tolist()):
            histories[slot] = (window << 1) | t
    else:
        hmask = predictor.history_mask
        for slot, t in zip(slots[trained].tolist(),
                           taken[trained].tolist()):
            histories[slot] = ((histories[slot] & hmask) << 1) | t

    windows &= windows.dtype.type(
        predictor.history_mask & predictor.counters.mask
    )
    idxs = np.empty(count, dtype=windows.dtype)
    idxs[order] = windows
    return idxs


# -- composites ---------------------------------------------------------------


def chooser_index(predictor: TournamentPredictor, pc, ghr):
    """A tournament chooser's counter, ``(pc ^ ghr) & mask``."""
    return (
        (pc.astype(np.uint64) ^ ghr) & np.uint64(predictor.chooser.mask)
    ).astype(np.int64)


class Lanes(NamedTuple):
    """A perceptron row as one Python int of ``n = history_bits + 1``
    lanes (:func:`lane_layout`).

    Lane ``i`` holds ``w_i + bias``, with ``bias = 2**m - 1 - limit``
    and ``m`` the bit length of ``2 * limit + 1``, so every lane lies
    in ``[1, 2**m)`` and stays non-negative and below bit ``m + 1``
    after one ±1 step.  Lanes are 16 bits, doubled until they hold
    ``2 * n * 2**m``, so a product of two rows never carries from one
    lane into the next.
    """

    width: int  #: bits per lane
    high_bit: int  #: ``m``
    bias: int
    shifts: range  #: lane ``i`` starts at bit ``shifts[i]``

    def pack(self, weights) -> int:
        """A row's weights as one int, lane ``i`` holding ``w_i + bias``."""
        bias = self.bias
        return sum((w + bias) << shift for w, shift in zip(weights,
                                                           self.shifts))

    def unpack(self, row: int) -> list:
        """The weights :meth:`pack` stored in ``row``."""
        bias = self.bias
        mask = (1 << self.width) - 1
        return [((row >> shift) & mask) - bias for shift in self.shifts]

    def fill(self, count: int) -> int:
        """``count`` in every lane."""
        return sum(count << shift for shift in self.shifts)


def lane_layout(predictor: PerceptronPredictor) -> Lanes:
    """The lanes of ``predictor``'s rows, from its ``history_bits`` and
    ``weight_limit``."""
    limit = predictor.weight_limit
    high_bit = (2 * limit + 1).bit_length()
    width = 16
    while (2 * (predictor.history_bits + 1)) << high_bit > 1 << width:
        width *= 2
    return Lanes(width, high_bit, (1 << high_bit) - 1 - limit,
                 range(0, width * (predictor.history_bits + 1), width))


def perceptron_lanes(predictor: PerceptronPredictor, lanes: Lanes, ghr):
    """Per-event key, and per distinct history value its
    ``(select, delta, plus)``.

    A history value is carried as its signs ``(1, s_1 .. s_h)`` with
    ``s_i = +1`` where bit ``i - 1`` is set and ``-1`` elsewhere, so
    the output is one dot product with the row (bias included) and
    training adds the signs to the row (subtracts them for not-taken).
    ``delta`` is the signs as a packed row (``row + delta`` trains
    toward taken); ``plus`` counts the ``+1`` signs.  ``select`` holds
    2 in lane ``n - 1 - i`` for every ``+1`` sign ``i``, so lane
    ``n - 1`` of ``row * select`` is twice the row's lanes under a
    ``+1`` sign.
    """
    history_bits = predictor.history_bits
    values, keys = np.unique(
        ghr & np.uint64((1 << history_bits) - 1), return_inverse=True
    )
    shifts = np.arange(history_bits, dtype=np.uint64)
    signs = np.ones((values.shape[0], history_bits + 1), dtype=np.uint8)
    signs[:, 1:] = (values[:, None] >> shifts) & np.uint64(1)
    # Little-endian lanes: the value in each lane's low byte.
    positive = np.zeros(signs.shape + (lanes.width // 8,), dtype=np.uint8)
    positive[:, :, 0] = signs
    size = signs.shape[1] * (lanes.width // 8)
    ones = lanes.fill(1)
    packed = positive.tobytes()
    delta = [
        2 * int.from_bytes(packed[at:at + size], "little") - ones
        for at in range(0, len(packed), size)
    ]
    packed = (2 * positive[:, ::-1]).tobytes()
    select = [
        int.from_bytes(packed[at:at + size], "little")
        for at in range(0, len(packed), size)
    ]
    plus = signs.sum(axis=1, dtype=np.int64).tolist()
    return keys.reshape(-1).tolist(), select, delta, plus


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


def tage_slots(predictor: TagePredictor, pc, ghr):
    """(base slots, [slots per table], [tags per table]) as int64
    arrays, tables shortest history first: every slot and tag is a
    pure function of ``(pc, ghr)``."""
    pcu = pc.astype(np.uint64)
    index_bits = predictor.mask.bit_length()
    mask = np.uint64(predictor.mask)
    tag_bits = predictor.tag_bits
    tag_mask = np.uint64((1 << tag_bits) - 1)
    mix_index = pcu ^ (pcu >> np.uint64(3))
    mix_tag = pcu ^ (pcu >> np.uint64(5))
    slots = []
    tags = []
    for length in predictor.history_lengths:
        history = ghr & np.uint64((1 << length) - 1) if length < 64 else ghr
        folded = _batch_fold(history, index_bits, length)
        slots.append(((mix_index ^ folded) & mask).astype(np.int64))
        folded = _batch_fold(history, tag_bits, length)
        tags.append(
            ((mix_tag ^ (folded << np.uint64(1))) & tag_mask).astype(np.int64)
        )
    base = (pcu & np.uint64(predictor.base.mask)).astype(np.int64)
    return base, slots, tags


#: The purely table-indexed predictors: 2-bit counters at
#: ``INDEX_FUNCTIONS[cls](predictor, pc, ghr)``, the only ones the
#: numpy core takes.
TABLE_CLASSES = (
    BimodalPredictor,
    GSharePredictor,
    GSelectPredictor,
    GAgPredictor,
)

#: Predictor classes indexed per event without reading any other
#: state.  Only these can be a tournament's components.
_TOURNAMENT_COMPONENTS = TABLE_CLASSES + (LocalPredictor,)

#: predictor class -> its index function.  Exact classes only: a
#: subclass may override behaviour the replay does not model, so it
#: falls back to the object core instead of silently diverging.
INDEX_FUNCTIONS = {
    BimodalPredictor: bimodal_index,
    GSharePredictor: gshare_index,
    GSelectPredictor: gselect_index,
    GAgPredictor: gag_index,
    LocalPredictor: local_indices,
    TournamentPredictor: chooser_index,
    PerceptronPredictor: perceptron_lanes,
    TagePredictor: tage_slots,
}


def kernelizable(predictor) -> bool:
    """Do the fast cores replay this predictor exactly?

    A tournament does when both its components are table or local
    predictors; one over a tournament, perceptron or TAGE runs on the
    object core.
    """
    if type(predictor) is TournamentPredictor:
        return (type(predictor.a) in _TOURNAMENT_COMPONENTS
                and type(predictor.b) in _TOURNAMENT_COMPONENTS)
    return type(predictor) in INDEX_FUNCTIONS
