"""In-memory trace recorder fed by the engine."""

from typing import Optional

import numpy as np

from repro.isa.opcodes import Opcode
from repro.trace.container import Trace, TraceMeta


class TraceRecorder:
    """Accumulates branch and predicate-define events in two flat lists.

    Per event only the dynamic fields are kept: :attr:`branches` holds
    ``pc, dynamic index, taken, guard-define index`` for each branch and
    :attr:`pdefs` holds ``pc, dynamic index, value`` for each predicate
    define.  The engine appends to them directly after :meth:`attach`;
    :meth:`finish` then gathers each branch's guard, kind, region flag
    and target, and each define's predicate register, from per-pc tables
    of the attached executable.

    Direct callers use :meth:`record_branch` and :meth:`record_pdef`,
    which take every field; a recorder is fed one way or the other.
    """

    def __init__(self):
        self.branches = []
        self.pdefs = []
        self._executable = None
        #: static fields passed to record_branch / record_pdef
        self._branch_static = []
        self._pdef_static = []

    def attach(self, executable):
        """Bind ``executable``'s per-pc tables; returns the
        ``(branches, pdefs)`` lists the engine appends to."""
        if self._executable not in (None, executable):
            raise ValueError("recorder is attached to another executable")
        self._executable = executable
        return self.branches, self.pdefs

    def record_branch(
        self, pc, dyn_idx, taken, guard, guard_def_idx, kind, region_based,
        target,
    ) -> None:
        """One dynamic branch event, every field given."""
        self.branches += (pc, dyn_idx, taken, guard_def_idx)
        self._branch_static += (guard, kind, region_based, target)

    def record_pdef(self, pc, dyn_idx, value, pred) -> None:
        """One architectural predicate write, every field given."""
        self.pdefs += (pc, dyn_idx, value)
        self._pdef_static.append(pred)

    def finish(self, meta: Optional[TraceMeta] = None) -> Trace:
        """Pack the accumulated events into a :class:`Trace`."""
        b_pc, b_idx, b_taken, b_guard_def = _columns(self.branches, 4)
        d_pc, d_idx, d_value = _columns(self.pdefs, 3)
        if self._executable is None:
            b_guard, b_kind, b_region, b_target = _columns(
                self._branch_static, 4
            )
            d_pred = np.asarray(self._pdef_static, dtype=np.int64)
        elif self._branch_static or self._pdef_static:
            raise ValueError(
                "recorder was fed by both the engine and direct calls"
            )
        else:
            code = self._executable.code
            b_guard = np.array([i.qp for i in code], dtype=np.int16)[b_pc]
            b_kind = np.array([i.kind for i in code], dtype=np.int8)[b_pc]
            b_region = np.array(
                [i.region_based for i in code], dtype=bool
            )[b_pc]
            b_target = np.array(
                [-1 if i.op == Opcode.RET or not isinstance(i.target, int)
                 else i.target for i in code],
                dtype=np.int64,
            )[b_pc]
            d_pred = np.array([i.pd1 for i in code], dtype=np.int16)[d_pc]
        return Trace.from_lists(
            b_pc=b_pc,
            b_idx=b_idx,
            b_taken=b_taken,
            b_guard=b_guard,
            b_guard_def=b_guard_def,
            b_kind=b_kind,
            b_region=b_region,
            b_target=b_target,
            d_pc=d_pc,
            d_idx=d_idx,
            d_value=d_value,
            d_pred=d_pred,
            meta=meta or TraceMeta(),
        )


def _columns(flat, width):
    """Split a flat event list into ``width`` int64 columns."""
    return [np.array(flat[k::width], dtype=np.int64) for k in range(width)]
