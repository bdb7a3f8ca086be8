"""Packed trace containers (numpy structure-of-arrays)."""

import enum
import io
import re
import zipfile
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.isa.opcodes import BranchKind


class BranchClass(enum.IntEnum):
    """Coarse classification used in per-class statistics."""

    NORMAL = 0  #: ordinary branch outside any predicated region
    REGION = 1  #: region-based branch (inside a hyperblock, guarded)
    LOOP = 2  #: loop back-edge


@dataclass
class TraceMeta:
    """Descriptive metadata carried alongside a trace."""

    workload: str = ""
    scale: str = ""
    compile_config: str = ""
    instructions: int = 0  #: total dynamic instructions executed
    return_value: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


class Trace:
    """A packed dynamic trace.

    Branch arrays (length = #dynamic branch events, fetch order):

    * ``b_pc``: static instruction index of the branch.
    * ``b_idx``: dynamic instruction index (time) of the branch.
    * ``b_taken``: actual outcome.
    * ``b_guard``: qualifying predicate register (0 = p0).
    * ``b_guard_def``: dynamic index of the most recent architectural
      write to the guard before this branch; ``-1`` if never written
      (p0 or an unwritten predicate).
    * ``b_kind``: :class:`~repro.isa.opcodes.BranchKind` value.
    * ``b_region``: region-based flag.
    * ``b_target``: static target index (``-1`` for returns).

    Predicate-define arrays (length = #architectural predicate writes,
    execution order):

    * ``d_pc``: static index of the defining compare.
    * ``d_idx``: dynamic instruction index of the write.
    * ``d_value``: the value written to the primary predicate target.
    * ``d_pred``: the primary predicate register written.
    """

    def __init__(
        self,
        b_pc: np.ndarray,
        b_idx: np.ndarray,
        b_taken: np.ndarray,
        b_guard: np.ndarray,
        b_guard_def: np.ndarray,
        b_kind: np.ndarray,
        b_region: np.ndarray,
        b_target: np.ndarray,
        d_pc: np.ndarray,
        d_idx: np.ndarray,
        d_value: np.ndarray,
        d_pred: np.ndarray,
        meta: TraceMeta,
    ):
        self.b_pc = b_pc
        self.b_idx = b_idx
        self.b_taken = b_taken
        self.b_guard = b_guard
        self.b_guard_def = b_guard_def
        self.b_kind = b_kind
        self.b_region = b_region
        self.b_target = b_target
        self.d_pc = d_pc
        self.d_idx = d_idx
        self.d_value = d_value
        self.d_pred = d_pred
        self.meta = meta

    @classmethod
    def from_lists(cls, *, b_pc, b_idx, b_taken, b_guard, b_guard_def,
                   b_kind, b_region, b_target, d_pc, d_idx, d_value, d_pred,
                   meta: TraceMeta) -> "Trace":
        """Build a trace from the recorder's plain lists."""
        return cls(
            b_pc=np.asarray(b_pc, dtype=np.int64),
            b_idx=np.asarray(b_idx, dtype=np.int64),
            b_taken=np.asarray(b_taken, dtype=bool),
            b_guard=np.asarray(b_guard, dtype=np.int16),
            b_guard_def=np.asarray(b_guard_def, dtype=np.int64),
            b_kind=np.asarray(b_kind, dtype=np.int8),
            b_region=np.asarray(b_region, dtype=bool),
            b_target=np.asarray(b_target, dtype=np.int64),
            d_pc=np.asarray(d_pc, dtype=np.int64),
            d_idx=np.asarray(d_idx, dtype=np.int64),
            d_value=np.asarray(d_value, dtype=bool),
            d_pred=np.asarray(d_pred, dtype=np.int16),
            meta=meta,
        )

    # -- basic facts ---------------------------------------------------------

    @property
    def num_branches(self) -> int:
        return int(self.b_pc.shape[0])

    @property
    def num_pdefs(self) -> int:
        return int(self.d_pc.shape[0])

    def branch_classes(self) -> np.ndarray:
        """Per-branch :class:`BranchClass` values."""
        classes = np.full(self.num_branches, BranchClass.NORMAL, dtype=np.int8)
        classes[self.b_kind == int(BranchKind.LOOP)] = BranchClass.LOOP
        classes[self.b_region] = BranchClass.REGION
        return classes

    def taken_rate(self) -> float:
        """Fraction of dynamic branches that were taken."""
        if self.num_branches == 0:
            return 0.0
        return float(self.b_taken.mean())

    def guard_known_false(self, distance: int) -> np.ndarray:
        """Mask of branches squashable by the SFP filter at distance ``D``.

        A branch is squashable iff its guard was architecturally written,
        the written value is false (so the branch *cannot* be taken), and
        the write is at least ``distance`` dynamic instructions old by
        fetch time.  A false guard implies the branch was not taken, so
        the predictor may assert not-taken with certainty.
        """
        resolved = (self.b_guard_def >= 0) & (
            self.b_idx - self.b_guard_def >= distance
        )
        # Guard value is reconstructed: a guarded branch is taken iff its
        # guard was true, so guard-false is exactly "not taken" *except*
        # that a true guard with a not-taken outcome cannot occur for BR
        # (br is taken iff qp).  Predicated CALL/RET behave identically.
        return resolved & (~self.b_taken) & (self.b_guard != 0)

    def guard_known(self, distance: int) -> np.ndarray:
        """Mask of branches whose guard value is visible at fetch."""
        return (self.b_guard_def >= 0) & (
            self.b_idx - self.b_guard_def >= distance
        )

    def summary(self) -> Dict[str, float]:
        """Headline counts used by the characterisation experiment."""
        classes = self.branch_classes()
        branches = max(self.num_branches, 1)
        return {
            "instructions": self.meta.instructions,
            "branches": self.num_branches,
            "pdefs": self.num_pdefs,
            "taken_rate": self.taken_rate(),
            "region_fraction": float(
                (classes == BranchClass.REGION).sum() / branches
            ),
            "loop_fraction": float(
                (classes == BranchClass.LOOP).sum() / branches
            ),
            "pdefs_per_100_instrs": (
                100.0 * self.num_pdefs / max(self.meta.instructions, 1)
            ),
        }

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Save to an ``.npz`` file (see :class:`~repro.trace.cache.TraceCache`).

        The file is the zip of ``.npy`` members that
        :func:`numpy.savez_compressed` writes, deflated at level 1
        instead of 6: about four times faster to write, 12–14%
        larger, and read back by :func:`numpy.load` (and :meth:`load`)
        the same way.
        """
        arrays = {
            "b_pc": self.b_pc,
            "b_idx": self.b_idx,
            "b_taken": self.b_taken,
            "b_guard": self.b_guard,
            "b_guard_def": self.b_guard_def,
            "b_kind": self.b_kind,
            "b_region": self.b_region,
            "b_target": self.b_target,
            "d_pc": self.d_pc,
            "d_idx": self.d_idx,
            "d_value": self.d_value,
            "d_pred": self.d_pred,
            "meta_workload": np.array(self.meta.workload),
            "meta_scale": np.array(self.meta.scale),
            "meta_config": np.array(self.meta.compile_config),
            "meta_instructions": np.array(self.meta.instructions),
            "meta_return": np.array(self.meta.return_value),
        }
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED,
                             compresslevel=1) as archive:
            for name, array in arrays.items():
                # Zip64 headers as numpy writes them (gh-10776).
                with archive.open(f"{name}.npy", "w",
                                  force_zip64=True) as member:
                    np.lib.format.write_array(member, np.asanyarray(array),
                                              allow_pickle=False)

    @classmethod
    def load(cls, path) -> "Trace":
        """Load a trace previously stored with :meth:`save` (or with
        :func:`numpy.savez_compressed`, as earlier versions did)."""
        with zipfile.ZipFile(path) as archive:
            data = {
                name[:-len(".npy")]: _read_npy(archive.read(name))
                for name in archive.namelist()
            }
        meta = TraceMeta(
            workload=str(data["meta_workload"]),
            scale=str(data["meta_scale"]),
            compile_config=str(data["meta_config"]),
            instructions=int(data["meta_instructions"]),
            return_value=int(data["meta_return"]),
        )
        return cls(
            b_pc=data["b_pc"],
            b_idx=data["b_idx"],
            b_taken=data["b_taken"],
            b_guard=data["b_guard"],
            b_guard_def=data["b_guard_def"],
            b_kind=data["b_kind"],
            b_region=data["b_region"],
            b_target=data["b_target"],
            d_pc=data["d_pc"],
            d_idx=data["d_idx"],
            d_value=data["d_value"],
            d_pred=data["d_pred"],
            meta=meta,
        )


#: The version-1.0 ``.npy`` header numpy writes for a C-ordered array of
#: at most one dimension, which is every member of a trace file.
_NPY_HEADER = re.compile(
    rb"\{'descr': '([<>|=][biufU]\d+)', 'fortran_order': False, "
    rb"'shape': \((\d*),?\), \} *\n"
)


def _read_npy(raw: bytes) -> np.ndarray:
    """Decode one ``.npy`` member.

    :func:`numpy.load` parses every header with :func:`ast.literal_eval`,
    a fifth of a trace load; the headers a trace file holds are matched
    here instead, and anything else goes through numpy's reader.
    """
    if raw[:8] == b"\x93NUMPY\x01\x00":
        end = 10 + int.from_bytes(raw[8:10], "little")
        match = _NPY_HEADER.fullmatch(raw, 10, end)
        if match:
            dtype = np.dtype(match.group(1).decode())
            shape = (int(match.group(2)),) if match.group(2) else ()
            count = shape[0] if shape else 1
            return np.frombuffer(
                raw, dtype=dtype, count=count, offset=end
            ).reshape(shape).copy()
    return np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
