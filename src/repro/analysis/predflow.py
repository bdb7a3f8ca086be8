"""Predicate-flow analysis: per-branch static facts for SFP and PGU.

The paper's mechanisms consume *dynamic* predicate facts — the squash
false-path filter (SFP) needs the guard resolved at least ``D``
instructions before fetch, predicate global update (PGU) shifts guard
defines into history — yet both are grounded in *static* program
structure.  This module computes that structure per function, for every
branch-trace event site:

* the set of predicate defines that can reach it (the static
  PGU-visible context, :class:`~repro.analysis.rules.ReachingPredDefs`);
* bounds on the guard's availability distance at fetch
  (:class:`GuardDistance`), giving a static SFP-filterability verdict
  and a site-coverage upper bound;
* the guard's abstract value on every feasible path (an edge-refined
  constant lattice per predicate register, with complement propagation
  for NORMAL/UNC compare pairs), giving must-not-taken /
  must-taken facts — a statically squashable branch is exactly one
  whose guard is provably false.

Soundness leans on the interpreter's machine semantics
(:mod:`repro.engine.interpreter`): the predicate file is per-frame
(fresh all-false file on CALL, restored on RET), ``unc`` compares write
both targets even under a false qualifying predicate, ``and``/``or``
compares can only lower/raise their targets, and a branch is taken iff
its qualifying predicate is true.  Distances saturate at
:data:`SAT_DISTANCE` ("at least this far"); a ``CALL`` saturates upper
bounds because the callee's dynamic length is unknown, while lower
bounds stay valid (the callee only adds instructions).

The facts feed three consumers: verifier rules ``RPA012``–``RPA017``
(:func:`check_predflow_function`), the ``repro analyze`` CLI report
(:class:`PredflowReport`), and the static/dynamic contract checker in
:mod:`repro.analysis.contract`.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.analysis.cfg import FunctionCFG, falls_through, function_slices
from repro.analysis.dataflow import ForwardProblem, solve_forward
from repro.analysis.diagnostics import LintReport
from repro.analysis.rules import ReachingPredDefs
from repro.compiler.dominance import dominators
from repro.isa.opcodes import CmpType, Opcode
from repro.isa.program import Executable
from repro.isa.registers import NUM_PRED, P_TRUE
from repro.pipeline.availability import DEFAULT_DISTANCE

#: Distances saturate here: "at least this many instructions back".
SAT_DISTANCE = 1 << 10

#: Version stamp of the ``repro analyze --json`` payload.
ANALYZE_SCHEMA_VERSION = 1

#: Abstract guard values at a branch.
GUARD_TRUE = "true"
GUARD_FALSE = "false"
GUARD_UNKNOWN = "unknown"
GUARD_UNREACHABLE = "unreachable"

#: Static SFP-filterability verdicts.
VERDICT_ALWAYS = "always"  #: guard resolved >= D back on every path
VERDICT_SOMETIMES = "sometimes"
VERDICT_NEVER = "never"  #: guard always resolved < D back
VERDICT_UNDEFINED = "undefined"  #: no reaching define on any path
VERDICT_UNGUARDED = "unguarded"  #: qp == p0

VERDICTS = (
    VERDICT_ALWAYS,
    VERDICT_SOMETIMES,
    VERDICT_NEVER,
    VERDICT_UNDEFINED,
    VERDICT_UNGUARDED,
)

_BRANCH_OPS = (Opcode.BR, Opcode.CALL, Opcode.RET)


class _DomOrder:
    """Adapter presenting a :class:`FunctionCFG` to
    :func:`repro.compiler.dominance.dominators`, which expects
    ``reachable()`` to return an *ordered* list with the entry first."""

    def __init__(self, cfg: FunctionCFG):
        self.blocks = cfg.blocks
        self._order = cfg.reverse_postorder()

    def reachable(self) -> List[int]:
        return self._order


# ---------------------------------------------------------------------------
# Predicate-value lattice
#
# A state is ``None`` (no feasible path reaches here) or a pair of int
# bitmasks ``(known, values)``: bit ``p`` of ``known`` set means predicate
# ``p`` has the same value on every feasible path, and that value is bit
# ``p`` of ``values``.  Machine truth at function entry: the activation
# installs a fresh predicate file, all false except the hardwired p0.
# ---------------------------------------------------------------------------

def _all_known_entry() -> Tuple[int, int]:
    return ((1 << NUM_PRED) - 1, 1 << P_TRUE)


def _value_of(state: Optional[Tuple[int, int]], pred: int) -> Optional[int]:
    """The constant value of ``pred`` in ``state``: 1, 0 or None."""
    if pred == P_TRUE:
        return 1
    if state is None:
        return None
    known, values = state
    if (known >> pred) & 1:
        return (values >> pred) & 1
    return None


def _vjoin(a, b):
    """Join two value states (``None`` = unreachable is the identity)."""
    if a is None:
        return b
    if b is None:
        return a
    known_a, val_a = a
    known_b, val_b = b
    known = known_a & known_b & ~(val_a ^ val_b)
    return (known, val_a & known)


def _vtransfer(state, instr):
    """Value state after executing ``instr``.

    Mirrors the interpreter: only ``CMP`` writes predicates, ``unc``
    writes both targets even under a false guard (false/false), and
    ``and``/``or`` are one-directional read-modify-writes.
    """
    if state is None:
        return None
    if instr.op is not Opcode.CMP:
        return state
    targets = [p for p in (instr.pd1, instr.pd2) if p > 0]
    if not targets:
        return state
    known, values = state
    mask = 0
    for p in targets:
        mask |= 1 << p
    guard_value = _value_of(state, instr.qp)
    ctype = instr.ctype
    if ctype is CmpType.UNC:
        if guard_value == 0:
            # unc under a false guard architecturally clears both targets
            return (known | mask, values & ~mask)
        return (known & ~mask, values & ~mask)
    if guard_value == 0:
        return state  # normal/and/or under a false guard write nothing
    if ctype is CmpType.NORMAL:
        return (known & ~mask, values & ~mask)
    keep = 0
    if ctype is CmpType.AND:
        # and-type can only lower targets: known-false stays known-false
        for p in targets:
            if (known >> p) & 1 and not (values >> p) & 1:
                keep |= 1 << p
    else:  # CmpType.OR can only raise targets: known-true survives
        for p in targets:
            if (known >> p) & 1 and (values >> p) & 1:
                keep |= 1 << p
    drop = mask & ~keep
    return (known & ~drop, values & ~drop)


def _refine(state, pred: int, value: int, partner: int):
    """Assume ``pred == value`` on an edge (and its complement partner,
    if any).  Returns ``None`` when the assumption contradicts a known
    value — the edge is infeasible."""
    if state is None or pred == P_TRUE:
        return state
    known, values = state
    for p, v in ((pred, value), (partner, 1 - value)):
        if p <= 0:
            continue
        bit = 1 << p
        if known & bit and ((values >> p) & 1) != v:
            return None
        known |= bit
        values = (values | bit) if v else (values & ~bit)
    return (known, values)


def _complement_partner(code, defs_state, pred: int) -> int:
    """The predicate provably holding ``not pred``, or ``-1``.

    Exactly when every path's last write of both registers is one
    always-executed ``normal``/``unc`` compare writing the
    ``(pd1, pd2)`` complement pair.
    """
    defs = defs_state.get(pred) if defs_state else None
    if not defs or len(defs) != 1:
        return -1
    (d,) = defs
    instr = code[d]
    if instr.op is not Opcode.CMP or instr.qp != P_TRUE:
        return -1
    if instr.ctype not in (CmpType.NORMAL, CmpType.UNC):
        return -1
    if instr.pd1 <= 0 or instr.pd2 <= 0 or instr.pd1 == instr.pd2:
        return -1
    if pred == instr.pd1:
        partner = instr.pd2
    elif pred == instr.pd2:
        partner = instr.pd1
    else:
        return -1
    if defs_state.get(partner) != defs:
        return -1
    return partner


def _solve_values(cfg: FunctionCFG, reach_in: Dict[int, dict]) -> Dict[int, object]:
    """Edge-refined value fixpoint: reachable block index -> in-state.

    Classic optimistic propagation in the SCCP style: per-edge out
    states start unreachable (``None``) and conditional terminators
    refine the qualifying predicate (plus its complement partner) on
    the taken/fall-through edges; a refinement contradicting a known
    value marks the edge infeasible.
    """
    code = cfg.executable.code
    order = cfg.reverse_postorder()
    if not order:
        return {}
    entry = order[0]
    reach = ReachingPredDefs()

    # Reaching-def state just before each block's terminator, for
    # complement-pair discovery (fixed; independent of values).
    term_reach: Dict[int, dict] = {}
    for index in order:
        block = cfg.blocks[index]
        state = reach_in[index]
        for pos in range(block.start, block.end - 1):
            state = reach.transfer(state, pos, code[pos])
        term_reach[index] = state

    in_vals: Dict[int, object] = {index: None for index in order}
    edge_out: Dict[Tuple[int, int], object] = {}
    reachable = set(order)
    pending = list(order)
    queued = set(order)
    fuel = 64 * (len(order) + 1) * (len(order) + 1)
    while pending:
        fuel -= 1
        if fuel < 0:  # defensive: degrade to "only p0 known"
            return {index: (1 << P_TRUE, 1 << P_TRUE) for index in order}
        index = pending.pop(0)
        queued.discard(index)
        block = cfg.blocks[index]

        state = _all_known_entry() if index == entry else None
        for pred_block in block.predecessors:
            if pred_block in reachable:
                state = _vjoin(state, edge_out.get((pred_block, index)))
        in_vals[index] = state

        out = state
        for pos in range(block.start, block.end):
            out = _vtransfer(out, code[pos])

        term = code[block.end - 1]
        succ_states = {succ: out for succ in block.successors}
        if out is not None and term.qp != P_TRUE and term.op in (
            Opcode.BR,
            Opcode.RET,
        ):
            partner = _complement_partner(code, term_reach[index], term.qp)
            taken_succ = fall_succ = None
            if term.op is Opcode.BR:
                target = term.target
                if isinstance(target, int) and cfg.slice.contains(target):
                    taken_succ = cfg.block_at(target).index
            if falls_through(term) and block.end < cfg.slice.end:
                fall_succ = cfg.block_at(block.end).index
            # The state *before* the terminator decides feasibility; the
            # terminator itself writes nothing, so ``out`` is it.
            if taken_succ != fall_succ:
                if taken_succ in succ_states:
                    succ_states[taken_succ] = _refine(out, term.qp, 1, partner)
                if fall_succ in succ_states:
                    succ_states[fall_succ] = _refine(out, term.qp, 0, partner)

        for succ, succ_state in succ_states.items():
            if succ not in reachable:
                continue
            key = (index, succ)
            if key in edge_out and edge_out[key] == succ_state:
                continue
            edge_out[key] = succ_state
            if succ not in queued:
                queued.add(succ)
                pending.append(succ)
    return in_vals


# ---------------------------------------------------------------------------
# Guard availability distance
# ---------------------------------------------------------------------------


class GuardDistance(ForwardProblem):
    """Per-predicate ``(min, max, may_be_undefined)`` distance since the
    last reaching define, in fetched instructions.

    A predicate absent from the state was never defined on any path.
    Entries are exact on call-free paths; a ``CALL`` saturates the upper
    bound (the callee's dynamic length is unknown) and leaves the lower
    bound valid (callees only add fetched instructions).  Weak defines
    (guarded ``normal``, ``and``/``or``) may not fire dynamically, so
    they only lower the minimum; strong defines (``unc``, ``normal``
    under p0) reset both bounds.
    """

    def boundary(self):
        return {}

    def top(self):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        merged = {}
        for pred in a.keys() | b.keys():
            entry_a = a.get(pred)
            entry_b = b.get(pred)
            if entry_a is None:
                merged[pred] = (entry_b[0], entry_b[1], True)
            elif entry_b is None:
                merged[pred] = (entry_a[0], entry_a[1], True)
            else:
                merged[pred] = (
                    min(entry_a[0], entry_b[0]),
                    max(entry_a[1], entry_b[1]),
                    entry_a[2] or entry_b[2],
                )
        return merged

    def transfer(self, state, pos, instr):
        if state is None:
            return None
        out = {
            pred: (
                min(lo + 1, SAT_DISTANCE),
                min(hi + 1, SAT_DISTANCE),
                undef,
            )
            for pred, (lo, hi, undef) in state.items()
        }
        if instr.op is Opcode.CMP:
            targets = [p for p in (instr.pd1, instr.pd2) if p > 0]
            strong = instr.ctype is CmpType.UNC or (
                instr.ctype is CmpType.NORMAL and instr.qp == P_TRUE
            )
            for pred in targets:
                if strong:
                    out[pred] = (1, 1, False)
                else:
                    prev = out.get(pred)
                    if prev is None:
                        out[pred] = (1, 1, True)
                    else:
                        out[pred] = (1, prev[1], prev[2])
        elif instr.op is Opcode.CALL:
            out = {
                pred: (lo, SAT_DISTANCE, undef)
                for pred, (lo, hi, undef) in out.items()
            }
        return out


# ---------------------------------------------------------------------------
# Per-branch facts
# ---------------------------------------------------------------------------


@dataclass
class BranchFacts:
    """Everything the analysis proves about one static branch site."""

    pc: int  #: absolute index in the linked executable
    function: str
    index: int  #: function-local index
    opcode: str
    region: int
    region_based: bool
    guard: int  #: qualifying predicate register
    guard_value: str  #: "true" | "false" | "unknown" | "unreachable"
    min_avail: int  #: -1 when the guard is never defined
    max_avail: int  #: SAT_DISTANCE means "unbounded"; -1 never defined
    may_be_undefined: bool  #: some path carries no define of the guard
    reaching_defines: Tuple[int, ...]  #: all CMP defines reaching (any pred)
    guard_defines: Tuple[int, ...]  #: defines whose write of the guard reaches
    in_region_defines: Tuple[int, ...]  #: guard defines inside this region
    complement_only: bool  #: every reaching define writes guard as pd2
    dominated_by_define: bool  #: some guard define dominates this branch

    @property
    def must_not_taken(self) -> bool:
        """Guard provably false (or site on no feasible path): the
        branch is statically squashable."""
        return self.guard_value in (GUARD_FALSE, GUARD_UNREACHABLE)

    @property
    def must_taken(self) -> bool:
        return self.guard_value == GUARD_TRUE

    def verdict(self, distance: int) -> str:
        """Static SFP-filterability at availability distance ``D``."""
        if self.guard == P_TRUE:
            return VERDICT_UNGUARDED
        if self.min_avail < 0:
            return VERDICT_UNDEFINED
        if self.max_avail < distance:
            return VERDICT_NEVER
        if self.min_avail >= distance and not self.may_be_undefined:
            return VERDICT_ALWAYS
        return VERDICT_SOMETIMES

    def to_dict(self, distance: int = DEFAULT_DISTANCE) -> dict:
        return {
            "pc": self.pc,
            "function": self.function,
            "index": self.index,
            "opcode": self.opcode,
            "region": self.region,
            "region_based": self.region_based,
            "guard": self.guard,
            "guard_value": self.guard_value,
            "min_avail": self.min_avail,
            "max_avail": self.max_avail,
            "may_be_undefined": self.may_be_undefined,
            "reaching_defines": list(self.reaching_defines),
            "guard_defines": list(self.guard_defines),
            "in_region_defines": list(self.in_region_defines),
            "complement_only": self.complement_only,
            "dominated_by_define": self.dominated_by_define,
            "must_not_taken": self.must_not_taken,
            "must_taken": self.must_taken,
            "sfp_verdict": self.verdict(distance),
        }


#: Field names and JSON types of :meth:`BranchFacts.to_dict` — the
#: contract the schema checker validates branch records against.
BRANCH_FIELDS = {
    "pc": int, "function": str, "index": int, "opcode": str,
    "region": int, "region_based": bool, "guard": int, "guard_value": str,
    "min_avail": int, "max_avail": int, "may_be_undefined": bool,
    "reaching_defines": list, "guard_defines": list,
    "in_region_defines": list, "complement_only": bool,
    "dominated_by_define": bool, "must_not_taken": bool,
    "must_taken": bool, "sfp_verdict": str,
}


@dataclass
class FunctionFacts:
    """All branch facts of one function."""

    name: str
    start: int
    end: int
    branches: List[BranchFacts] = field(default_factory=list)


@dataclass
class PredflowReport:
    """Predicate-flow facts for one linked program."""

    program: str
    distance: int
    functions: List[FunctionFacts] = field(default_factory=list)

    def branches(self):
        for function in self.functions:
            yield from function.branches

    def by_pc(self) -> Dict[int, BranchFacts]:
        return {facts.pc: facts for facts in self.branches()}

    def summary(self) -> dict:
        branches = list(self.branches())
        region = [b for b in branches if b.region_based]
        verdicts = {v: 0 for v in VERDICTS}
        for b in branches:
            verdicts[b.verdict(self.distance)] += 1
        filterable_region = sum(
            1
            for b in region
            if b.verdict(self.distance) in (VERDICT_ALWAYS, VERDICT_SOMETIMES)
        )
        defines = {d for b in branches for d in b.reaching_defines}
        return {
            "functions": len(self.functions),
            "branches": len(branches),
            "region_branches": len(region),
            "must_not_taken": sum(1 for b in branches if b.must_not_taken),
            "must_taken": sum(1 for b in branches if b.must_taken),
            "complement_only": sum(
                1 for b in branches if b.complement_only
            ),
            "define_sites": len(defines),
            "distance": self.distance,
            "verdicts": verdicts,
            # Upper bound on the fraction of region-branch *sites* SFP
            # could ever squash at this distance: a site whose guard is
            # provably resolved too late can never be filtered.
            "sfp_site_coverage_bound": (
                filterable_region / len(region) if region else 0.0
            ),
        }

    def to_dict(self) -> dict:
        return {
            "schema": ANALYZE_SCHEMA_VERSION,
            "program": self.program,
            "distance": self.distance,
            "summary": self.summary(),
            "functions": [
                {
                    "name": function.name,
                    "start": function.start,
                    "end": function.end,
                    "branches": [
                        b.to_dict(self.distance) for b in function.branches
                    ],
                }
                for function in self.functions
            ],
        }


# ---------------------------------------------------------------------------
# Analysis driver
# ---------------------------------------------------------------------------


def analyze_cfg(
    executable: Executable,
    cfg: FunctionCFG,
    distance: int = DEFAULT_DISTANCE,
) -> FunctionFacts:
    """Compute branch facts for one function."""
    code = executable.code
    slice_ = cfg.slice
    facts = FunctionFacts(name=slice_.name, start=slice_.start, end=slice_.end)
    if len(slice_) == 0:
        return facts

    reach = ReachingPredDefs()
    reach_in = solve_forward(cfg, reach)
    dist = GuardDistance()
    dist_in = solve_forward(cfg, dist)
    vals_in = _solve_values(cfg, reach_in)
    dom = dominators(_DomOrder(cfg))

    for index in sorted(reach_in):
        block = cfg.blocks[index]
        reach_state = reach_in[index]
        dist_state = dist_in[index]
        val_state = vals_in.get(index)
        for pos in range(block.start, block.end):
            instr = code[pos]
            if instr.is_branch_event():
                facts.branches.append(
                    _branch_facts(
                        code,
                        cfg,
                        dom,
                        slice_,
                        pos,
                        instr,
                        reach_state,
                        dist_state,
                        val_state,
                    )
                )
            reach_state = reach.transfer(reach_state, pos, instr)
            dist_state = dist.transfer(dist_state, pos, instr)
            val_state = _vtransfer(val_state, instr)
    return facts


def _branch_facts(
    code,
    cfg: FunctionCFG,
    dom: Dict[int, set],
    slice_,
    pos: int,
    instr,
    reach_state,
    dist_state,
    val_state,
) -> BranchFacts:
    guard = instr.qp
    reach_state = reach_state or {}
    all_defs = sorted(
        {d for defs in reach_state.values() for d in defs}
    )
    guard_defs = sorted(reach_state.get(guard, frozenset()))
    in_region = (
        tuple(d for d in guard_defs if code[d].region == instr.region)
        if instr.region >= 0
        else ()
    )

    if val_state is None:
        guard_value = GUARD_UNREACHABLE
    else:
        value = _value_of(val_state, guard)
        if value is None:
            guard_value = GUARD_UNKNOWN
        else:
            guard_value = GUARD_TRUE if value else GUARD_FALSE

    entry = (dist_state or {}).get(guard)
    if entry is None:
        min_avail, max_avail, may_undef = -1, -1, True
    else:
        min_avail, max_avail, may_undef = entry

    block_index = cfg.block_at(pos).index
    dominating = dom.get(block_index, set())
    dominated_by_define = any(
        (cfg.block_at(d).index == block_index and d < pos)
        or (
            cfg.block_at(d).index != block_index
            and cfg.block_at(d).index in dominating
        )
        for d in guard_defs
    )

    return BranchFacts(
        pc=pos,
        function=slice_.name,
        index=pos - slice_.start,
        opcode=instr.op.name.lower(),
        region=instr.region,
        region_based=instr.region_based,
        guard=guard,
        guard_value=guard_value,
        min_avail=min_avail,
        max_avail=max_avail,
        may_be_undefined=may_undef,
        reaching_defines=tuple(all_defs),
        guard_defines=tuple(guard_defs),
        in_region_defines=in_region,
        complement_only=bool(guard_defs)
        and all(code[d].pd1 != guard for d in guard_defs),
        dominated_by_define=dominated_by_define,
    )


def analyze_executable(
    executable: Executable,
    name: str = "<program>",
    distance: int = DEFAULT_DISTANCE,
) -> PredflowReport:
    """Run the predicate-flow analysis over every function."""
    report = PredflowReport(program=name, distance=distance)
    with telemetry.span("predflow", program=name):
        for slice_ in function_slices(executable):
            if len(slice_) == 0:
                continue
            cfg = FunctionCFG(executable, slice_)
            report.functions.append(analyze_cfg(executable, cfg, distance))
        if telemetry.enabled():
            registry = telemetry.get_registry()
            summary = report.summary()
            registry.counter("analysis.predflow.programs").inc()
            registry.counter("analysis.predflow.functions").inc(
                summary["functions"]
            )
            registry.counter("analysis.predflow.branches").inc(
                summary["branches"]
            )
            registry.counter("analysis.predflow.region_branches").inc(
                summary["region_branches"]
            )
            registry.counter("analysis.predflow.must_not_taken").inc(
                summary["must_not_taken"]
            )
            registry.counter("analysis.predflow.must_taken").inc(
                summary["must_taken"]
            )
            for verdict, count in summary["verdicts"].items():
                if count:
                    registry.counter(
                        f"analysis.predflow.verdict.{verdict}"
                    ).inc(count)
    return report


# ---------------------------------------------------------------------------
# Verifier rules RPA012 .. RPA017
# ---------------------------------------------------------------------------


def check_predflow_function(
    executable: Executable,
    facts: FunctionFacts,
    report: LintReport,
    distance: int = DEFAULT_DISTANCE,
) -> None:
    """Fire the predicate-flow rules over one function's facts.

    All six rules scope to *region-based* branches whose guard has a
    reaching define inside the branch's own region — unguarded,
    region-less, undefined-guard or out-of-region-guard branches are
    RPA002/RPA003/RPA004 territory and stay single-rule there.
    """
    code = executable.code

    def add(rule_id: str, branch: BranchFacts, message: str) -> None:
        report.add(
            rule_id,
            branch.function,
            branch.index,
            branch.pc,
            message,
            instruction=code[branch.pc],
        )

    for branch in facts.branches:
        instr = code[branch.pc]
        if not (instr.region_based and instr.op in _BRANCH_OPS):
            continue
        if branch.guard == P_TRUE or instr.region < 0:
            continue
        if not branch.guard_defines or not branch.in_region_defines:
            continue
        local = facts.start

        first_in = min(branch.in_region_defines)
        clobbers = [
            d
            for d in branch.guard_defines
            if code[d].region != instr.region
            and first_in < d < branch.pc
        ]
        if clobbers:
            add(
                "RPA012",
                branch,
                f"guard p{branch.guard} is redefined outside "
                f"region {instr.region} (at "
                f"{[d - local for d in clobbers]}) between its "
                f"in-region define at {first_in - local} and this "
                "branch",
            )
        elif first_in > branch.pc:
            add(
                "RPA017",
                branch,
                f"every in-region define of guard p{branch.guard} "
                f"(at {[d - local for d in branch.in_region_defines]}) "
                "sits after this branch: the guard is loop-carried "
                "and the branch consumes the previous iteration's "
                "value",
            )

        if branch.must_not_taken:
            reason = (
                "no feasible path reaches this branch"
                if branch.guard_value == GUARD_UNREACHABLE
                else f"guard p{branch.guard} is provably false on every "
                "feasible path"
            )
            add(
                "RPA013",
                branch,
                f"statically dead region exit: {reason}, so the branch "
                "can never be taken",
            )
        elif branch.must_taken:
            add(
                "RPA014",
                branch,
                f"region branch always taken: guard p{branch.guard} is "
                "provably true on every feasible path",
            )

        if branch.verdict(distance) == VERDICT_NEVER:
            add(
                "RPA015",
                branch,
                f"guard p{branch.guard} resolves at most "
                f"{branch.max_avail} instruction(s) before fetch on "
                f"every path — below availability distance {distance}, "
                "so SFP can never filter this branch",
            )

        if branch.complement_only:
            add(
                "RPA016",
                branch,
                f"guard p{branch.guard} is only ever written as a "
                "complement (pd2) target, so its defines never enter "
                "the PGU-visible define stream",
            )
