"""Static/dynamic contract checking: simulation vs. proven facts.

:mod:`repro.analysis.predflow` proves per-branch facts from program
structure alone — guard provably false, guard resolved at least ``D``
instructions before fetch on every path, the set of compares whose
predicate write can reach a branch.  Every dynamic execution must obey
them, so they double as a machine-checked correctness oracle over the
whole trace/simulate stack: a dynamically-taken branch whose guard was
proven false, an SFP squash on a branch proven non-filterable, or a
guard resolved from a define the analysis says cannot reach it all mean
either the simulator or the analysis is wrong — and both are bugs worth
failing loudly over.

Three enforcement surfaces, one :class:`StaticContract`:

* :class:`ContractChecker` — an
  :class:`~repro.profiler.collector.EventCollector` validating sampled
  :class:`~repro.profiler.events.PredictionEvent` streams from any
  simulation core.  Disarmed it advertises a sampling rate no trace
  reaches, so the driver skips the event pass entirely (the profiler's
  own <3%-overhead trick; the contract benchmark gate holds it under
  5%).
* :func:`check_trace` — vectorised validation of *every* branch of a
  recorded trace (works for all cores, since the trace precedes them),
  including the define-stream reachability check.
* :func:`check_flags` — validates the per-branch
  :class:`~repro.sim.driver.BranchFlags` of a simulation (any core)
  against the static squashability verdicts.

:func:`run_contract_gate` bundles them into the differential gate the
tests sweep over all workloads × configs × cores.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.analysis.predflow import (
    SAT_DISTANCE,
    VERDICT_NEVER,
    VERDICT_UNDEFINED,
    VERDICT_UNGUARDED,
    BranchFacts,
    PredflowReport,
    analyze_executable,
)
from repro.isa.registers import P_TRUE
from repro.pipeline.availability import DEFAULT_DISTANCE
from repro.profiler.collector import EventCollector, SiteTable
from repro.profiler.events import AVAIL_NEVER, SFPDecision
from repro.profiler.spec import ProfileSpec

#: Violation kinds (stable names; tests match on them).
TAKEN_DEAD = "taken-dead-branch"
NOT_TAKEN_CONST = "not-taken-const-branch"
FILTERED_UNFILTERABLE = "sfp-filtered-unfilterable"
AVAIL_BELOW_MIN = "avail-below-static-min"
AVAIL_ABOVE_MAX = "avail-above-static-max"
UNDEFINED_GUARD = "guard-unexpectedly-undefined"
DEFINE_NOT_REACHING = "define-not-reaching"
DEFINE_NOT_RECORDED = "define-not-recorded"
UNKNOWN_SITE = "unknown-branch-site"

#: A sampling rate no finite trace reaches: the first sampled index
#: ``(-seed) % rate`` lies past the last branch, so a disarmed checker
#: receives no event and costs nothing per branch.
DISARMED_RATE = 1 << 60


class ContractError(AssertionError):
    """A dynamic event contradicted a statically proven fact."""

    def __init__(self, violations: List["ContractViolation"]):
        self.violations = violations
        shown = [str(v) for v in violations[:20]]
        if len(violations) > 20:
            shown.append(f"... ({len(violations) - 20} more)")
        super().__init__(
            f"{len(violations)} static/dynamic contract violation(s):\n"
            + "\n".join(shown)
        )


@dataclass(frozen=True)
class ContractViolation:
    """One dynamic observation contradicting a static fact."""

    kind: str
    pc: int  #: static branch site
    seq: int  #: dynamic branch-stream index (-1 when aggregated)
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} @ pc={self.pc} seq={self.seq}: {self.detail}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pc": self.pc,
            "seq": self.seq,
            "detail": self.detail,
        }


class StaticContract:
    """The static claims of one program, indexed for dynamic checking."""

    def __init__(
        self, report: PredflowReport, distance: int = DEFAULT_DISTANCE
    ):
        self.program = report.program
        self.distance = distance
        self.facts: Dict[int, BranchFacts] = report.by_pc()
        self.never_filterable = {
            pc
            for pc, facts in self.facts.items()
            if facts.verdict(distance)
            in (VERDICT_NEVER, VERDICT_UNDEFINED, VERDICT_UNGUARDED)
        }

    @classmethod
    def for_executable(
        cls,
        executable,
        name: str = "<program>",
        distance: int = DEFAULT_DISTANCE,
    ) -> "StaticContract":
        return cls(
            analyze_executable(executable, name=name, distance=distance),
            distance=distance,
        )

    # -- event-level checks ------------------------------------------------

    def check_event(self, event) -> List[ContractViolation]:
        """Violations implied by one :class:`PredictionEvent`."""
        facts = self.facts.get(event.pc)
        if facts is None:
            return [
                ContractViolation(
                    UNKNOWN_SITE,
                    event.pc,
                    event.seq,
                    "dynamic branch at a site the static analysis "
                    "never reached",
                )
            ]
        out: List[ContractViolation] = []
        if event.taken and facts.must_not_taken:
            out.append(
                ContractViolation(
                    TAKEN_DEAD,
                    event.pc,
                    event.seq,
                    f"taken, but guard p{facts.guard} was proven "
                    f"{facts.guard_value}",
                )
            )
        if not event.taken and facts.must_taken:
            out.append(
                ContractViolation(
                    NOT_TAKEN_CONST,
                    event.pc,
                    event.seq,
                    f"not taken, but guard p{facts.guard} was proven true",
                )
            )
        if (
            event.sfp != SFPDecision.NOT_FILTERED
            and event.pc in self.never_filterable
        ):
            out.append(
                ContractViolation(
                    FILTERED_UNFILTERABLE,
                    event.pc,
                    event.seq,
                    f"SFP filtered a branch proven "
                    f"{facts.verdict(self.distance)!r} at distance "
                    f"{self.distance}",
                )
            )
        if facts.guard != P_TRUE:
            if event.avail == AVAIL_NEVER:
                if facts.min_avail >= 0 and not facts.may_be_undefined:
                    out.append(
                        ContractViolation(
                            UNDEFINED_GUARD,
                            event.pc,
                            event.seq,
                            f"guard p{facts.guard} never resolved, but "
                            "a define reaches on every path",
                        )
                    )
            elif facts.min_avail < 0:
                out.append(
                    ContractViolation(
                        DEFINE_NOT_REACHING,
                        event.pc,
                        event.seq,
                        f"guard p{facts.guard} resolved dynamically "
                        "(avail="
                        f"{event.avail}), but no define reaches "
                        "statically",
                    )
                )
            else:
                if event.avail < facts.min_avail:
                    out.append(
                        ContractViolation(
                            AVAIL_BELOW_MIN,
                            event.pc,
                            event.seq,
                            f"avail {event.avail} below the static "
                            f"minimum {facts.min_avail}",
                        )
                    )
                if (
                    facts.max_avail < SAT_DISTANCE
                    and event.avail > facts.max_avail
                ):
                    out.append(
                        ContractViolation(
                            AVAIL_ABOVE_MAX,
                            event.pc,
                            event.seq,
                            f"avail {event.avail} above the static "
                            f"maximum {facts.max_avail}",
                        )
                    )
        return out


class ContractChecker(EventCollector):
    """EventCollector validating sampled events against the contract.

    ``armed=False`` keeps the checker installable but inert: it
    advertises :data:`DISARMED_RATE`, so no branch is ever sampled and
    the driver's event pass returns before doing any work (mirroring
    the no-collector path; the benchmark gate pins this under 5%).

    ``fail_fast`` raises :class:`ContractError` on the first violating
    event; otherwise violations accumulate and
    :meth:`raise_on_violations` reports them all.
    """

    def __init__(
        self,
        contract: StaticContract,
        spec: ProfileSpec = ProfileSpec(),
        sites: Optional[SiteTable] = None,
        armed: bool = True,
        fail_fast: bool = False,
    ):
        super().__init__(spec, sites)
        self.contract = contract
        self.armed = armed
        self.fail_fast = fail_fast
        self.events_checked = 0
        self.violations: List[ContractViolation] = []
        if not armed:
            # seed 1 puts the first sample at index rate-1 == 2**60-1,
            # beyond any finite trace (seed 0 would sample index 0).
            self.rate = DISARMED_RATE
            self.seed = 1

    def collect(self, event) -> None:
        self.events_checked += 1
        found = self.contract.check_event(event)
        if found:
            self.violations.extend(found)
            if self.fail_fast:
                raise ContractError(found)

    def close(self) -> None:
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter("analysis.contract.events").inc(
                self.events_checked
            )
            if self.violations:
                registry.counter("analysis.contract.violations").inc(
                    len(self.violations)
                )

    def raise_on_violations(self) -> None:
        if self.violations:
            raise ContractError(self.violations)


# ---------------------------------------------------------------------------
# Whole-trace and flags-level checks (all cores)
# ---------------------------------------------------------------------------


def check_trace(
    trace,
    contract: StaticContract,
    max_violations: int = 1000,
) -> List[ContractViolation]:
    """Validate every branch of ``trace`` against the static claims.

    Covers the taken/not-taken facts, the availability bounds, and the
    define-stream reachability claim (each resolved guard must trace
    back to a compare the analysis says can reach the branch).
    Vectorised per static site, so it is cheap enough to run as a gate
    over full traces.
    """
    violations: List[ContractViolation] = []
    b_pc = trace.b_pc
    b_idx = trace.b_idx
    b_taken = trace.b_taken
    b_guard_def = trace.b_guard_def
    d_idx = trace.d_idx
    d_pc = trace.d_pc

    def add(kind, pc, seqs, detail):
        for seq in np.atleast_1d(seqs)[:8]:
            if len(violations) < max_violations:
                violations.append(
                    ContractViolation(kind, int(pc), int(seq), detail)
                )

    for pc in np.unique(b_pc):
        facts = contract.facts.get(int(pc))
        sel = np.nonzero(b_pc == pc)[0]
        if facts is None:
            add(
                UNKNOWN_SITE,
                pc,
                sel,
                "dynamic branch at a site the static analysis never "
                "reached",
            )
            continue
        taken = b_taken[sel]
        if facts.must_not_taken and taken.any():
            add(
                TAKEN_DEAD,
                pc,
                sel[taken],
                f"taken, but guard p{facts.guard} was proven "
                f"{facts.guard_value}",
            )
        if facts.must_taken and (~taken).any():
            add(
                NOT_TAKEN_CONST,
                pc,
                sel[~taken],
                f"not taken, but guard p{facts.guard} was proven true",
            )
        if facts.guard == P_TRUE:
            continue
        guard_def = b_guard_def[sel]
        defined = guard_def >= 0
        avail = b_idx[sel] - guard_def
        if (
            (~defined).any()
            and facts.min_avail >= 0
            and not facts.may_be_undefined
        ):
            add(
                UNDEFINED_GUARD,
                pc,
                sel[~defined],
                f"guard p{facts.guard} never resolved, but a define "
                "reaches on every path",
            )
        if defined.any():
            if facts.min_avail < 0:
                add(
                    DEFINE_NOT_REACHING,
                    pc,
                    sel[defined],
                    f"guard p{facts.guard} resolved dynamically, but "
                    "no define reaches statically",
                )
            else:
                below = defined & (avail < facts.min_avail)
                if below.any():
                    add(
                        AVAIL_BELOW_MIN,
                        pc,
                        sel[below],
                        f"avail below the static minimum "
                        f"{facts.min_avail}",
                    )
                if facts.max_avail < SAT_DISTANCE:
                    above = defined & (avail > facts.max_avail)
                    if above.any():
                        add(
                            AVAIL_ABOVE_MAX,
                            pc,
                            sel[above],
                            f"avail above the static maximum "
                            f"{facts.max_avail}",
                        )
                # Each resolved guard must map to a define-stream row
                # produced by a compare that statically reaches here.
                gdef = guard_def[defined]
                rows = np.searchsorted(d_idx, gdef)
                in_range = rows < len(d_idx)
                rows_clipped = np.minimum(rows, max(len(d_idx) - 1, 0))
                matches = in_range & (
                    d_idx[rows_clipped] == gdef
                ) if len(d_idx) else np.zeros(len(gdef), dtype=bool)
                if (~matches).any():
                    add(
                        DEFINE_NOT_RECORDED,
                        pc,
                        sel[defined][~matches],
                        "resolved guard has no matching define-stream "
                        "row",
                    )
                if matches.any():
                    def_pcs = d_pc[rows_clipped[matches]]
                    allowed = np.isin(
                        def_pcs, np.asarray(facts.guard_defines)
                    )
                    if (~allowed).any():
                        bad = np.unique(def_pcs[~allowed]).tolist()
                        add(
                            DEFINE_NOT_REACHING,
                            pc,
                            sel[defined][matches][~allowed],
                            f"guard resolved by define(s) at {bad}, "
                            "which the analysis says cannot reach "
                            "this branch",
                        )
    if telemetry.enabled():
        registry = telemetry.get_registry()
        registry.counter("analysis.contract.branches").inc(
            int(trace.num_branches)
        )
        if violations:
            registry.counter("analysis.contract.violations").inc(
                len(violations)
            )
    return violations


def check_flags(
    trace,
    flags,
    contract: StaticContract,
    squash_known_true: bool = False,
    max_violations: int = 1000,
) -> List[ContractViolation]:
    """Validate a simulation's per-branch flags (any core).

    An SFP squash on a branch whose guard is provably never resolved
    ``distance`` back (or never guarded at all) contradicts the filter
    model; a squash asserting not-taken on a provably-true guard
    contradicts the value analysis.
    """
    violations: List[ContractViolation] = []
    squashed = np.asarray(flags.squashed, dtype=bool)
    seqs = np.nonzero(squashed)[0]
    for seq in seqs:
        pc = int(trace.b_pc[seq])
        facts = contract.facts.get(pc)
        if facts is None:
            kind, detail = UNKNOWN_SITE, (
                "squash at a site the static analysis never reached"
            )
        elif pc in contract.never_filterable:
            kind, detail = FILTERED_UNFILTERABLE, (
                f"SFP squashed a branch proven "
                f"{facts.verdict(contract.distance)!r} at distance "
                f"{contract.distance}"
            )
        elif facts.must_taken and not squash_known_true:
            kind, detail = NOT_TAKEN_CONST, (
                "SFP asserted not-taken, but the guard was proven true"
            )
        else:
            continue
        if len(violations) < max_violations:
            violations.append(ContractViolation(kind, pc, int(seq), detail))
    return violations


# ---------------------------------------------------------------------------
# The differential gate
# ---------------------------------------------------------------------------


@dataclass
class GateResult:
    """Outcome of one workload × config × core contract-gate run."""

    workload: str
    config: str
    core: str
    branches: int
    events_checked: int
    violations: List[ContractViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_on_violations(self) -> None:
        if self.violations:
            raise ContractError(self.violations)


def run_contract_gate(
    workload_name: str,
    hyperblocks: bool = True,
    core: str = "object",
    scale: str = "tiny",
    distance: int = DEFAULT_DISTANCE,
    predictor_name: str = "gshare",
) -> GateResult:
    """Replay one workload against its own static contract.

    Compiles the workload, runs predflow, records/loads the trace, then
    (1) checks the whole trace, (2) simulates with SFP+PGU and
    ``record_flags`` on the requested core and checks the flags, and
    (3) checks every event of that run with an armed
    :class:`ContractChecker` at sampling rate 1.
    """
    from repro.compiler import config as config_mod
    from repro.predictors import make_predictor
    from repro.predictors.pgu import PGUConfig
    from repro.predictors.sfp import SFPConfig
    from repro.sim.driver import SimOptions, simulate
    from repro.workloads import get_workload

    workload = get_workload(workload_name)
    config = (
        config_mod.HYPERBLOCK if hyperblocks else config_mod.BASELINE
    )
    executable = workload.compile(scale, config).executable
    contract = StaticContract.for_executable(
        executable,
        name=f"{workload_name}/{scale}",
        distance=distance,
    )
    trace = workload.trace(scale, hyperblocks=hyperblocks)

    violations = list(check_trace(trace, contract))
    options = SimOptions(
        distance=distance,
        sfp=SFPConfig(),
        pgu=PGUConfig(),
        record_flags=True,
    )
    checker = ContractChecker(contract, spec=ProfileSpec(rate=1))
    result = simulate(
        trace,
        make_predictor(predictor_name),
        options,
        collector=checker,
        core=core,
    )
    violations.extend(
        check_flags(
            trace,
            result.flags,
            contract,
            squash_known_true=options.sfp.squash_known_true,
        )
    )
    violations.extend(checker.violations)
    return GateResult(
        workload=workload_name,
        config="hyperblock" if hyperblocks else "baseline",
        core=core,
        branches=int(trace.num_branches),
        events_checked=checker.events_checked,
        violations=violations,
    )
