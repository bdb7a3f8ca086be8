"""Tests for the static/dynamic contract checker (``repro.analysis.contract``).

Two halves:

* deterministic unit tests — hand-built traces, flags and events
  replayed against a tiny program with fully known static facts, plus
  seeded *faults* (a tampered outcome, a bogus guard resolution, a
  squash on a provably unfilterable branch) that must each be detected
  under its stable violation kind;
* the differential acceptance gate — every bundled workload, both
  compile configs, all three simulation cores, replayed against their
  own static contracts with zero violations, the rate-1 checker seeing
  every branch on every core; a fail-fast checker stops every core at
  the first violation the branch-by-branch oracle
  (``tests/driver_oracle.py``) stops at.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import (
    ContractChecker,
    ContractError,
    ContractViolation,
    StaticContract,
    run_contract_gate,
)
from repro.analysis.contract import (
    AVAIL_ABOVE_MAX,
    AVAIL_BELOW_MIN,
    DEFINE_NOT_REACHING,
    DEFINE_NOT_RECORDED,
    DISARMED_RATE,
    FILTERED_UNFILTERABLE,
    NOT_TAKEN_CONST,
    TAKEN_DEAD,
    UNDEFINED_GUARD,
    UNKNOWN_SITE,
    check_flags,
    check_trace,
)
from repro.compiler.config import HYPERBLOCK
from repro.isa import ProgramBuilder, Relation
from repro.pipeline.availability import squash_mask
from repro.predictors import PGUConfig, SFPConfig, make_predictor
from repro.profiler.events import (
    AVAIL_NEVER,
    PGUPath,
    PredictionEvent,
    SFPDecision,
)
from repro.profiler.spec import ProfileSpec
from repro.sim.driver import SimOptions, simulate
from repro.workloads import get_workload, workload_names
from tests.driver_oracle import oracle_simulate


def contract_program():
    """A program whose static facts are known exactly.

    pc 6: ``br qp=1`` — guard unknown, avail (5, 5), verdict always.
    pc 7: same branch on the fall-through — p1 proven false
          (must_not_taken), avail (6, 6).
    pc 10: ``br qp=4`` one instruction after its compare — avail
          (1, 1), verdict never (never_filterable at distance 4).
    """
    pb = ProgramBuilder()
    f = pb.function("main")
    f.movi(1, 3)
    f.cmp(Relation.GT, 1, 2, ra=1, imm=0)
    for _ in range(4):
        f.addi(3, 1, 0)
    f.br("done", qp=1)
    f.br("done", qp=1)
    f.halt()
    f.label("done")
    f.cmp(Relation.LT, 4, 5, ra=1, imm=0)
    f.br("end", qp=4)
    f.halt()
    f.label("end")
    f.halt()
    return pb.link()


def must_taken_program():
    """pc 8 is a branch whose guard is proven true (taken-edge only),
    resolved 6 instructions back so it stays SFP-filterable."""
    pb = ProgramBuilder()
    f = pb.function("main")
    f.movi(1, 3)
    f.cmp(Relation.GT, 1, 2, ra=1, imm=0)
    for _ in range(4):
        f.addi(3, 1, 0)
    f.br("taken", qp=1)
    f.halt()
    f.label("taken")
    f.br("out", qp=1)
    f.halt()
    f.label("out")
    f.halt()
    return pb.link()


@pytest.fixture(scope="module")
def contract():
    return StaticContract.for_executable(contract_program(), name="t")


@pytest.fixture(scope="module")
def must_taken_contract():
    return StaticContract.for_executable(must_taken_program(), name="t")


def make_event(
    pc,
    seq=0,
    taken=False,
    avail=AVAIL_NEVER,
    sfp=SFPDecision.NOT_FILTERED,
    guard=1,
):
    return PredictionEvent(
        seq=seq,
        pc=pc,
        branch_class=0,
        region_based=False,
        guard=guard,
        avail=avail,
        sfp=sfp,
        pgu=PGUPath.OFF,
        pgu_bits=0,
        predicted=False,
        taken=taken,
    )


def kinds(violations):
    return [v.kind for v in violations]


class TestCheckEvent:
    def test_clean_event_passes(self, contract):
        assert contract.check_event(make_event(6, avail=5)) == []

    def test_taken_dead_branch(self, contract):
        found = contract.check_event(make_event(7, taken=True, avail=6))
        assert kinds(found) == [TAKEN_DEAD]
        assert "proven false" in found[0].detail

    def test_not_taken_const_branch(self, must_taken_contract):
        found = must_taken_contract.check_event(
            make_event(8, taken=False, avail=6)
        )
        assert kinds(found) == [NOT_TAKEN_CONST]

    def test_unknown_site(self, contract):
        found = contract.check_event(make_event(10**6))
        assert kinds(found) == [UNKNOWN_SITE]

    def test_filtered_unfilterable(self, contract):
        found = contract.check_event(
            make_event(
                10, guard=4, avail=1, sfp=SFPDecision.FILTERED_CORRECT
            )
        )
        assert FILTERED_UNFILTERABLE in kinds(found)

    def test_avail_bounds(self, contract):
        below = contract.check_event(make_event(6, avail=2))
        assert kinds(below) == [AVAIL_BELOW_MIN]
        above = contract.check_event(make_event(6, avail=9))
        assert kinds(above) == [AVAIL_ABOVE_MAX]

    def test_guard_unexpectedly_undefined(self, contract):
        found = contract.check_event(make_event(6, avail=AVAIL_NEVER))
        assert kinds(found) == [UNDEFINED_GUARD]


def fake_trace(
    b_pc, b_idx, b_taken, b_guard_def, d_idx=(), d_pc=()
):
    return SimpleNamespace(
        b_pc=np.asarray(b_pc, dtype=np.int64),
        b_idx=np.asarray(b_idx, dtype=np.int64),
        b_taken=np.asarray(b_taken, dtype=bool),
        b_guard_def=np.asarray(b_guard_def, dtype=np.int64),
        d_idx=np.asarray(d_idx, dtype=np.int64),
        d_pc=np.asarray(d_pc, dtype=np.int64),
        num_branches=len(b_pc),
    )


class TestCheckTrace:
    """Hand-built branch streams against the known facts of
    :func:`contract_program` — including seeded simulator faults."""

    def test_consistent_trace_passes(self, contract):
        trace = fake_trace(
            b_pc=[6], b_idx=[100], b_taken=[False], b_guard_def=[95],
            d_idx=[95], d_pc=[1],
        )
        assert check_trace(trace, contract) == []

    def test_tampered_outcome_on_dead_branch(self, contract):
        trace = fake_trace(
            b_pc=[7], b_idx=[100], b_taken=[True], b_guard_def=[94],
            d_idx=[94], d_pc=[1],
        )
        assert TAKEN_DEAD in kinds(check_trace(trace, contract))

    def test_avail_below_static_min(self, contract):
        # Guard "resolved" 2 instructions back; statically it is
        # always exactly 5.
        trace = fake_trace(
            b_pc=[6], b_idx=[100], b_taken=[False], b_guard_def=[98],
            d_idx=[98], d_pc=[1],
        )
        assert AVAIL_BELOW_MIN in kinds(check_trace(trace, contract))

    def test_avail_above_static_max(self, contract):
        trace = fake_trace(
            b_pc=[6], b_idx=[100], b_taken=[False], b_guard_def=[80],
            d_idx=[80], d_pc=[1],
        )
        assert AVAIL_ABOVE_MAX in kinds(check_trace(trace, contract))

    def test_define_not_recorded(self, contract):
        # The claimed resolving define has no define-stream row.
        trace = fake_trace(
            b_pc=[6], b_idx=[100], b_taken=[False], b_guard_def=[95],
            d_idx=[90], d_pc=[1],
        )
        assert DEFINE_NOT_RECORDED in kinds(check_trace(trace, contract))

    def test_define_not_reaching(self, contract):
        # The define-stream row points at an instruction the analysis
        # proves can never define this branch's guard.
        trace = fake_trace(
            b_pc=[6], b_idx=[100], b_taken=[False], b_guard_def=[95],
            d_idx=[95], d_pc=[3],
        )
        assert DEFINE_NOT_REACHING in kinds(check_trace(trace, contract))

    def test_unknown_branch_site(self, contract):
        trace = fake_trace(
            b_pc=[12345], b_idx=[0], b_taken=[False], b_guard_def=[-1],
        )
        assert kinds(check_trace(trace, contract)) == [UNKNOWN_SITE]

    def test_undefined_guard_on_always_defined_site(self, contract):
        trace = fake_trace(
            b_pc=[6], b_idx=[100], b_taken=[False], b_guard_def=[-1],
        )
        assert UNDEFINED_GUARD in kinds(check_trace(trace, contract))

    def test_violations_capped(self, contract):
        n = 50
        trace = fake_trace(
            b_pc=[7] * n,
            b_idx=list(range(100, 100 + n)),
            b_taken=[True] * n,
            b_guard_def=[-1] * n,
        )
        found = check_trace(trace, contract, max_violations=5)
        assert len(found) == 5


class TestCheckFlags:
    def test_squash_on_unfilterable_site(self, contract):
        trace = fake_trace(
            b_pc=[10], b_idx=[100], b_taken=[False], b_guard_def=[99],
        )
        flags = SimpleNamespace(squashed=np.array([True]))
        found = check_flags(trace, flags, contract)
        assert kinds(found) == [FILTERED_UNFILTERABLE]

    def test_squash_on_must_taken_site(self, must_taken_contract):
        trace = fake_trace(
            b_pc=[8], b_idx=[10], b_taken=[True], b_guard_def=[3],
        )
        flags = SimpleNamespace(squashed=np.array([True]))
        found = check_flags(trace, flags, must_taken_contract)
        assert kinds(found) == [NOT_TAKEN_CONST]
        # With squash_known_true the squash is the configured behavior.
        assert (
            check_flags(
                trace, flags, must_taken_contract, squash_known_true=True
            )
            == []
        )

    def test_unsquashed_branches_are_not_checked(self, contract):
        trace = fake_trace(
            b_pc=[10], b_idx=[100], b_taken=[False], b_guard_def=[99],
        )
        flags = SimpleNamespace(squashed=np.array([False]))
        assert check_flags(trace, flags, contract) == []


class TestContractChecker:
    def test_armed_checker_accumulates_and_raises(self, contract):
        checker = ContractChecker(contract, spec=ProfileSpec(rate=1))
        checker.collect(make_event(7, taken=True, avail=6))
        checker.collect(make_event(6, avail=5))
        assert checker.events_checked == 2
        assert kinds(checker.violations) == [TAKEN_DEAD]
        with pytest.raises(ContractError) as excinfo:
            checker.raise_on_violations()
        assert TAKEN_DEAD in str(excinfo.value)
        assert excinfo.value.violations == checker.violations

    def test_fail_fast_raises_on_first_violation(self, contract):
        checker = ContractChecker(contract, fail_fast=True)
        with pytest.raises(ContractError):
            checker.collect(make_event(7, taken=True, avail=6))

    def test_disarmed_checker_advertises_unreachable_rate(self, contract):
        checker = ContractChecker(contract, armed=False)
        assert checker.rate == DISARMED_RATE
        assert checker.events_checked == 0

    def test_disarmed_checker_sees_no_events_in_simulation(self):
        workload = get_workload("crc")
        executable = workload.compile("tiny", HYPERBLOCK).executable
        contract = StaticContract.for_executable(executable, name="crc")
        trace = workload.trace("tiny", hyperblocks=True)
        checker = ContractChecker(contract, armed=False)
        simulate(
            trace,
            make_predictor("gshare"),
            SimOptions(),
            collector=checker,
            core="object",
        )
        assert checker.events_checked == 0
        assert checker.violations == []

    def test_error_message_truncates_display_not_data(self, contract):
        violations = [
            ContractViolation(TAKEN_DEAD, 7, seq, "tampered")
            for seq in range(30)
        ]
        error = ContractError(violations)
        assert len(error.violations) == 30
        assert "(10 more)" in str(error)

    def test_violation_to_dict(self):
        violation = ContractViolation(TAKEN_DEAD, 7, 3, "detail")
        assert violation.to_dict() == {
            "kind": TAKEN_DEAD,
            "pc": 7,
            "seq": 3,
            "detail": "detail",
        }


class TestDifferentialGate:
    """The acceptance sweep: every workload × config × core replays
    with zero contract violations against its own static facts."""

    @pytest.mark.parametrize("core", ["object", "fast", "numpy"])
    @pytest.mark.parametrize(
        "hyperblocks", [False, True], ids=["baseline", "hyper"]
    )
    @pytest.mark.parametrize("name", workload_names())
    def test_gate_is_clean(self, name, hyperblocks, core):
        result = run_contract_gate(name, hyperblocks=hyperblocks, core=core)
        assert result.ok, "\n".join(
            str(v) for v in result.violations[:10]
        )
        assert result.branches > 0
        assert result.workload == name
        assert result.core == core
        # Rate-1 sampling: the armed checker saw the whole stream.
        assert result.events_checked == result.branches

    @pytest.mark.parametrize("core", ["object", "fast", "numpy"])
    def test_fail_fast_stops_at_the_oracles_first_violation(self, core):
        """A fail-fast checker raises at the first violating event, the
        same one the branch-by-branch oracle stops at."""
        workload = get_workload("crc")
        executable = workload.compile("tiny", HYPERBLOCK).executable
        trace = workload.trace("tiny", hyperblocks=True)
        contract = StaticContract.for_executable(executable, name="crc")
        # Claim no site may be filtered: the first squash violates.
        contract.never_filterable = set(contract.facts)
        options = SimOptions(sfp=SFPConfig(), pgu=PGUConfig())

        def first_violation(run):
            checker = ContractChecker(
                contract, spec=ProfileSpec(rate=1), fail_fast=True
            )
            with pytest.raises(ContractError) as excinfo:
                run(trace, make_predictor("gshare"), options,
                    collector=checker)
            return excinfo.value.violations

        ref = first_violation(oracle_simulate)
        assert [v.kind for v in ref] == [FILTERED_UNFILTERABLE]
        squashed = np.flatnonzero(squash_mask(trace, options))
        assert ref[0].seq == int(squashed[0])
        assert first_violation(partial(simulate, core=core)) == ref

    def test_gate_result_raises_when_dirty(self):
        from repro.analysis import GateResult

        result = GateResult(
            workload="w",
            config="hyperblock",
            core="object",
            branches=1,
            events_checked=1,
            violations=[ContractViolation(TAKEN_DEAD, 0, 0, "x")],
        )
        assert not result.ok
        with pytest.raises(ContractError):
            result.raise_on_violations()
