"""Differential suite: the translated engine against the reference loop.

:mod:`tests.engine_oracle` keeps the one-instruction-at-a-time loop the
engine replaced.  Every case here runs both on the same executable and
requires the same outcome: every trace array and its dtype, the
:class:`~repro.engine.ExecResult`, the final memory image, the profile
observations, and for a failing run the error's type, message and pc
(plus the events recorded up to the failure).

The 15 workloads x {profiling, baseline, hyperblock} run at the tiny
scale in tier-1; the small scale is selected with ``-m engine_small``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source
from repro.compiler import config as config_mod
from repro.compiler.profile import ProfileCollector
from repro.engine import EngineError, EngineLimitError, Interpreter
from repro.isa import CmpType, ProgramBuilder, Relation
from repro.isa.registers import ARG_BASE
from repro.trace import TraceRecorder
from repro.workloads import get_workload, workload_names
from tests.engine_oracle import ReferenceInterpreter
from tests.progen import generate_program

TRACE_FIELDS = (
    "b_pc", "b_idx", "b_taken", "b_guard", "b_guard_def", "b_kind",
    "b_region", "b_target", "d_pc", "d_idx", "d_value", "d_pred",
)

CONFIGS = ("profiling", "baseline", "hyperblock")


def executable_for(name: str, scale: str, config: str):
    workload = get_workload(name)
    if config == "profiling":
        return compile_source(
            workload.source(scale), config_mod.PROFILING
        ).executable
    if config == "baseline":
        return workload.compile(scale, config_mod.BASELINE).executable
    return workload.compile(scale, config_mod.HYPERBLOCK).executable


def outcome(engine, executable, max_instructions=200_000_000):
    """Everything observable about one run under ``engine``."""
    recorder = TraceRecorder()
    # A non-empty collector is truthy, so the profile hooks fire.
    profile = ProfileCollector()
    profile.record_branch(-1, True)
    result = error = memory = None
    try:
        interpreter = engine(executable, recorder=recorder, profile=profile,
                             max_instructions=max_instructions)
        memory = interpreter.memory
        result = interpreter.run()
    except EngineError as exc:
        error = (type(exc), str(exc), exc.pc)
    trace = recorder.finish()
    arrays = {
        name: (str(getattr(trace, name).dtype),
               getattr(trace, name).tolist())
        for name in TRACE_FIELDS
    }
    return {
        "result": result,
        "error": error,
        "memory": memory,
        "profile": profile.as_dict(),
        "arrays": arrays,
    }


def assert_engines_agree(executable, max_instructions=200_000_000):
    expected = outcome(ReferenceInterpreter, executable, max_instructions)
    actual = outcome(Interpreter, executable, max_instructions)
    for key in ("error", "result", "profile"):
        assert actual[key] == expected[key], key
    for name in TRACE_FIELDS:
        assert actual["arrays"][name] == expected["arrays"][name], name
    assert actual["memory"] == expected["memory"], "memory"
    return expected


# -- the workload suite --------------------------------------------------------


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", workload_names())
def test_workloads_match_tiny(name, config):
    expected = assert_engines_agree(executable_for(name, "tiny", config))
    assert expected["error"] is None
    assert expected["arrays"]["b_pc"][1], "no branch events recorded"


@pytest.mark.engine_small
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", workload_names())
def test_workloads_match_small(name, config):
    expected = assert_engines_agree(executable_for(name, "small", config))
    assert expected["error"] is None


# -- random programs -----------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000_000),
       st.integers(min_value=0, max_value=3_000))
@settings(max_examples=8, deadline=None)
def test_random_programs_match(seed, limit):
    source = generate_program(seed)
    for config in (config_mod.BASELINE, config_mod.HYPERBLOCK):
        executable = compile_source(source, config).executable
        assert_engines_agree(executable, max_instructions=20_000_000)
        # A small limit lands anywhere: mid-block, on a boundary, on a
        # call or return.
        assert_engines_agree(executable, max_instructions=limit)


# -- error parity --------------------------------------------------------------


def link(build):
    pb = ProgramBuilder()
    build(pb)
    return pb.link()


class TestLimits:
    @pytest.mark.parametrize("name,config", [
        ("crc", "hyperblock"), ("expr", "baseline"), ("maze", "profiling"),
    ])
    def test_limits_around_block_boundaries(self, name, config):
        executable = executable_for(name, "tiny", config)
        full = outcome(ReferenceInterpreter, executable)
        b_idx = full["arrays"]["b_idx"][1]
        total = full["result"].instructions
        limits = set(range(0, 40))
        for k in (0, 1, 2, len(b_idx) // 2, len(b_idx) - 1):
            idx = b_idx[k]
            # on the branch, just before it, and the first instruction
            # of the next block (a block boundary)
            limits.update((idx - 1, idx, idx + 1, idx + 2))
        limits.update((total - 1, total, total + 1))
        for limit in sorted(x for x in limits if x >= 0):
            expected = assert_engines_agree(executable, limit)
            if limit < total:
                assert expected["error"][0] is EngineLimitError
            else:
                assert expected["error"] is None

    def test_limit_in_a_tight_loop(self):
        def build(pb):
            f = pb.function("main")
            f.label("spin")
            f.jmp("spin")

        executable = link(build)
        for limit in range(0, 6):
            expected = assert_engines_agree(executable, limit)
            assert expected["error"] == (
                EngineLimitError, f"instruction limit {limit} exceeded "
                "(at instruction index 0)", 0,
            )

    def test_limit_on_a_call_and_a_return(self):
        def build(pb):
            main = pb.function("main")
            main.movi(ARG_BASE, 3)
            main.call(1, "leaf", nargs=1)
            main.ret(ra=1)
            leaf = pb.function("leaf", nparams=1)
            leaf.addi(1, ARG_BASE, 1)
            leaf.ret(ra=1)

        executable = link(build)
        for limit in range(0, 7):
            assert_engines_agree(executable, limit)


class TestFaults:
    def test_fall_off_the_end(self):
        def build(pb):
            f = pb.function("main")
            f.movi(1, 1)
            f.nop()

        expected = assert_engines_agree(link(build))
        assert expected["error"] == (
            EngineError,
            "control fell off the program (at instruction index 2)", 2,
        )

    def test_branch_past_the_end(self):
        def build(pb):
            f = pb.function("main")
            f.movi(1, 1)
            f.cmp(Relation.EQ, 1, 2, ra=1, imm=1)
            f.br("end", qp=1)
            f.halt()
            f.label("end")

        expected = assert_engines_agree(link(build))
        assert expected["error"][0] is EngineError
        assert expected["error"][2] == 4

    def test_limit_wins_over_fall_off(self):
        def build(pb):
            f = pb.function("main")
            f.nop()

        assert assert_engines_agree(link(build), 1)["error"][0] is (
            EngineLimitError
        )

    @pytest.mark.parametrize("ra,imm", [(1, 0), (-1, -7), (-1, 1 << 40)])
    def test_bad_store_mid_block(self, ra, imm):
        def build(pb):
            f = pb.function("main")
            f.movi(1, -5)
            f.movi(2, 9)
            f.cmp(Relation.EQ, 3, 4, ra=2, imm=9)
            f.store(ra, 2, imm=imm)
            f.addi(2, 2, 1)
            f.ret(ra=2)

        expected = assert_engines_agree(link(build))
        assert expected["error"][0] is EngineError
        assert "store to bad address" in expected["error"][1]
        assert expected["error"][2] == 3

    def test_predicated_bad_store_only_faults_when_guarded_true(self):
        def build(pb):
            f = pb.function("main")
            f.movi(1, -5)
            f.cmp(Relation.EQ, 1, 2, ra=1, imm=0)  # p1 false, p2 true
            f.store(1, 1, qp=1)
            f.store(1, 1, qp=2)
            f.halt()

        assert assert_engines_agree(link(build))["error"][2] == 3

    def test_call_stack_overflow(self):
        # Predicated calls are branch events, so the trace shows the
        # depth the overflow was raised at.
        def build(pb):
            main = pb.function("main")
            main.call(1, "down", nargs=0)
            main.ret(ra=1)
            down = pb.function("down")
            down.cmp(Relation.EQ, 1, -1, ra=0, imm=0)
            down.call(1, "down", nargs=0, qp=1)
            down.ret(ra=1)

        expected = assert_engines_agree(link(build))
        assert expected["error"] == (
            EngineError, "call stack overflow (at instruction index 3)", 3,
        )
        assert len(expected["arrays"]["b_pc"][1]) == 4096

    def test_unresolved_targets(self):
        def build(pb):
            f = pb.function("main")
            f.label("top")
            f.jmp("top")

        executable = link(build)
        executable.code[0].target = "top"
        expected = assert_engines_agree(executable)
        assert expected["error"] == (
            EngineError, "executable contains unresolved targets", -1,
        )


class TestSemantics:
    def test_arithmetic_corners(self):
        def build(pb):
            pb.array("out", 64)
            f = pb.function("main")
            f.movi(1, -7)
            f.movi(2, 1 << 62)
            f.movi(3, -(1 << 63))
            f.movi(4, -1)
            f.divi(5, 1, 2)
            f.divi(6, 1, -2)
            f.modi(7, 1, 2)
            f.modi(8, 1, -2)
            f.div(9, 3, 4)  # -2**63 / -1 wraps
            f.mod(10, 3, 4)
            f.divi(11, 1, 0)
            f.shli(12, 2, 2)
            f.shri(13, 1, 0)
            f.shri(14, 1, 65)
            f.shl(15, 2, 4)
            f.srai(16, 3, 63)
            f.muli(17, 2, 4)
            f.addi(18, 3, -1)
            f.xori(19, 1, -1)
            f.andi(20, 3, 1 << 70)  # an immediate beyond 64 bits
            f.ori(21, 1, 3)
            f.mov(0, 1)  # r0 stays zero
            f.movi(0, 5)
            f.addi(0, 1, 1)
            f.load(22, -1, imm=-3)  # wild loads read zero
            f.load(23, 2, imm=0)
            f.store(-1, 1, imm=2)
            f.load(24, -1, imm=2)
            for rd in range(5, 25):  # every result lands in memory
                f.store(-1, rd, imm=32 + rd)
            f.ret(ra=5)

        expected = assert_engines_agree(link(build))
        assert expected["error"] is None

    def test_compare_types_and_guards(self):
        def build(pb):
            f = pb.function("main")
            f.movi(1, 4)
            f.cmp(Relation.GT, 1, 2, ra=1, imm=2)
            f.cmp(Relation.LE, 3, 4, ra=1, imm=9, ctype=CmpType.UNC, qp=2)
            f.cmp(Relation.LE, 5, 6, ra=1, imm=9, ctype=CmpType.UNC, qp=1)
            f.cmp(Relation.NE, 3, -1, rb=1, ctype=CmpType.AND, qp=1)
            f.cmp(Relation.EQ, 4, 5, ra=1, rb=1, ctype=CmpType.OR, qp=1)
            f.cmp(Relation.LT, 1, -1, ra=1, imm=0, qp=1)  # rewrites its guard
            f.addi(1, 1, 1, qp=1)
            f.cmp(Relation.GE, -1, -1, ra=1, imm=0, ctype=CmpType.UNC, qp=6)
            f.cmp(Relation.GE, -1, -1, ra=1, imm=0, ctype=CmpType.AND, qp=6)
            f.cmp(Relation.GE, 7, 7, ra=1, imm=0)
            f.nop(qp=7)
            f.movi(2, 0)
            for p in range(1, 8):
                f.addi(2, 2, 1 << p, qp=p)
            f.br("out", qp=5)
            f.br("out", qp=3, region=0, region_based=True)
            f.label("out")
            f.br("next", qp=4)
            f.label("next")
            f.ret(ra=2)

        expected = assert_engines_agree(link(build))
        assert expected["error"] is None

    def test_call_into_code_reached_by_fall_through(self):
        # ``g`` falls through into ``f``, so ``f``'s entry sits in the
        # middle of straight-line code.
        def build(pb):
            main = pb.function("main")
            main.movi(ARG_BASE, 5)
            main.call(1, "g", nargs=1)
            main.call(2, "f", nargs=1)
            main.add(1, 1, 2)
            main.ret(ra=1)
            g = pb.function("g", nparams=1)
            g.cmp(Relation.GT, 1, -1, ra=ARG_BASE, imm=9)
            g.addi(ARG_BASE, ARG_BASE, 1, qp=1)
            f = pb.function("f", nparams=1)
            f.addi(1, ARG_BASE, 1)
            f.ret(ra=1)

        expected = assert_engines_agree(link(build))
        assert expected["result"].return_value == 12

    def test_predicated_calls_and_returns_are_events(self):
        def build(pb):
            main = pb.function("main")
            main.movi(ARG_BASE, 1)
            main.cmp(Relation.EQ, 1, 2, ra=ARG_BASE, imm=1)
            main.call(3, "f", nargs=1, qp=1)
            main.call(4, "f", nargs=1, qp=2)
            main.add(3, 3, 4)
            main.ret(ra=3, qp=1)
            main.halt()
            f = pb.function("f", nparams=1)
            f.cmp(Relation.GT, 1, 2, ra=ARG_BASE, imm=0)
            f.ret(imm=7, qp=2)
            f.ret(ra=ARG_BASE)

        expected = assert_engines_agree(link(build))
        assert expected["result"].return_value == 1
        assert expected["arrays"]["b_target"][1][-1] == -1
