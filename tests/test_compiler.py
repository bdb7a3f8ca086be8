"""Unit tests for the compiler: lowering structure, if-conversion modes,
scheduling, register allocation, CFG/dominance, and the pipeline."""

import pytest

from repro.compiler import (
    CompileConfig,
    CompileError,
    ProfileCollector,
    compile_source,
    compile_with_profile,
)
from repro.compiler import config as config_mod
from repro.compiler.cfg import CFG
from repro.compiler.dominance import dominators
from repro.compiler.lower import VREG_BASE, PredAllocator
from repro.compiler.regalloc import ALLOCATABLE
from repro.engine import run
from repro.isa.opcodes import BranchKind, Opcode


def compiled_main(source, config=config_mod.BASELINE, profiled=False):
    if profiled:
        compiled = compile_with_profile(source, config)
    else:
        compiled = compile_source(source, config)
    return compiled


class TestLoweringStructure:
    def test_baseline_has_no_predicated_regions(self):
        compiled = compiled_main(
            "func main() { var x = 1;"
            " if (x > 0) { x = 2; } else { x = 3; } return x; }"
        )
        assert compiled.num_regions == 0
        assert all(i.region < 0 for i in compiled.executable.code)

    def test_ladder_mode_emits_multiple_branches_for_and(self):
        ladder = compiled_main(
            "func main() { var x = 5;"
            " if (x > 1 && x < 9) { x = 0; } return x; }"
        )
        simple = compiled_main(
            "func main() { var x = 5;"
            " if (x > 1 && x < 9) { x = 0; } return x; }",
            config_mod.PROFILING,
        )
        def cond_branches(compiled):
            return sum(
                1
                for i in compiled.executable.code
                if i.op is Opcode.BR and i.kind is BranchKind.COND
            )
        assert cond_branches(ladder) == 2
        assert cond_branches(simple) == 1

    def test_full_conversion_removes_branches(self):
        compiled = compiled_main(
            "func main() { var x = 5; var y = 0;"
            " if (x > 3) { y = 1; } else { y = 2; } return y; }",
            config_mod.HYPERBLOCK,
            profiled=True,
        )
        kinds = [
            i.kind for i in compiled.executable.code if i.op is Opcode.BR
        ]
        assert BranchKind.COND not in kinds
        assert compiled.num_regions == 1

    def test_loop_in_arm_forces_side_exit(self):
        compiled = compiled_main(
            """
            func main() {
                var x = 9; var s = 0; var j = 0;
                if (x > 3) {
                    j = 0;
                    while (j < x) { s = s + j; j = j + 1; }
                } else {
                    s = 1;
                }
                return s;
            }
            """,
            config_mod.HYPERBLOCK,
            profiled=True,
        )
        exits = [
            i
            for i in compiled.executable.code
            if i.op is Opcode.BR and i.kind is BranchKind.EXIT
        ]
        assert exits, "expected a region-based side exit around the loop"
        assert all(e.region_based for e in exits)

    def test_predicated_call_marked_region_based(self):
        compiled = compiled_main(
            """
            func f(v) { return v + 1; }
            func main() {
                var x = 4; var s = 0;
                if (x % 2 == 0) { s = f(x); }
                return s;
            }
            """,
            config_mod.HYPERBLOCK,
            profiled=True,
        )
        calls = [
            i for i in compiled.executable.code if i.op is Opcode.CALL
        ]
        predicated = [c for c in calls if c.qp != 0]
        assert predicated and all(c.region_based for c in predicated)

    def test_predicated_return_is_branch_event(self):
        compiled = compiled_main(
            """
            func f(v) {
                if (v < 0) { return 0 - v; }
                return v;
            }
            func main() { return f(0 - 5) + f(3); }
            """,
            config_mod.HYPERBLOCK,
            profiled=True,
        )
        rets = [
            i
            for i in compiled.executable.code
            if i.op is Opcode.RET and i.qp != 0
        ]
        assert rets and all(r.is_branch_event() for r in rets)

    def test_unroll_duplicates_body(self):
        source = (
            "func main() { var i = 0; var s = 0;"
            " while (i < 10) { i = i + 1; s = s + i; } return s; }"
        )
        rolled = compiled_main(
            source, CompileConfig(hyperblocks=True, unroll=1),
            profiled=True,
        )
        unrolled = compiled_main(
            source, CompileConfig(hyperblocks=True, unroll=4),
            profiled=True,
        )
        assert len(unrolled.executable.code) > len(rolled.executable.code)
        assert (
            run(unrolled.executable).return_value
            == run(rolled.executable).return_value
        )

    def test_max_args_enforced(self):
        args = ", ".join(str(k) for k in range(7))
        params = ", ".join(f"p{k}" for k in range(7))
        with pytest.raises(CompileError):
            compile_source(
                f"func f({params}) {{ return 0; }}"
                f"func main() {{ return f({args}); }}"
            )

    def test_cold_arm_becomes_side_exit(self):
        # Arm runs 1 time in 100: profile should push it out of the region.
        source = """
        func main() {
            var i = 0; var s = 0;
            while (i < 200) {
                if (i % 100 == 99) { s = s + 1000; s = s * 2; s = s - 3;
                                     s = s + i; }
                else { s = s + 1; }
                i = i + 1;
            }
            return s;
        }
        """
        compiled = compiled_main(
            source, config_mod.HYPERBLOCK, profiled=True
        )
        exits = [
            i
            for i in compiled.executable.code
            if i.op is Opcode.BR and i.kind is BranchKind.EXIT
        ]
        assert exits


class TestPredAllocator:
    def test_alloc_release_cycle(self):
        allocator = PredAllocator()
        a, b = allocator.alloc_pair()
        assert a != b and a > 0 and b > 0
        allocator.release(a, b)
        # FIFO rotation: the released pair goes to the back of the
        # queue, so the next allocation must NOT reuse it immediately
        # (immediate reuse creates WAR hazards that pin the scheduler).
        c = allocator.alloc()
        assert c not in (a, b)

    def test_rotation_eventually_reuses(self):
        allocator = PredAllocator()
        first = allocator.alloc()
        allocator.release(first)
        seen = {allocator.alloc() for _ in range(62)}
        assert first not in seen
        assert allocator.alloc() == first  # came back around

    def test_exhaustion(self):
        allocator = PredAllocator()
        for _ in range(63):
            allocator.alloc()
        with pytest.raises(CompileError):
            allocator.alloc()


class TestRegalloc:
    def test_many_variables_spill_and_still_work(self):
        count = 70  # more than the 52 allocatable registers
        decls = " ".join(f"var v{k} = {k};" for k in range(count))
        total = " + ".join(f"v{k}" for k in range(count))
        source = f"func main() {{ {decls} return {total}; }}"
        compiled = compile_source(source)
        main = compiled.program.functions["main"]
        assert main.frame_slots > 0, "expected spills"
        assert run(compiled.executable).return_value == sum(range(count))

    def test_spilled_loop_variables(self):
        count = 60
        decls = " ".join(f"var v{k} = 0;" for k in range(count))
        bumps = " ".join(f"v{k} = v{k} + 1;" for k in range(count))
        total = " + ".join(f"v{k}" for k in range(count))
        source = (
            f"func main() {{ {decls} var i = 0;"
            f" while (i < 5) {{ {bumps} i = i + 1; }}"
            f" return {total}; }}"
        )
        compiled = compile_source(source)
        assert run(compiled.executable).return_value == count * 5

    def test_no_vregs_remain(self):
        source = (
            "func main() { var a = 1; var b = 2;"
            " while (a < 50) { a = a + b; } return a; }"
        )
        compiled = compile_source(source)
        for instr in compiled.executable.code:
            for field in ("rd", "ra", "rb"):
                assert getattr(instr, field) < VREG_BASE

    def test_allocatable_pool_respected(self):
        compiled = compile_source(
            "func main() { var a = 1; return a + 2; }"
        )
        for instr in compiled.executable.code:
            written = instr.writes_reg()
            if written > 0 and written < VREG_BASE:
                assert written in ALLOCATABLE or written >= 53


class TestScheduling:
    def _function(self, source, config=None):
        config = config or config_mod.HYPERBLOCK
        compiled = compile_with_profile(source, config)
        return compiled

    def test_hoisting_moves_guard_before_branch_gap(self):
        source = """
        func main() {
            var i = 0; var s = 0;
            while (i < 50) {
                var v = i * 7 % 13;
                s = s + v * 3;
                s = s + v / 2;
                s = s ^ i;
                if (v == 5) { break; }
                i = i + 1;
            }
            return s;
        }
        """
        with_sched = self._function(source)
        without = self._function(
            source,
            CompileConfig(
                hyperblocks=True, schedule_compares=False,
                merge_adjacent_regions=False,
            ),
        )
        def exit_gap(compiled):
            code = compiled.executable.code
            gaps = []
            for pos, instr in enumerate(code):
                if instr.op is Opcode.BR and instr.kind is BranchKind.EXIT:
                    # distance back to the compare defining the guard
                    for back in range(pos - 1, -1, -1):
                        prev = code[back]
                        if prev.op is Opcode.CMP and instr.qp in (
                            prev.pd1, prev.pd2
                        ):
                            gaps.append(pos - back)
                            break
            return max(gaps, default=0)
        assert exit_gap(with_sched) > exit_gap(without)
        assert (
            run(with_sched.executable).return_value
            == run(without.executable).return_value
        )

    def test_merge_regions_unifies_adjacent(self):
        source = """
        func main() {
            var x = 7; var s = 0;
            if (x > 1) { s = s + 1; } else { s = s - 1; }
            if (x > 2) { s = s + 2; } else { s = s - 2; }
            if (x > 3) { s = s + 3; } else { s = s - 3; }
            return s;
        }
        """
        merged = self._function(source)
        assert merged.num_regions == 1

    def test_scheduling_preserves_results_on_workload_style_code(self):
        source = """
        global data[32];
        func main() {
            var i = 0; var s = 0;
            while (i < 32) { data[i] = i * 13 % 7; i = i + 1; }
            i = 0;
            while (i < 32) {
                var v = data[i];
                if (v > 3) { s = s + v; } else { s = s - 1; }
                if (v == 6) { s = s * 2; }
                i = i + 1;
            }
            return s;
        }
        """
        scheduled = self._function(source)
        flat = self._function(
            source,
            CompileConfig(
                hyperblocks=True, schedule_compares=False,
                merge_adjacent_regions=False, unroll=1,
            ),
        )
        assert (
            run(scheduled.executable).return_value
            == run(flat.executable).return_value
        )


class TestCFG:
    def _cfg(self, source):
        compiled = compile_source(source)
        return CFG(compiled.program.functions["main"])

    def test_straight_line_blocks(self):
        # One real block plus the unreachable implicit trailing `ret 0`.
        cfg = self._cfg("func main() { var a = 1; return a; }")
        assert cfg.entry().successors == []
        assert cfg.reachable() == [0]

    def test_if_else_diamond(self):
        cfg = self._cfg(
            "func main() { var a = 1;"
            " if (a > 0) { a = 2; } else { a = 3; } return a; }"
        )
        entry = cfg.entry()
        assert len(entry.successors) == 2
        dom = dominators(cfg)
        for block in cfg.reachable():
            assert entry.index in dom[block]

    def test_loop_back_edge(self):
        cfg = self._cfg(
            "func main() { var i = 0;"
            " while (i < 5) { i = i + 1; } return i; }"
        )
        assert cfg.back_edges(), "expected a loop back edge"


class TestProfileCollector:
    def test_bias_computation(self):
        profile = ProfileCollector()
        for _ in range(8):
            profile.record_branch(5, True)
        for _ in range(2):
            profile.record_branch(5, False)
        assert profile.executions(5) == 10
        assert profile.taken_rate(5) == pytest.approx(0.8)
        assert profile.cond_true_rate(5) == pytest.approx(0.2)

    def test_unknown_src_id(self):
        profile = ProfileCollector()
        assert profile.taken_rate(99) is None
        assert profile.executions(99) == 0

    def test_profile_changes_decisions(self):
        # A 50/50 hammock should fully convert; make it extreme and fat
        # and the cold arm should leave the region.
        source = """
        func main() {
            var i = 0; var s = 0;
            while (i < 100) {
                if (i % 2 == 0) { s = s + 1; s = s ^ 3; s = s * 5;
                                  s = s - 2; s = s + i; }
                else { s = s - 1; s = s ^ 7; s = s * 3; s = s - i;
                       s = s + 2; }
                i = i + 1;
            }
            return s;
        }
        """
        balanced = compile_with_profile(source, config_mod.HYPERBLOCK)
        assert balanced.num_regions >= 1


@pytest.mark.xfail(strict=True, reason=(
    "ProfileCollector defines __len__, so a fresh collector is falsy and "
    "the engine gives the profiling run no hooks; fixing it re-pins the "
    "hyperblock goldens (ROADMAP: profiling run records nothing)"
))
def test_collect_profile_records_branches():
    from repro.compiler.pipeline import collect_profile
    from repro.workloads import get_workload

    profile = collect_profile(get_workload("crc").source("tiny"))
    assert len(profile) > 0


class TestGlobalLayout:
    def test_layout_assertion_matches_link(self):
        compiled = compile_source(
            "global a[10]; global b[20];"
            "func main() { a[0] = 1; b[0] = 2; return a[0] + b[0]; }"
        )
        assert compiled.executable.global_base("a") == 0
        assert compiled.executable.global_base("b") == 10
        assert run(compiled.executable).return_value == 3
