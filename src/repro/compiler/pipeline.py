"""Top-level compile entry points.

:func:`compile_source` runs the full pipeline for one configuration;
:func:`compile_with_profile` is the paper's two-pass flow — a profiling
compile + run feeds the hyperblock compile of the same source.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.compiler import config as config_mod
from repro.compiler.config import CompileConfig
from repro.compiler.lower import FunctionLowerer
from repro.compiler.optimize import optimize_function
from repro.compiler.profile import ProfileCollector
from repro.compiler.regalloc import allocate_registers
from repro.compiler.schedule import schedule_function
from repro.compiler.verify import verify_executable, verify_function
from repro.engine.interpreter import run as run_program
from repro.isa.program import Executable, Program
from repro.lang import analyze, parse
from repro.telemetry import span


@dataclass
class CompiledProgram:
    """A linked executable plus the artefacts tests and tools want."""

    executable: Executable
    program: Program
    config: CompileConfig
    profile: Optional[ProfileCollector] = None

    @property
    def num_regions(self) -> int:
        """Distinct predicated regions across all functions."""
        regions = {
            instr.region
            for instr in self.executable.code
            if instr.region >= 0
        }
        return len(regions)


def compile_source(
    source: str,
    config: CompileConfig = config_mod.BASELINE,
    profile: Optional[ProfileCollector] = None,
) -> CompiledProgram:
    """Compile ``minic`` source under ``config``.

    ``profile`` feeds the if-conversion heuristics; without one,
    hyperblock formation treats every branch as unbiased.
    """
    module = parse(source)
    analyze(module)

    program = Program()
    global_bases: Dict[str, int] = {}
    offset = 0
    for decl in module.globals:
        program.add_global(decl.name, decl.size)
        global_bases[decl.name] = offset
        offset += decl.size

    functions = {f.name: len(f.params) for f in module.functions}
    region_counter = [0]
    for func in module.functions:
        lowerer = FunctionLowerer(
            func, global_bases, functions, config, profile, region_counter
        )
        function = lowerer.lower()
        if config.peephole:
            optimize_function(function)
        if config.hyperblocks:
            schedule_function(
                function,
                merge=config.merge_adjacent_regions,
                hoist=config.schedule_compares,
            )
        verify_function(function, allow_vregs=True)
        allocate_registers(function)
        verify_function(function, allow_vregs=False)
        program.add_function(function)

    executable = program.link()
    verify_executable(executable)
    _check_global_layout(executable, global_bases)
    return CompiledProgram(
        executable=executable, program=program, config=config,
        profile=profile,
    )


def _check_global_layout(executable: Executable,
                         expected: Dict[str, int]) -> None:
    """The lowerer bakes global base addresses into immediates; verify the
    linker placed every array exactly where lowering assumed."""
    for name, base in expected.items():
        if executable.global_base(name) != base:
            raise AssertionError(
                f"global {name!r} linked at {executable.global_base(name)}, "
                f"lowered against {base}"
            )


def collect_profile(source: str,
                    max_instructions: int = 200_000_000) -> ProfileCollector:
    """Run the profiling compile and return the collected profile."""
    profile = ProfileCollector()
    with span("compile"):
        compiled = compile_source(source, config_mod.PROFILING)
    with span("profile-run"):
        run_program(compiled.executable, profile=profile,
                    max_instructions=max_instructions)
    return profile


def compile_with_profile(
    source: str,
    config: CompileConfig = config_mod.HYPERBLOCK,
    max_instructions: int = 200_000_000,
) -> CompiledProgram:
    """Two-pass compile: profile with the simple lowering, then apply
    ``config`` (normally the hyperblock configuration) using that profile."""
    profile = collect_profile(source, max_instructions=max_instructions)
    with span("compile"):
        return compile_source(source, config, profile=profile)
