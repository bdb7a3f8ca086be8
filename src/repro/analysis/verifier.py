"""Lint driver: run every rule over a linked program.

:func:`lint_executable` is the core entry point (it is what
``Program.link(verify=True)`` and the ``repro lint`` CLI command call);
:func:`lint_program` is a convenience that links first.

Instrumented with :mod:`repro.telemetry`: a ``lint`` span per program
plus ``analysis.*`` counters (functions/blocks/instructions analysed,
diagnostics by severity, firings per rule id), so ``repro lint
--metrics out.jsonl`` leaves an auditable record of analyzer runtime
and findings.
"""

from repro import telemetry
from repro.analysis.cfg import FunctionCFG, function_slices
from repro.analysis.diagnostics import LintReport
from repro.analysis.predflow import analyze_cfg, check_predflow_function
from repro.analysis.rules import check_function
from repro.isa.program import Executable, Program


def lint_executable(
    executable: Executable, name: str = "<program>"
) -> LintReport:
    """Run the full rule catalogue over a linked executable."""
    report = LintReport(program=name)
    with telemetry.span("lint-program", program=name):
        blocks = 0
        slices = function_slices(executable)
        for slice_ in slices:
            cfg = FunctionCFG(executable, slice_)
            blocks += len(cfg.blocks)
            check_function(executable, cfg, report)
            if len(slice_):
                facts = analyze_cfg(executable, cfg)
                check_predflow_function(executable, facts, report)
        report.sort()
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter("analysis.programs").inc()
            registry.counter("analysis.functions").inc(len(slices))
            registry.counter("analysis.blocks").inc(blocks)
            registry.counter("analysis.instructions").inc(
                len(executable.code)
            )
            for severity, count in report.counts().items():
                if count:
                    registry.counter(
                        f"analysis.diagnostics.{severity}"
                    ).inc(count)
            for diagnostic in report.diagnostics:
                registry.counter(
                    f"analysis.rule.{diagnostic.rule_id}"
                ).inc()
    return report


def lint_program(
    program: Program, entry: str = "main", name: str = "<program>"
) -> LintReport:
    """Link ``program`` (without verification) and lint the result."""
    return lint_executable(program.link(entry), name=name)
