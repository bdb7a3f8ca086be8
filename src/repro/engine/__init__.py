"""Execution engine for linked predicated-ISA executables.

The engine runs an :class:`repro.isa.Executable` by translating it into
block-level Python (:mod:`repro.engine.translate`), maintaining
per-activation register frames (an IA-64-style register stack), flat word
memory, and — when given a recorder — emitting the dynamic branch and
predicate-define events that drive the trace-based predictor simulation.
"""

from repro.engine.errors import EngineError, EngineLimitError
from repro.engine.interpreter import ExecResult, Interpreter, run

__all__ = [
    "EngineError",
    "EngineLimitError",
    "ExecResult",
    "Interpreter",
    "run",
]
