"""The execution engine.

Every :func:`run` translates the linked executable into Python source,
one function per fall-through chain of basic blocks, and compiles it
(:mod:`repro.engine.translate`).  Registers, immediates, guard
predicates and the 64-bit wrap are written into that source as
literals, so an instruction costs a statement or two instead of a trip
through an opcode dispatch chain.  A small outer loop here calls the
chain functions, executes ``CALL``/``RET``/``HALT`` and raises every
runtime error at the same pc, with the same message, as a
one-instruction-at-a-time loop would.

With a recorder attached, the translated code appends only each event's
dynamic fields (pc, dynamic index, outcome or value, guard-define
index); :meth:`~repro.trace.recorder.TraceRecorder.finish` gathers the
static ones from per-pc tables.
"""

from dataclasses import dataclass

from repro.engine.errors import EngineError, EngineLimitError
from repro.engine.translate import NearLimit, translate
from repro.isa.opcodes import Opcode
from repro.isa.program import Executable
from repro.isa.registers import ARG_BASE, NUM_GPR, NUM_PRED, R_SP, wrap

#: Default safety net on dynamic instruction count.
DEFAULT_MAX_INSTRUCTIONS = 200_000_000

#: Deepest call nesting before the engine reports a stack overflow.
MAX_CALL_DEPTH = 4096

_CALL = Opcode.CALL
_HALT = Opcode.HALT


@dataclass
class ExecResult:
    """Outcome of a program run."""

    instructions: int  #: dynamic instructions executed
    return_value: int  #: value returned by ``main`` (0 for plain ``halt``)
    halted: bool  #: True if the program ended via HALT / main's return


def _div(a: int, b: int) -> int:
    # Division by zero yields 0: the language runs predicated code down
    # both arms of a hammock, so a guarded divide must never fault
    # (Itanium has no integer-divide instruction to fault at all).
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return wrap(-q if (a < 0) != (b < 0) else q)


def _mod(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap(a - q * b)


def _bad_store(addr: int, pc: int) -> None:
    raise EngineError(f"store to bad address {addr}", pc)


class Interpreter:
    """Executes a linked :class:`~repro.isa.program.Executable`.

    Args:
        executable: the linked program.
        recorder: optional :class:`repro.trace.recorder.TraceRecorder`
            receiving the run's branch and predicate-define events.
        profile: optional profile collector receiving
            ``(src_id, taken)`` branch observations
            (see :class:`repro.compiler.profile.ProfileCollector`).
        max_instructions: dynamic-instruction safety limit.
    """

    def __init__(
        self,
        executable: Executable,
        recorder=None,
        profile=None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ):
        self.executable = executable
        self.recorder = recorder
        self.profile = profile
        self.max_instructions = max_instructions
        self.memory = [0] * executable.memory_words
        for instr in executable.code:
            if instr.op in (Opcode.BR, _CALL) and not (
                isinstance(instr.target, int) and instr.target >= 0
            ):
                raise EngineError("executable contains unresolved targets")

    def _chains(self, checked: bool, branches, pdefs, profile_hook) -> list:
        """Translate and compile; returns the pc -> chain function table
        (``None`` where the outer loop takes over)."""
        exe = self.executable
        code = exe.code
        limit = self.max_instructions
        translation = translate(
            exe,
            limit=limit,
            record=branches is not None,
            profile=profile_hook is not None,
            checked=checked,
        )

        def limit_error(pc):
            raise EngineLimitError(f"instruction limit {limit} exceeded", pc)

        namespace = {
            "M": self.memory, "B": branches, "Q": pdefs, "PR": profile_hook,
            "W": wrap, "DV": _div, "MD": _mod, "BS": _bad_store,
            "LM": limit_error, "NR": NearLimit,
        }
        # One compile per chain keeps the compiler's peak memory to the
        # largest chain's rather than the whole program's.
        for name, source in translation.sources.items():
            exec(compile(source, f"<chain {name}>", "exec"), namespace)
        # Room for every pc control can reach, even a branch past the end.
        size = max([len(code), exe.entry] + [
            instr.target for instr in code if instr.op == Opcode.BR
        ])
        table = [None] * (size + 1)
        for pc, name in translation.entries.items():
            table[pc] = namespace[name]
        return table

    def run(self) -> ExecResult:
        """Run from the entry point until HALT or main's return."""
        exe = self.executable
        code = exe.code
        limit = self.max_instructions
        branches = pdefs = None
        if self.recorder is not None:
            branches, pdefs = self.recorder.attach(exe)
        # A falsy profile gets no hooks.  ProfileCollector defines
        # __len__, so a fresh (empty) collector is falsy and the
        # profiling run records nothing; fixing this changes the
        # hyperblock code of several workloads (see ROADMAP.md).
        profile_hook = self.profile.record_branch if self.profile else None
        chains = self._chains(False, branches, pdefs, profile_hook)

        slots_at_entry = {
            exe.function_entries[name]: slots
            for name, slots in exe.function_frame_slots.items()
        }
        regs = [0] * NUM_GPR
        regs[R_SP] = exe.memory_words - exe.function_frame_slots.get(
            exe.entry_name(exe.entry), 0
        )
        preds = [False] * NUM_PRED
        preds[0] = True
        pdef_idx = [-1] * NUM_PRED
        call_stack = []

        pc = exe.entry
        steps = 0
        ncode = len(code)
        return_value = 0

        while True:
            chain = chains[pc]
            if chain is not None:
                try:
                    pc, steps = chain(regs, preds, pdef_idx, steps, pc)
                except NearLimit as near:
                    # Finish the run under per-instruction limit checks.
                    pc, steps = near.args
                    chains = self._chains(True, branches, pdefs,
                                          profile_hook)
                continue
            if steps >= limit:
                raise EngineLimitError(
                    f"instruction limit {limit} exceeded", pc
                )
            if not 0 <= pc < ncode:
                raise EngineError("control fell off the program", pc)
            instr = code[pc]
            op = instr.op
            if op == _HALT:
                steps += 1
                break
            q = instr.qp
            taken = preds[q]
            if branches is not None and q:
                # A CALL/RET is a branch event iff it is predicated.
                branches += (pc, steps, taken, pdef_idx[q])
            steps += 1
            if not taken:
                pc += 1
            elif op == _CALL:
                if len(call_stack) >= MAX_CALL_DEPTH:
                    raise EngineError("call stack overflow", pc)
                new_regs = [0] * NUM_GPR
                for k in range(instr.nargs):
                    new_regs[ARG_BASE + k] = regs[ARG_BASE + k]
                target = instr.target
                new_regs[R_SP] = regs[R_SP] - slots_at_entry[target]
                call_stack.append((regs, preds, pdef_idx, pc + 1, instr.rd))
                regs = new_regs
                preds = [False] * NUM_PRED
                preds[0] = True
                pdef_idx = [-1] * NUM_PRED
                pc = target
            else:  # RET
                value = regs[instr.ra] if instr.ra >= 0 else instr.imm
                if not call_stack:
                    return_value = value
                    break
                regs, preds, pdef_idx, pc, rd = call_stack.pop()
                if rd > 0:
                    regs[rd] = value

        return ExecResult(
            instructions=steps, return_value=return_value, halted=True
        )


def run(
    executable: Executable,
    recorder=None,
    profile=None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> ExecResult:
    """Convenience wrapper: build an :class:`Interpreter` and run it."""
    return Interpreter(
        executable,
        recorder=recorder,
        profile=profile,
        max_instructions=max_instructions,
    ).run()
