"""Reference interpreter: one instruction at a time.

This is the engine's previous loop, kept as the oracle of the engine
differential suite (``tests/test_engine_translate.py``) and of the engine
benchmark gate.  The executable is decoded into parallel Python lists
(one flat list per instruction field) and dispatch is an ``if/elif``
chain.  It feeds a recorder through ``record_branch``/``record_pdef``
with every field of each event.  Nothing in ``src/`` uses it.
"""

from repro.engine.errors import EngineError, EngineLimitError
from repro.engine.interpreter import DEFAULT_MAX_INSTRUCTIONS, ExecResult
from repro.isa.opcodes import Opcode
from repro.isa.program import Executable
from repro.isa.registers import ARG_BASE, NUM_GPR, NUM_PRED, R_SP

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


class ReferenceInterpreter:
    """Executes a linked :class:`~repro.isa.program.Executable`.

    Args:
        executable: the linked program.
        recorder: optional trace recorder receiving ``branch`` /
            ``predicate_define`` events
            (see :class:`repro.trace.recorder.TraceRecorder`).
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
        self._decode(executable)

    def _decode(self, executable: Executable) -> None:
        code = executable.code
        n = len(code)
        self._op = [int(i.op) for i in code]
        self._qp = [i.qp for i in code]
        self._rd = [i.rd for i in code]
        self._ra = [i.ra for i in code]
        self._rb = [i.rb for i in code]
        self._imm = [i.imm for i in code]
        self._pd1 = [i.pd1 for i in code]
        self._pd2 = [i.pd2 for i in code]
        self._crel = [int(i.crel) for i in code]
        self._ctype = [int(i.ctype) for i in code]
        self._target = [
            i.target if isinstance(i.target, int) else -1 for i in code
        ]
        self._kind = [int(i.kind) for i in code]
        self._nargs = [i.nargs for i in code]
        self._region_based = [i.region_based for i in code]
        self._is_event = [i.is_branch_event() for i in code]
        self._src_id = [i.src_id for i in code]
        if n and any(
            code[i].op in (Opcode.BR, Opcode.CALL) and self._target[i] < 0
            for i in range(n)
        ):
            raise EngineError("executable contains unresolved targets")

    def run(self) -> ExecResult:
        """Run from the entry point until HALT or main's return."""
        exe = self.executable
        op = self._op
        qp = self._qp
        rdl = self._rd
        ral = self._ra
        rbl = self._rb
        imml = self._imm
        pd1l = self._pd1
        pd2l = self._pd2
        crell = self._crel
        ctypel = self._ctype
        targetl = self._target
        kindl = self._kind
        nargsl = self._nargs
        regionl = self._region_based
        eventl = self._is_event
        srcl = self._src_id
        memory = self.memory
        memlen = len(memory)

        recorder = self.recorder
        rec_branch = recorder.record_branch if recorder else None
        rec_pdef = recorder.record_pdef if recorder else None
        profile = self.profile
        prof_branch = profile.record_branch if profile else None

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
        limit = self.max_instructions
        ncode = len(op)
        return_value = 0
        halted = False

        while True:
            if steps >= limit:
                raise EngineLimitError(
                    f"instruction limit {limit} exceeded", pc
                )
            if not 0 <= pc < ncode:
                raise EngineError("control fell off the program", pc)
            i = pc
            o = op[i]
            steps += 1
            pc += 1
            pval = preds[qp[i]]

            if 0 < o <= 11:  # ALU group
                if pval:
                    a = regs[ral[i]]
                    rb = rbl[i]
                    b = regs[rb] if rb >= 0 else imml[i]
                    if o == 1:
                        v = a + b
                    elif o == 2:
                        v = a - b
                    elif o == 3:
                        v = a * b
                    elif o == 6:
                        v = a & b
                    elif o == 7:
                        v = a | b
                    elif o == 8:
                        v = a ^ b
                    elif o == 9:
                        v = a << (b & 63)
                    elif o == 10:
                        v = (a & _MASK) >> (b & 63)
                    elif o == 11:
                        v = a >> (b & 63)
                    else:  # o == 4 or o == 5
                        # Division by zero yields 0: the language runs
                        # predicated code down both arms of a hammock, so a
                        # guarded divide must never fault (Itanium has no
                        # integer-divide instruction to fault at all).
                        if b == 0:
                            v = 0
                        else:
                            q = abs(a) // abs(b)
                            if (a < 0) != (b < 0):
                                q = -q
                            v = q if o == 4 else a - q * b
                    v &= _MASK
                    if v & _SIGN:
                        v -= 0x10000000000000000
                    rd = rdl[i]
                    if rd:
                        regs[rd] = v
                continue

            if o == 12:  # MOV
                if pval:
                    ra = ral[i]
                    rd = rdl[i]
                    if rd:
                        regs[rd] = regs[ra] if ra >= 0 else imml[i]
                continue

            if o == 15:  # CMP
                if pval or ctypel[i] == 1:
                    ra = ral[i]
                    rb = rbl[i]
                    a = regs[ra] if ra >= 0 else 0
                    b = regs[rb] if rb >= 0 else imml[i]
                    rel = crell[i]
                    if rel == 0:
                        r = a == b
                    elif rel == 1:
                        r = a != b
                    elif rel == 2:
                        r = a < b
                    elif rel == 3:
                        r = a <= b
                    elif rel == 4:
                        r = a > b
                    else:
                        r = a >= b
                    ct = ctypel[i]
                    p1 = pd1l[i]
                    p2 = pd2l[i]
                    wrote = False
                    value = False
                    if ct == 0:  # NORMAL
                        if pval:
                            if p1 > 0:
                                preds[p1] = r
                                pdef_idx[p1] = steps - 1
                            if p2 > 0:
                                preds[p2] = not r
                                pdef_idx[p2] = steps - 1
                            wrote = True
                            value = r
                    elif ct == 1:  # UNC
                        rr = r if pval else False
                        if p1 > 0:
                            preds[p1] = rr
                            pdef_idx[p1] = steps - 1
                        if p2 > 0:
                            preds[p2] = (not r) if pval else False
                            pdef_idx[p2] = steps - 1
                        wrote = True
                        value = rr
                    elif ct == 2:  # AND
                        if pval and not r:
                            if p1 > 0:
                                preds[p1] = False
                                pdef_idx[p1] = steps - 1
                            if p2 > 0:
                                preds[p2] = False
                                pdef_idx[p2] = steps - 1
                            wrote = True
                            value = False
                    else:  # OR
                        if pval and r:
                            if p1 > 0:
                                preds[p1] = True
                                pdef_idx[p1] = steps - 1
                            if p2 > 0:
                                preds[p2] = True
                                pdef_idx[p2] = steps - 1
                            wrote = True
                            value = True
                    if wrote and rec_pdef is not None:
                        rec_pdef(i, steps - 1, value, p1)
                continue

            if o == 16:  # BR
                q = qp[i]
                taken = preds[q]
                if eventl[i]:
                    if rec_branch is not None:
                        rec_branch(
                            i,
                            steps - 1,
                            taken,
                            q,
                            pdef_idx[q],
                            kindl[i],
                            regionl[i],
                            targetl[i],
                        )
                    if prof_branch is not None and srcl[i] >= 0:
                        prof_branch(srcl[i], taken)
                if taken:
                    pc = targetl[i]
                continue

            if o == 13:  # LOAD
                if pval:
                    ra = ral[i]
                    addr = (regs[ra] if ra >= 0 else 0) + imml[i]
                    rd = rdl[i]
                    if rd:
                        # Non-faulting (IA-64 ld.s) semantics: predicated
                        # code evaluates both arms eagerly, so a load down
                        # a false path may form a wild address; it yields
                        # 0 instead of faulting.
                        if 0 <= addr < memlen:
                            regs[rd] = memory[addr]
                        else:
                            regs[rd] = 0
                continue

            if o == 14:  # STORE
                if pval:
                    ra = ral[i]
                    addr = (regs[ra] if ra >= 0 else 0) + imml[i]
                    if not 0 <= addr < memlen:
                        raise EngineError(f"store to bad address {addr}", i)
                    memory[addr] = regs[rbl[i]]
                continue

            if o == 17:  # CALL
                q = qp[i]
                taken = preds[q]
                if eventl[i] and rec_branch is not None:
                    rec_branch(
                        i,
                        steps - 1,
                        taken,
                        q,
                        pdef_idx[q],
                        kindl[i],
                        regionl[i],
                        targetl[i],
                    )
                if taken:
                    if len(call_stack) >= 4096:
                        raise EngineError("call stack overflow", i)
                    new_regs = [0] * NUM_GPR
                    for k in range(nargsl[i]):
                        new_regs[ARG_BASE + k] = regs[ARG_BASE + k]
                    target = targetl[i]
                    new_regs[R_SP] = regs[R_SP] - slots_at_entry[target]
                    call_stack.append((regs, preds, pdef_idx, pc, rdl[i]))
                    regs = new_regs
                    preds = [False] * NUM_PRED
                    preds[0] = True
                    pdef_idx = [-1] * NUM_PRED
                    pc = target
                continue

            if o == 18:  # RET
                q = qp[i]
                taken = preds[q]
                if eventl[i] and rec_branch is not None:
                    rec_branch(
                        i,
                        steps - 1,
                        taken,
                        q,
                        pdef_idx[q],
                        kindl[i],
                        regionl[i],
                        -1,
                    )
                if taken:
                    ra = ral[i]
                    value = regs[ra] if ra >= 0 else imml[i]
                    if not call_stack:
                        return_value = value
                        halted = True
                        break
                    regs, preds, pdef_idx, pc, rd = call_stack.pop()
                    if rd > 0:
                        regs[rd] = value
                continue

            if o == 19:  # HALT
                halted = True
                break

            # NOP (o == 0) or an always-false predicated oddity: fall through.

        return ExecResult(
            instructions=steps, return_value=return_value, halted=halted
        )


def run(
    executable: Executable,
    recorder=None,
    profile=None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> ExecResult:
    """Build a :class:`ReferenceInterpreter` and run it."""
    return ReferenceInterpreter(
        executable,
        recorder=recorder,
        profile=profile,
        max_instructions=max_instructions,
    ).run()
