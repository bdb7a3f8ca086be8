"""Translate a linked executable into block-level Python source.

The engine does not decode and dispatch one instruction at a time.  It
cuts the code into *chains*: maximal runs of consecutive instructions
that control can fall through, ending before a ``CALL``, ``RET`` or
``HALT`` (which the engine's outer loop executes) and after an
always-taken branch.  Each chain becomes one Python function in which
every instruction is a statement or two with its registers, immediates,
guard predicate and relation written in as literals.

A chain function is called as ``fn(R, P, D, s, pc)`` with the current
frame's register, predicate and predicate-define-index lists, the
dynamic instruction count and the pc to start at.  Inside, ``s`` is
rebased so that instruction ``j`` has dynamic index ``s + j``.  A pc in
the middle of a chain that some branch targets is entered through an
``if pc <= j:`` guard that skips the sections before it; a taken branch
to a target in the same chain loops back to those guards, and any other
taken branch returns ``(target, steps)`` to the outer loop.  Falling off
the chain's end returns ``(end, steps)``.

The instruction limit is checked in one of two ways:

* ``checked=False`` (the normal translation) tests once per pass through
  a chain whether the whole chain still fits under the limit, and raises
  :class:`NearLimit` with the pass's pc and step count when it may not;
* ``checked=True`` tests before every instruction and raises the
  engine's limit error at exactly the pc where the reference loop would.
  The engine switches to it only after a :class:`NearLimit`.

Recording appends the dynamic fields of each event to two flat lists:
``pc, dynamic index, taken, guard-define index`` per branch and
``pc, dynamic index, value`` per predicate define (see
:meth:`repro.trace.recorder.TraceRecorder.attach`).
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import CmpType, Opcode
from repro.isa.program import Executable

#: Opcodes the engine's outer loop executes; a chain never contains one.
_OUTER_OPCODES = frozenset({Opcode.CALL, Opcode.RET, Opcode.HALT})

_REL = ("==", "!=", "<", "<=", ">", ">=")
_NEGATED_REL = ("!=", "==", ">=", ">", "<=", "<")
_BINOPS = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.AND: "&",
    Opcode.OR: "|",
    Opcode.XOR: "^",
}
#: The signed 64-bit range; a result outside it goes through ``W``.
_IN_RANGE = "-0x8000000000000000 <= v <= 0x7FFFFFFFFFFFFFFF"


class NearLimit(Exception):
    """A chain pass might cross the instruction limit.

    Raised by a normal translation before the pass executes anything;
    ``args`` is ``(pc, steps)``, the state to resume from under a checked
    translation.
    """


@dataclass
class Translation:
    """Generated source plus where each chain may be entered."""

    #: chain function name -> its source (one ``def``)
    sources: Dict[str, str]
    #: pc -> name of the chain function entered there
    entries: Dict[int, str]


def _chains(code: List[Instruction]) -> List[Tuple[int, int]]:
    """``(start, end)`` pc ranges of the executable's chains."""
    out = []
    n = len(code)
    i = 0
    while i < n:
        if code[i].op in _OUTER_OPCODES:
            i += 1
            continue
        start = i
        while i < n and code[i].op not in _OUTER_OPCODES:
            instr = code[i]
            i += 1
            if instr.op == Opcode.BR and instr.qp == 0:
                break
        out.append((start, i))
    return out


def translate(executable: Executable, *, limit: int, record: bool,
              profile: bool, checked: bool) -> Translation:
    """Generate the chain functions for ``executable``.

    ``record`` and ``profile`` add the trace and profile hooks; the
    functions read them, and the memory list, from default arguments
    ``M``, ``B`` (branch events), ``Q`` (predicate defines) and ``PR``
    (the profile's ``record_branch``).  Helpers ``W`` (64-bit wrap),
    ``DV``/``MD`` (division), ``BS`` (bad store), ``LM`` (limit error)
    and ``NR`` (:class:`NearLimit`) are globals of the namespace the
    source runs in.
    """
    code = executable.code
    writer = _Writer(code, limit, executable.memory_words, record, profile,
                     checked)
    # Every pc control can arrive at other than by falling through.
    targets = {executable.entry} | {
        instr.target for instr in code
        if instr.op == Opcode.BR or instr.op == Opcode.CALL
    }
    sources: Dict[str, str] = {}
    entries: Dict[int, str] = {}
    for start, end in _chains(code):
        chain_entries = [start] + sorted(
            t for t in targets if start < t < end
        )
        name = f"c{start}"
        sources[name] = writer.chain(name, start, end, chain_entries)
        for pc in chain_entries:
            entries[pc] = name
    return Translation(sources=sources, entries=entries)


class _Writer:
    def __init__(self, code, limit, memory_words, record, profile, checked):
        self.code = code
        self.limit = limit
        self.memory_words = memory_words
        self.record = record
        self.profile = profile
        self.checked = checked

    # -- chains -----------------------------------------------------------

    def chain(self, name: str, start: int, end: int,
              entries: List[int]) -> str:
        """The source of one chain function."""
        code = self.code
        loops = any(
            code[j].op == Opcode.BR and start <= code[j].target < end
            and code[j].target != j + 1
            for j in range(start, end)
        )
        defaults = "M=M"
        if self.record:
            defaults += ", B=B, Q=Q"
        if self.profile:
            defaults += ", PR=PR"
        out = [f"def {name}(R, P, D, s, pc, {defaults}):", " s -= pc"]
        pad = " "
        if loops:
            out.append(" while True:")
            pad = "  "
        if not self.checked:
            out.append(f"{pad}if s + {end} > {self.limit}: "
                       f"raise NR(pc, s + pc)")
        bounds = entries + [end]
        for k in range(len(entries)):
            body = self._section(bounds[k], bounds[k + 1], start, end)
            if len(entries) == 1:
                out.extend(pad + line for line in body)
            elif body:
                out.append(f"{pad}if pc <= {bounds[k]}:")
                out.extend(pad + " " + line for line in body)
        out.append(f"{pad}return {end}, s + {end}")
        return "\n".join(out) + "\n"

    def _section(self, lo: int, hi: int, start: int, end: int) -> List[str]:
        """Instructions ``lo .. hi-1``, run in order from ``lo``."""
        code = self.code
        body: List[str] = []
        j = lo
        while j < hi:
            instr = code[j]
            if self.checked:
                body.append(f"if s + {j} >= {self.limit}: LM({j})")
            if instr.op == Opcode.BR:
                body.extend(self._branch(j, instr, start, end))
                j += 1
                continue
            q = instr.qp
            if q == 0 or self._guards_itself(instr):
                body.extend(self._plain(j, instr))
                j += 1
                continue
            # Consecutive instructions under the same guard share one
            # test, up to and including one that rewrites the guard.
            group: List[str] = []
            while True:
                group.extend(self._plain(j, code[j]))
                writes_guard = code[j].op == Opcode.CMP and q in (
                    code[j].pd1, code[j].pd2
                )
                j += 1
                if (writes_guard or self.checked or j >= hi
                        or code[j].qp != q or code[j].op == Opcode.BR
                        or self._guards_itself(code[j])):
                    break
            if group:
                body.append(f"if P[{q}]:")
                body.extend(" " + line for line in group)
        return body

    @staticmethod
    def _guards_itself(instr: Instruction) -> bool:
        """An unconditional compare writes its targets under a false
        guard too, so it cannot share a guard test."""
        return (
            instr.op == Opcode.CMP and instr.ctype == CmpType.UNC
            and instr.qp != 0
        )

    # -- branches ---------------------------------------------------------

    def _branch(self, j: int, instr: Instruction, start: int,
                end: int) -> List[str]:
        q = instr.qp
        t = instr.target
        if start <= t < end:
            jump = [] if t == j + 1 else [
                f"s += {j + 1 - t}", f"pc = {t}", "continue"
            ]
        else:
            jump = [f"return {t}, s + {j + 1}"]
        if q == 0:
            return self._branch_event(j, instr, True) + jump
        taken = self._branch_event(j, instr, True) + jump
        not_taken = self._branch_event(j, instr, False)
        if not taken:  # no hooks and a jump to the next instruction
            return []
        lines = [f"if P[{q}]:"] + [" " + x for x in taken]
        if not jump and not_taken:
            lines.append("else:")
            lines.extend(" " + x for x in not_taken)
        else:
            lines.extend(not_taken)
        return lines

    def _branch_event(self, j: int, instr: Instruction,
                      taken: bool) -> List[str]:
        if not instr.is_branch_event():
            return []
        lines = []
        if self.record:
            guard_def = "-1" if instr.qp == 0 else f"D[{instr.qp}]"
            lines.append(f"B += ({j}, s + {j}, {taken}, {guard_def})")
        if self.profile and instr.src_id >= 0:
            lines.append(f"PR({instr.src_id}, {taken})")
        return lines

    # -- everything else --------------------------------------------------

    def _plain(self, j: int, instr: Instruction) -> List[str]:
        """Lines for one non-branch instruction, as if its guard held
        (an unconditional compare under a real guard tests it here)."""
        op = instr.op
        if Opcode.ADD <= op <= Opcode.SRA:
            return self._alu(instr)
        if op == Opcode.MOV:
            if not instr.rd:
                return []
            value = f"R[{instr.ra}]" if instr.ra >= 0 else repr(instr.imm)
            return [f"R[{instr.rd}] = {value}"]
        if op == Opcode.LOAD:
            return self._load(instr)
        if op == Opcode.STORE:
            return self._store(j, instr)
        if op == Opcode.CMP:
            return self._cmp(j, instr)
        return []  # NOP

    def _alu(self, instr: Instruction) -> List[str]:
        rd = instr.rd
        if not rd:
            return []
        op = instr.op
        a = f"R[{instr.ra}]"
        imm = instr.rb < 0
        b = repr(instr.imm) if imm else f"R[{instr.rb}]"
        target = f"R[{rd}]"
        if op in _BINOPS:
            expr = f"{a} {_BINOPS[op]} {b}"
        elif op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
            shift = repr(instr.imm & 63) if imm else f"({b} & 63)"
            if op == Opcode.SHL:
                expr = f"{a} << {shift}"
            elif op == Opcode.SRA:
                expr = f"{a} >> {shift}"
            else:
                expr = f"({a} & 0xFFFFFFFFFFFFFFFF) >> {shift}"
                if imm and instr.imm & 63:
                    # Below 2**63 already: no wrap.
                    return [f"{target} = {expr}"]
        elif imm and instr.imm == 0:  # DIV/MOD by zero yields 0
            return [f"{target} = 0"]
        elif imm and instr.imm > 0:
            # Truncating division by a positive constant.  A remainder
            # is smaller than the divisor, so MOD needs no wrap.
            d = instr.imm
            if op == Opcode.MOD:
                return [f"{target} = {a} % {d} if {a} >= 0 "
                        f"else -(-{a} % {d})"]
            expr = f"{a} // {d} if {a} >= 0 else -(-{a} // {d})"
        else:
            helper = "DV" if op == Opcode.DIV else "MD"
            return [f"{target} = {helper}({a}, {b})"]
        return [f"v = {expr}", f"{target} = v if {_IN_RANGE} else W(v)"]

    def _address(self, instr: Instruction) -> str:
        if instr.imm:
            return f"a = R[{instr.ra}] + {instr.imm!r}"
        return f"a = R[{instr.ra}]"

    def _load(self, instr: Instruction) -> List[str]:
        # Non-faulting: a wild address loads 0.
        rd = instr.rd
        if not rd:
            return []
        words = self.memory_words
        if instr.ra < 0:
            addr = instr.imm
            value = f"M[{addr}]" if 0 <= addr < words else "0"
            return [f"R[{rd}] = {value}"]
        return [
            self._address(instr),
            f"R[{rd}] = M[a] if 0 <= a < {words} else 0",
        ]

    def _store(self, j: int, instr: Instruction) -> List[str]:
        value = f"R[{instr.rb}]"
        if instr.ra < 0:
            addr = instr.imm
            if 0 <= addr < self.memory_words:
                return [f"M[{addr}] = {value}"]
            return [f"BS({addr}, {j})"]
        return [
            self._address(instr),
            f"if 0 <= a < {self.memory_words}: M[a] = {value}",
            f"else: BS(a, {j})",
        ]

    def _cmp(self, j: int, instr: Instruction) -> List[str]:
        a = f"R[{instr.ra}]" if instr.ra >= 0 else "0"
        b = f"R[{instr.rb}]" if instr.rb >= 0 else repr(instr.imm)
        rel = int(instr.crel)
        test = f"{a} {_REL[rel]} {b}"
        p1, p2 = instr.pd1, instr.pd2
        idx = f"s + {j}"
        ctype = instr.ctype

        def writes(value: str, inverse: str) -> List[str]:
            lines = []
            if p1 > 0:
                lines.append(f"P[{p1}] = {value}")
            if p2 > 0:
                lines.append(f"P[{p2}] = {inverse}")
            return lines

        defs = [f"D[{p}]" for p in (p1, p2) if p > 0]
        stamp = [" = ".join(defs) + f" = {idx}"] if defs else []

        def event(value: str) -> List[str]:
            return [f"Q += ({j}, {idx}, {value})"] if self.record else []

        if ctype == CmpType.AND or ctype == CmpType.OR:
            value = "True" if ctype == CmpType.OR else "False"
            cond = test if ctype == CmpType.OR else (
                f"{a} {_NEGATED_REL[rel]} {b}"
            )
            body = writes(value, value) + stamp + event(value)
            return [f"if {cond}:"] + [" " + x for x in body] if body else []
        if ctype == CmpType.UNC and instr.qp != 0:
            # Under a false guard both targets are cleared to false.
            if not (self.record or p1 > 0 or p2 > 0):
                return []
            need_r = self.record or (p1 > 0 and p2 > 0)
            if need_r:
                true_arm = [f"r = {test}"] + writes("r", "not r")
                false_arm = ["r = False"] + writes("False", "False")
            else:
                true_arm = writes(test, f"not ({test})")
                false_arm = writes("False", "False")
            lines = [f"if P[{instr.qp}]:"] + [" " + x for x in true_arm]
            if false_arm:
                lines += ["else:"] + [" " + x for x in false_arm]
            return lines + stamp + event("r")
        # NORMAL, or UNC under p0: the guard holds.
        if not self.record and not (p1 > 0 and p2 > 0):
            return writes(test, f"not ({test})") + stamp
        return [f"r = {test}"] + writes("r", "not r") + stamp + event("r")
