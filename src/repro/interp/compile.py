"""Compiled execution backend: one generated Python closure per function.

The tree-walking interpreter (:mod:`repro.interp.interpreter`) pays, for
every executed operation, the full dispatch tax: an opcode comparison
chain, per-operand ``isinstance`` checks, a call into
:func:`~repro.passes.constant_folding.evaluate_pure_op` and a dict
write.  This module translates each function *once* into one closure:

* control flow follows the CFG's dominator tree (Relooper-style
  structuring): a natural loop is ``while True:``, its back edge
  ``continue`` and the edge to its exit ``break``; a forward branch is
  ``if``/``else`` and its join the code after it; ``RET`` is ``return``.  A block whose own edges are all ``continue``, ``break``
  or fall-through (a ``for`` loop's step block) is emitted once more at
  a ``continue`` nested in the body.  An irreducible CFG, a forward
  edge the structuring cannot place and nesting deeper than Python's
  static block limit refuse the whole function (``C004``);
* registers are **locals**: parameters are read from ``R`` once, at
  entry, and registers go back to ``R`` only when the frame is handed
  to the walker (``except _RW:``); a ``RET`` or a trap writes nothing
  back, because the frame dies.  A read of a register that some path
  leaves unassigned (:class:`~repro.analysis.dataflow.
  DefiniteAssignment`) checks for ``None`` and raises the walker's
  ``read of undefined register`` trap;
* steps accumulate as **constants** in the local ``_s``; ``I._steps``
  is committed only on a path that leaves the closure: before a
  ``CALL``, a ``return`` or a ``raise``.  The budget is checked by a
  guard at entry, after each ``CALL`` and at every back edge, each
  sized by the longest acyclic path to the next check; when the budget
  could expire before it, the closure raises :class:`ResumeOnWalker`
  and the walker runs the rest of the frame from that op, so
  :class:`~repro.interp.interpreter.ExecutionLimitExceeded` fires at
  exactly the walker's step index with exactly its side effects;
* block entries are counted in int locals and added, in one
  ``finally`` (traps included), to the function's run-long tally
  ``C``, which :meth:`~repro.interp.interpreter.Interpreter.run` folds
  into :class:`~repro.interp.profile.ProfileData` once per run;
* ``LOAD``/``STORE`` index the memory rows, bound once at entry,
  **inline** when ``0 <= i < len`` holds (a store wraps its value as
  :meth:`Memory.store` does); any other index, or an array the image
  lacks (bound as ``()``), takes the slow path, which commits the exact
  step count and lets :meth:`Memory.load`/``store`` raise the trap;
* opcode semantics are **inlined**: the 32-bit wrap of
  :func:`repro.ir.values.wrap32` is emitted in closed form exactly
  where an operation can leave the canonical range, and omitted where
  it is a provable identity; ``ISEInstruction`` nodes inline their
  AFU's gate netlist through the same per-opcode expressions
  (:func:`_pure_expr`).  ``tests/interp/test_backend_equivalence.py``
  holds the generated code bit-identical to ``evaluate_pure_op``.

Closures are cached in a process-wide **LRU** memo keyed on
:func:`function_digest`, a composition of the function's
:func:`block_digest` s (built on
:func:`repro.store.keys.canonical_digest`), so the clones
``rewrite_module`` makes reuse the closure of every function whose
instruction streams are unchanged.  :func:`build_function_table` maps
the entry label to the closure and every other label to ``None``: the
dispatch loop runs a refused function, and the rest of a frame handed
over by :class:`ResumeOnWalker`, on the walker's reference executor.
:func:`code_memo_stats` counts refusals by diagnostic code.

The walker remains the semantic oracle: the compiled backend must match
its ``RunResult`` values, step counts, profiles, traps and measured
cycles bit-for-bit on every workload, which the differential test suite
and ``benchmarks/bench_interp.py`` enforce.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.dataflow import DefiniteAssignment, Liveness, NaturalLoops
from ..ir.function import BasicBlock, Function
from ..ir.instructions import Instruction, ISEInstruction
from ..ir.opcodes import Opcode, opinfo
from ..ir.values import Const, Reg, wrap32
from ..store.keys import canonical_digest
from .interpreter import ResumeOnWalker
from .memory import TrapError

__all__ = [
    "BlockCode", "CodeMemoStats", "ResumeOnWalker", "block_digest",
    "build_function_table", "clear_code_memo", "code_memo_stats",
    "compile_block", "compile_region", "function_digest",
]


#: Bump when generated-code semantics change: digest-keyed closures from
#: the old generator must not be reused by a process mixing versions
#: (the memo is in-process only, so this mostly documents intent).
#: v2-v8: block chains (regions) and loop units as separate closures,
#: dispatched label by label.  v9: one closure per function, its control
#: flow structured from the dominator tree (``while True:``/``continue``/
#: ``break``/``if``); it returns the function's value, and registers go
#: back to ``R`` only on a hand-off to the walker.
CODEGEN_VERSION = 9

_MASK = "4294967295"            # 0xFFFFFFFF
_SIGN = "2147483648"            # 0x80000000


@dataclass
class BlockCode:
    """One function's compiled artifact (or fallback).

    Attributes:
        fn: the generated closure, ``fn(I, R, M, CALL, C)`` with the
            interpreter, the register dict (the parameters), the memory
            image's arrays dict, ``Interpreter._call`` bound to the next
            call depth and the function's block-entry tally, a
            ``defaultdict(int)``; returns the function's value.
            ``None`` when codegen fell back to the walker.
        label: the entry block's label (diagnostics only).
        source: the generated Python text (debugging aid).
        digest: structural digest the memo is keyed on.
        reason: diagnostic code of a fallback (``fn=None``): ``C0xx``
            for an untranslatable function, a verifier code (``V002``,
            ``V102``, …) for ill-formed IR; ``None`` when compiled.
        detail: human-readable fallback detail (empty when compiled).
    """

    fn: Optional[object]
    label: str
    source: str = ""
    digest: str = ""
    reason: Optional[str] = None
    detail: str = ""


@dataclass
class CodeMemoStats:
    """Telemetry of the in-process code memo.

    ``compiled`` counts successful codegen runs (``regions`` of which
    were functions of more than one block), ``hits`` memo reuse,
    ``fallbacks`` untranslatable functions, broken down by diagnostic
    code (:attr:`BlockCode.reason`) in ``fallback_codes``, and
    ``evictions`` LRU drops.  ``replays`` counts run-time hand-offs of
    a compiled frame to the walker (:class:`ResumeOnWalker`): 0 on a
    run whose step budget never came close.
    """

    compiled: int = 0
    hits: int = 0
    fallbacks: int = 0
    regions: int = 0
    evictions: int = 0
    replays: int = 0
    fallback_codes: Dict[str, int] = field(default_factory=dict)

    def count_fallback(self, code: "BlockCode") -> None:
        """Record one fallback artifact under its diagnostic code."""
        self.fallbacks += 1
        reason = code.reason or "C001"
        self.fallback_codes[reason] = (
            self.fallback_codes.get(reason, 0) + 1)

    def as_dict(self) -> dict:
        """Flat dict for JSON artifacts and benchmark reports."""
        return {**asdict(self), "fallback_codes": dict(sorted(
            self.fallback_codes.items()))}


#: Memo capacity.  Eviction is least-recently-used, one entry at a
#: time, so a long session cannot pin closures without bound while its
#: hot working set stays warm; far above any realistic working set.
MEMO_LIMIT = 4096

_MEMO: "OrderedDict[str, BlockCode]" = OrderedDict()
_STATS = CodeMemoStats()


def _afu_token(afu) -> Tuple:
    """Canonical encoding of a bound AFU's *observable* surface.

    Covers what :meth:`FusedAFU.evaluate` reads — the gate netlist,
    port order and output wires — plus the unit *name*, because the
    generated trap message bakes ``str(insn)`` (which includes the
    name) into the closure; two blocks may share compiled code only if
    even their trap text is identical.  Latency and area stay out:
    they are cost metadata with no execution semantics.
    """
    gates = tuple(
        (gate.opcode.value, gate.output,
         tuple(("i", w) if isinstance(w, int) else ("w", w)
               for w in gate.inputs))
        for gate in afu.gates)
    return (getattr(afu, "name", None), gates,
            tuple(afu.input_ports), tuple(afu.output_wires))


def block_digest(block: BasicBlock) -> str:
    """SHA-256 over the execution-relevant structure of *block*.

    Covers opcodes, destination/operand register names, constants,
    array symbols, callees, branch targets and — for ISE nodes — the
    full functional netlist of the bound AFU, so two digest-equal
    blocks are guaranteed to execute identically.  Register *names*
    are semantic here (they key the caller's register dict), unlike in
    :func:`repro.store.keys.dfg_digest` where they are cosmetic.
    """
    insns: List[Tuple] = []
    for insn in block.instructions:
        record: Tuple = (
            insn.opcode.value,
            insn.dest,
            tuple(("c", op.value) if isinstance(op, Const)
                  else ("r", op.name) for op in insn.operands),
            insn.array,
            insn.callee,
            insn.targets,
        )
        if isinstance(insn, ISEInstruction):
            record += (insn.dests, _afu_token(insn.afu))
        insns.append(record)
    return canonical_digest("blockcode-v1", CODEGEN_VERSION,
                            block.label, tuple(insns))


def function_digest(params: Sequence[str],
                    block_digests: Sequence[str]) -> str:
    """SHA-256 over a function: its parameters and block digests.

    Purely structural by construction — a rewritten module's cloned
    function (identical instruction streams, labels and AFU netlists)
    derives the same key as the run that first compiled it, so
    ``repro run --rewrite`` reuses in-process closures instead of
    recompiling them.
    """
    return canonical_digest("funccode-v1", CODEGEN_VERSION,
                            tuple(params), tuple(block_digests))


# ----------------------------------------------------------------------
# Code generation.
# ----------------------------------------------------------------------
class _UnsupportedBlock(Exception):
    """Raised by the generator when a function cannot be translated,
    with a stable diagnostic code (``C0xx`` for codegen limits, a
    verifier ``V`` code for ill-formed IR — see
    :data:`repro.analysis.diagnostics.CODES`): ``args`` is ``(code,
    detail)``."""


def _load_slow(interp, steps: int, array: str, index: int) -> int:
    """A ``LOAD`` the inline bounds check refused: commit the walker's
    step count, then let :meth:`Memory.load` raise the walker's trap."""
    interp._steps = steps
    return interp.memory.load(array, index)


def _store_slow(interp, steps: int, array: str, index: int,
                value: int) -> None:
    """The ``STORE`` twin of :func:`_load_slow`."""
    interp._steps = steps
    interp.memory.store(array, index, value)


def _wrap(expr: str) -> str:
    """Closed-form ``wrap32`` of *expr* (expr may exceed 32 bits)."""
    return f"((({expr}) & {_MASK}) ^ {_SIGN}) - {_SIGN}"


def _wrap_unsigned(expr: str) -> str:
    """Closed-form ``wrap32`` of *expr* already in ``[0, 2**32)``."""
    return f"(({expr}) ^ {_SIGN}) - {_SIGN}"


_DIVISIONS = (Opcode.DIV, Opcode.REM)
_COMPARISONS = {Opcode.EQ: "==", Opcode.NE: "!=", Opcode.SLT: "<",
                Opcode.SLE: "<=", Opcode.SGT: ">", Opcode.SGE: ">="}


def _pure_expr(op: Opcode, reads: Sequence[str],
               operands: Sequence) -> str:
    """Expression text inlining ``evaluate_pure_op`` for one pure op.

    The one opcode table of the generator, shared by software ops and
    AFU netlist gates.  *reads* are the operand expressions (atoms,
    self-delimiting); *operands* the matching operands, consulted only
    for constness.  DIV/REM assume a non-zero divisor: the caller emits
    the trap guard (:meth:`_FunctionCompiler._emit_division_guard`).
    """
    if op is Opcode.DIV:
        # int(a / b): float division truncates toward zero and is exact
        # for 32-bit magnitudes; only -2**31 / -1 leaves the canonical
        # range, hence the wrap.
        return _wrap(f"int({reads[0]} / {reads[1]})")
    if op is Opcode.REM:
        # |a - trunc(a/b)*b| < |b| <= 2**31: wrap is identity.
        return f"{reads[0]} - int({reads[0]} / {reads[1]}) * {reads[1]}"
    if op is Opcode.ADD:
        return _wrap(f"{reads[0]} + {reads[1]}")
    if op is Opcode.SUB:
        return _wrap(f"{reads[0]} - {reads[1]}")
    if op is Opcode.MUL:
        return _wrap(f"{reads[0]} * {reads[1]}")
    if op is Opcode.NEG:
        return _wrap(f"-{reads[0]}")
    if op is Opcode.AND:
        return f"{reads[0]} & {reads[1]}"
    if op is Opcode.OR:
        return f"{reads[0]} | {reads[1]}"
    if op is Opcode.XOR:
        return f"{reads[0]} ^ {reads[1]}"
    if op is Opcode.NOT:
        return f"~{reads[0]}"
    if op in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
        amount = operands[1]
        shift = (f"({amount.value & 31})" if isinstance(amount, Const)
                 else f"({reads[1]} & 31)")
        if op is Opcode.SHL:
            return _wrap(f"({reads[0]} & {_MASK}) << {shift}")
        if op is Opcode.LSHR:
            return _wrap_unsigned(f"({reads[0]} & {_MASK}) >> {shift}")
        return f"{reads[0]} >> {shift}"  # canonical ASHR stays canonical
    if op in _COMPARISONS:
        return f"1 if {reads[0]} {_COMPARISONS[op]} {reads[1]} else 0"
    if op is Opcode.COPY:
        return reads[0]
    if op is Opcode.SELECT:
        return f"{reads[1]} if {reads[0]} != 0 else {reads[2]}"
    raise _UnsupportedBlock("C001", f"opcode {op}")


class _FunctionCompiler:
    """Translates one function into one Python closure (module doc).

    A loop header opens ``while True:``; an edge to the innermost
    loop's header is ``continue`` and one to its follow (the exit its
    ``break`` reaches) is ``break``; a block with one forward
    predecessor is emitted inline at that edge, and a join after the
    code of its immediate dominator, so the arms that reach it fall
    through into it.  Any other edge is refused (``C004``) unless its
    target can be emitted once more in place (:meth:`_jump`).
    """

    def __init__(self, blocks: Sequence[BasicBlock],
                 params: Optional[Sequence[str]]) -> None:
        self.blocks = list(blocks)
        self.params = params
        self.locals: Dict[str, str] = {}      # register name -> local
        self.index = {block.label: number
                      for number, block in enumerate(self.blocks)}
        self.gate_locals = 0                  # AFU gate locals emitted
        self.rows: Dict[str, Tuple[str, str]] = {}  # array -> row, len
        self.limits: Dict[int, str] = {}      # back-edge guard -> local
        self.checked: set = set()             # registers read unsafely
        self.counted: set = set()             # labels with a ``_k`` local
        self.resumes = False                  # a RW site is emitted
        self.pend = 0                         # steps since ``_s`` exact
        self.out: List[str] = []
        self.ind = 1
        self.live = True                      # code here is reachable

    # -- naming --------------------------------------------------------
    def _local(self, reg_name: str) -> str:
        local = self.locals.get(reg_name)
        if local is None:
            local = f"v{len(self.locals)}"
            self.locals[reg_name] = local
        return local

    def _read(self, operand) -> str:
        """Expression text for one operand (atoms are self-delimiting)."""
        if isinstance(operand, Const):
            return f"({operand.value})"
        if not isinstance(operand, Reg):
            raise _UnsupportedBlock("C002", f"operand {operand!r}")
        return self._local(operand.name)

    def _define(self, reg_name: str) -> str:
        self.assigned.add(reg_name)
        return self._local(reg_name)

    def _row(self, array: str) -> Tuple[str, str]:
        """The locals holding *array*'s row and its length, bound once
        at closure entry."""
        names = self.rows.get(array)
        if names is None:
            names = self.rows[array] = (f"r{len(self.rows)}",
                                        f"n{len(self.rows)}")
        return names

    def emit(self, line: str, extra: int = 0) -> None:
        self.out.append("    " * (self.ind + extra) + line)

    def _commit(self) -> str:
        return f"I._steps = _s + {self.pend}" if self.pend else \
            "I._steps = _s"

    def _flush(self) -> None:
        """Make ``_s`` exact: every path into a join, a loop header or a
        ``break`` arrives with no pending steps."""
        if self.pend:
            self.emit(f"_s += {self.pend}")
            self.pend = 0

    # -- per-op emission ----------------------------------------------
    def _emit_checks(self, insn: Instruction) -> None:
        """The walker's ``read of undefined register`` trap, in operand
        order, for every read the register may be unassigned at."""
        for operand in insn.operands:
            if not isinstance(operand, Reg):
                continue
            name = operand.name
            if name in self.assigned:
                continue
            self.checked.add(name)
            self.assigned.add(name)
            self.emit(f"if {self._local(name)} is None:")
            self.emit(self._commit(), 1)
            self.emit(f"raise _TE({f'read of undefined register %{name}'!r})",
                      1)

    def _emit_insn(self, insn: Instruction) -> None:
        """Emit one instruction (never a terminator)."""
        op = insn.opcode
        emit = self.emit
        if op is Opcode.LOAD:
            index = self._read(insn.operands[0])
            dst = self._define(insn.dest)
            row, size = self._row(insn.array)
            emit(f"{dst} = {row}[{index}] if 0 <= {index} < {size} "
                 f"else _LD(I, _s + {self.pend}, {insn.array!r}, "
                 f"{index})")
        elif op is Opcode.STORE:
            index = self._read(insn.operands[0])
            operand = insn.operands[1]
            value = self._read(operand)
            stored = (f"({wrap32(operand.value)})"
                      if isinstance(operand, Const) else _wrap(value))
            row, size = self._row(insn.array)
            emit(f"if 0 <= {index} < {size}:")
            emit(f"{row}[{index}] = {stored}", 1)
            emit("else:")
            emit(f"_ST(I, _s + {self.pend}, {insn.array!r}, {index}, "
                 f"{value})", 1)
        elif op is Opcode.ISE:
            self._emit_ise(insn)
        else:
            self._emit_pure(insn)

    def _emit_ise(self, insn: ISEInstruction) -> None:
        """Inline the bound AFU's gate netlist as straight-line locals.

        Mirrors :meth:`FusedAFU.evaluate` plus the walker's write-back:
        ports bind the operand reads (a repeated port keeps its last
        value), and every gate writes a local through :func:`_pure_expr`.
        The last gate driving an output wire writes straight into its
        dest's local when no port reads that local, the wire is not a
        port and no earlier dest took the local; every other gate writes
        a fresh ``g<k>``, and the remaining dests are assigned after the
        last gate in one parallel assignment, so an output forwarding a
        port sees its entry value.  A trap writes nothing back, so an
        early dest write is never observed.  Netlists the walker would
        crash on (undriven wires, short gates, non-canonical constants)
        fall back to it.
        """
        afu = insn.afu
        reads = [self._read(operand) for operand in insn.operands]
        wires: Dict[str, str] = dict(zip(afu.input_ports, reads))
        # Output wire -> dest local its last driving gate writes.
        direct: Dict[str, str] = {}
        for dest, wire in zip(insn.dests, afu.output_wires):
            local = self._local(dest)
            if (wire not in wires and wire not in direct
                    and local not in reads
                    and local not in direct.values()):
                direct[wire] = local
        last_driver = {gate.output: number
                       for number, gate in enumerate(afu.gates)}
        msg = (f"trap inside custom instruction {insn} "
               f"(division by zero)")
        emit = self.emit
        for number, gate in enumerate(afu.gates):
            op = gate.opcode
            if len(gate.inputs) < opinfo(op).arity:
                raise _UnsupportedBlock(
                    "V101", f"{insn}: gate {gate.output} arity")
            args, operands = [], []
            for wire in gate.inputs:
                if isinstance(wire, int):
                    if wire != wrap32(wire):
                        raise _UnsupportedBlock(
                            "C002", f"{insn}: constant {wire!r}")
                    args.append(f"({wire})")
                    operands.append(Const(wire))
                elif wire in wires:
                    args.append(wires[wire])
                    operands.append(Reg(wire))
                else:
                    raise _UnsupportedBlock(
                        "V303", f"{insn}: undriven wire {wire!r}")
            expr = _pure_expr(op, args, operands)
            self._emit_division_guard(op, operands, args, msg)
            local = (direct.get(gate.output)
                     if last_driver[gate.output] == number else None)
            if local is None:
                local = f"g{self.gate_locals}"
                self.gate_locals += 1
            emit(f"{local} = {expr}")
            wires[gate.output] = local
        missing = [w for w in afu.output_wires if w not in wires]
        if missing:
            raise _UnsupportedBlock(
                "V303", f"{insn}: undriven output {missing[0]!r}")
        pairs = [(self._define(dest), wires[wire])
                 for dest, wire in zip(insn.dests, afu.output_wires)]
        pairs = [(dst, value) for dst, value in pairs if dst != value]
        if pairs:
            dests = ", ".join(dst for dst, _ in pairs)
            values = ", ".join(value for _, value in pairs)
            emit(f"{dests} = {values}")

    def _emit_call(self, insn: Instruction, label: str,
                   position: int) -> None:
        """Commit the steps, call, then re-check the budget: the callee
        spent steps no guard could know.  On failure the rest of the
        frame runs on the walker, from the op after the ``CALL``."""
        args = ", ".join(self._read(op) for op in insn.operands)
        args = f"({args},)" if insn.operands else "()"
        emit = self.emit
        emit(self._commit())
        if insn.dest is None:
            emit(f"CALL({insn.callee!r}, {args})")
        else:
            emit(f"_t = CALL({insn.callee!r}, {args})")
            emit("if _t is None:")
            void_msg = f"void result of {insn.callee!r} used"
            emit(f"raise _TE({void_msg!r})", 1)
            emit(f"{self._define(insn.dest)} = _t")
        self.pend = 0
        self.resumes = True
        emit("_s = I._steps")
        emit(f"if _s + {self._span(label, position + 1)} > I.max_steps:")
        emit(f"raise _RW({label!r}, {position + 1})", 1)

    def _emit_division_guard(self, op: Opcode, operands: Sequence,
                             reads: Sequence[str], msg: str) -> None:
        """Emit the ``TrapError`` check of a DIV/REM (no-op otherwise).

        The trap branch commits the exact step count before it raises,
        so a caller catching the ``TrapError`` sees the walker's counter.
        A constant zero divisor traps unconditionally, exactly like the
        walker reaching the op, so emission ends there (``_DeadCode``);
        a non-zero constant needs no check at all.
        """
        if op not in _DIVISIONS:
            return
        divisor = operands[1]
        emit = self.emit
        if isinstance(divisor, Const):
            if divisor.value == 0:
                emit(self._commit())
                emit(f"raise _TE({msg!r})")
                raise _DeadCode()
            return
        emit(f"if {reads[1]} == 0:")
        emit(self._commit(), 1)
        emit(f"raise _TE({msg!r})", 1)

    def _emit_pure(self, insn: Instruction) -> None:
        """Inline the ``evaluate_pure_op`` semantics of one pure op."""
        reads = [self._read(operand) for operand in insn.operands]
        if insn.dest is None:
            raise _UnsupportedBlock("V102",
                                    f"pure op without dest: {insn}")
        expr = _pure_expr(insn.opcode, reads, insn.operands)
        self._emit_division_guard(insn.opcode, insn.operands, reads,
                                  f"trap in {insn} (division by zero?)")
        self.emit(f"{self._define(insn.dest)} = {expr}")

    # -- analysis ------------------------------------------------------
    def _analyse(self) -> None:
        """Reachable blocks, loops, joins, follows and placements."""
        by_label = {block.label: block for block in self.blocks}
        self.code: Dict[str, List[Instruction]] = {}
        stack = [self.blocks[0].label]
        while stack:
            label = stack.pop()
            if label in self.code:
                continue
            insns = by_label[label].instructions
            end = next((number for number, insn in enumerate(insns)
                        if insn.is_terminator), None)
            if end is None:
                # The walker's fall-through TrapError (and its exact
                # step accounting) is easier to inherit than to
                # replicate.  V002: an IR well-formedness failure.
                raise _UnsupportedBlock("V002", "no terminator")
            terminator = insns[end]
            if terminator.opcode not in (Opcode.BR, Opcode.JMP,
                                         Opcode.RET):
                raise _UnsupportedBlock("C001",
                                        f"terminator {terminator.opcode}")
            for target in terminator.targets:
                if target not in by_label:
                    raise _UnsupportedBlock(
                        "C004", f"edge to unknown block {target!r}")
                stack.append(target)
            self.code[label] = insns[:end + 1]
        shim = Function("unit", params=self.params or ())
        shim.blocks = [block for block in self.blocks
                       if block.label in self.code]
        shim.reindex()
        loops = NaturalLoops(shim)
        if not loops.reducible:
            raise _UnsupportedBlock("C004", "irreducible control flow")
        if self.params is None:
            # A unit compiled without its function takes its live-ins
            # as parameters.
            self.params = sorted(Liveness(shim).live_in[shim.entry.label])
            shim.params = list(self.params)
        self.defined_in = DefiniteAssignment(shim).defined_in
        self.loops = loops.body
        self.order = {label: n for n, label in enumerate(loops.order)}
        idom = loops.dominance.idom
        succs = {label: list(dict.fromkeys(code[-1].targets))
                 for label, code in self.code.items()}
        self.forward = {label: [t for t in targets
                                if not (t in self.loops
                                        and label in self.loops[t])]
                        for label, targets in succs.items()}
        fpreds: Dict[str, int] = dict.fromkeys(self.code, 0)
        for targets in self.forward.values():
            for target in targets:
                fpreds[target] += 1
        self.fpreds = fpreds
        # A loop's follow: the header's own exit, else the exit most
        # edges take (then the earliest).  It is placed after the
        # outermost loop that has it and dominates it.
        self.follow: Dict[str, Optional[str]] = {}
        self.home: Dict[str, str] = {}
        for header in sorted(self.loops, key=lambda h: -len(self.loops[h])):
            body = self.loops[header]
            exits = [t for label in sorted(body, key=self.order.get)
                     for t in succs[label] if t not in body]
            own = [t for t in succs[header] if t not in body]
            follow = (own[0] if own else
                      min(exits, key=lambda t: (-exits.count(t),
                                                self.order[t]))
                      if exits else None)
            self.follow[header] = follow
            if (follow is not None and idom[follow] in body
                    and follow not in self.home):
                self.home[follow] = header
        children: Dict[str, List[str]] = {label: [] for label in self.code}
        for label in loops.order:
            if label != shim.entry.label and fpreds[label] > 1 \
                    and label not in self.home:
                children[idom[label]].append(label)
        self.joins = children
        self.entry = shim.entry.label
        # Forward edges run forward in reverse postorder (the CFG is
        # reducible), so a backward sweep sees every successor first.
        self.spans: Dict[str, int] = {}
        for label in reversed(loops.order):
            self.spans[label] = self._span(label, 0)

    def _span(self, label: str, start: int) -> int:
        """Steps from op *start* of *label* to the next budget check —
        a ``CALL`` (included), a back edge or the ``RET`` — on the
        longest path."""
        code = self.code[label]
        for number in range(start, len(code)):
            if code[number].opcode is Opcode.CALL:
                return number - start + 1
        return len(code) - start + max(
            (self.spans[t] for t in self.forward[label]), default=0)

    # -- control flow --------------------------------------------------
    def _count(self, label: str) -> None:
        self.counted.add(label)
        self.emit(f"_k{self.index[label]} += 1")

    def _tree(self, label: str, ft: Optional[str]) -> None:
        """Emit *label*, the joins it dominates and, for a header, its
        loop; falling off the end reaches *ft* (``None``: nothing may
        fall off).  The last block to follow, and a ``JMP`` target placed
        here, are emitted by this same call, so a long run of ``if``
        statements or loops does not nest Python frames."""
        while True:
            if label in self.placed:
                raise _UnsupportedBlock("C004",
                                        f"block {label!r} placed twice")
            self.placed.add(label)
            if label != self.entry:
                self._count(label)
            joins = self.joins[label]
            if label in self.loops:
                rest = self._loop(label, joins, ft)
            elif joins:
                self._block(label, joins[0])
                rest = joins
            else:
                tail = self._block(label, ft, tail=True)
                rest = [tail] if tail else []
            if not rest:
                return
            self._chain(rest[:-1], rest[-1])
            self.live = True
            label = rest[-1]

    def _loop(self, header: str, joins: List[str],
              ft: Optional[str]) -> List[str]:
        """Emit the loop *header* heads; returns the blocks to emit after
        it, its follow first when the loop is where the follow goes."""
        body = self.loops[header]
        inner = [j for j in joins if j in body]
        self._flush()
        self.emit("while True:")
        self.ind += 1
        self.stack.append(header)
        self._block(header, inner[0] if inner else None)
        self._chain(inner, None)
        self.stack.pop()
        self.ind -= 1
        follow = self.follow[header]
        self.live, self.pend = follow is not None, 0
        if follow is None:
            return []
        after = [j for j in joins if j not in body]
        if self.home.get(follow) == header:
            return [follow] + after
        self._jump(follow, after[0] if after else ft)
        return after

    def _chain(self, labels: List[str], ft: Optional[str]) -> None:
        for number, label in enumerate(labels):
            self.live = True
            self._tree(label, labels[number + 1]
                       if number + 1 < len(labels) else ft)

    def _block(self, label: str, ft: Optional[str], copy: bool = False,
               tail: bool = False) -> Optional[str]:
        """The ops and terminator of *label*; *copy* emits it once more
        at a jump site, so its edges must not place any block.  With
        *tail*, returns the target of a ``JMP`` that goes here rather
        than placing it."""
        self.assigned = set(self.defined_in[label])
        code = self.code[label]
        try:
            for position, insn in enumerate(code):
                self.pend += 1
                self._emit_checks(insn)
                if insn.opcode is Opcode.CALL:
                    self._emit_call(insn, label, position)
                elif not insn.is_terminator:
                    self._emit_insn(insn)
        except _DeadCode:
            self.dead.add(label)
            self.live = False
            return
        terminator = code[-1]
        if terminator.opcode is Opcode.RET:
            value = (self._read(terminator.operands[0])
                     if terminator.operands else "None")
            self.emit(self._commit())
            self.emit(f"return {value}")
            self.live = False
            return
        targets = terminator.targets
        if terminator.opcode is Opcode.JMP or targets[0] == targets[1]:
            return self._jump(targets[0], ft, copy, tail)
        cond = self._read(terminator.operands[0])
        pend = self.pend
        arms = []
        for target in targets:
            self.pend, self.live = pend, True
            saved, self.out, self.ind = (self.out, self.ind), [], 0
            self._jump(target, ft, copy)
            arms.append((self.out, self.live))
            self.out, self.ind = saved
        (then, then_live), (other, other_live) = arms
        tests = (f"{cond} != 0", f"{cond} == 0")
        if not then_live or (not then and other_live):
            first, rest, test = then, other, tests[0]
        else:
            first, rest, test = other, then, tests[1]
        if not first:
            first, rest, test = rest, [], tests[first is then]
        if not first:
            self.live = True
            return
        self.emit(f"if {test}:")
        self.out.extend("    " * (self.ind + 1) + line for line in first)
        if rest and not (then_live and other_live):
            self.out.extend("    " * self.ind + line for line in rest)
        elif rest:
            self.emit("else:")
            self.out.extend("    " * (self.ind + 1) + line
                            for line in rest)
        self.pend = 0
        self.live = then_live or other_live

    def _jump(self, target: str, ft: Optional[str], copy: bool = False,
              tail: bool = False) -> Optional[str]:
        """Emit the edge to *target* at the current point (class doc).

        A target whose own edges all go to *ft*, the loop's header or
        its follow (a ``for`` loop's step block, reached by a
        ``continue`` nested in the body) is emitted once more here."""
        header = self.stack[-1] if self.stack else None
        if target == header:
            self._flush()
            count = f"_k{self.index[target]}"
            self.counted.add(target)
            self.emit(f"{count} += 1")
            span = self.spans[target]
            limit = self.limits.setdefault(span, f"_lim{span}")
            self.resumes = True
            self.emit(f"if _s > {limit}:")
            self.emit("I._steps = _s", 1)
            self.emit(f"raise _RW({target!r}, 0)", 1)
            self.emit("continue")
            self.live = False
        elif header is not None and target == self.follow[header]:
            self._flush()
            self.emit("break")
            self.live = False
        elif target == ft:
            self._flush()
        elif (not copy and self.fpreds[target] == 1
              and target not in self.home and target not in self.placed):
            if tail:
                return target
            self._tree(target, ft)
        elif (not copy and target not in self.loops
              and set(self.code[target][-1].targets) <= {
                  ft, header, self.follow.get(header)}):
            self._count(target)
            self._block(target, ft, copy=True)
        else:
            raise _UnsupportedBlock(
                "C004", f"edge to {target!r} cannot be structured")

    # -- driver --------------------------------------------------------
    def compile(self, digest: str) -> BlockCode:
        """Generate, ``compile()`` and instantiate the closure."""
        self._analyse()
        self.placed: set = set()
        self.dead: set = set()
        self.stack: List[str] = []
        self._tree(self.entry, None)
        live = set()
        stack = [self.entry]
        while stack:
            label = stack.pop()
            if label not in live:
                live.add(label)
                if label not in self.dead:
                    stack.extend(self.code[label][-1].targets)
        if not live <= self.placed:
            missing = sorted(live - self.placed, key=self.order.get)[0]
            raise _UnsupportedBlock(
                "C004", f"block {missing!r} cannot be placed")
        body, self.out, self.ind = self.out, [], 1
        emit = self.emit
        head = self.entry
        emit("_s = I._steps")
        emit(f"if _s + {self.spans[head]} > I.max_steps:")
        emit(f"raise _RW({head!r}, 0)", 1)
        params = set(self.params)
        for reg_name, local in self.locals.items():
            if reg_name in params:
                emit(f"{local} = R[{reg_name!r}]")
        assigned = {name for code in self.code.values()
                    for insn in code for name in insn.defs()}
        unset = [local for name, local in self.locals.items()
                 if name not in params
                 and (name in self.checked
                      or (self.resumes and name in assigned))]
        if unset:
            emit(" = ".join(unset) + " = None")
        # Rows are never replaced or resized while a program runs
        # (see Memory), so one binding serves the whole frame.
        for array, (row, size) in self.rows.items():
            emit(f"{row} = M.get({array!r}, ())")
            emit(f"{size} = len({row})")
        for span, limit in sorted(self.limits.items()):
            emit(f"{limit} = I.max_steps - {span}")
        counted = sorted(self.counted, key=self.index.get)
        header = self.out
        footer: List[str] = []
        if self.resumes:
            # The frame goes on on the walker: write each register it
            # may hold back to ``R`` (a live-in holds its entry value
            # until redefined; any other is ``None`` until set).
            footer.append("    except _RW:")
            for reg_name in sorted(assigned & set(self.locals)):
                local = self.locals[reg_name]
                check = ("" if reg_name in params
                         else f"if {local} is not None: ")
                footer.append(f"        {check}R[{reg_name!r}] = {local}")
            footer.append("        raise")
        if counted:
            # Block entries are counted in int locals and added to
            # ``C`` on every exit, traps included.
            header.append("    " + " = ".join(
                f"_k{self.index[label]}" for label in counted) + " = 0")
            footer.append("    finally:")
            footer.extend(f"        C[{label!r}] += _k{self.index[label]}"
                          for label in counted)
        if footer:
            header.append("    try:")
            body = ["    " + line for line in body]
        lines = ["def _unit(I, R, M, CALL, C, _TE=_TE, _RW=_RW, "
                 "_LD=_LD, _ST=_ST):"] + header + body + footer
        source = "\n".join(lines) + "\n"
        namespace: Dict[str, object] = {
            "_TE": TrapError, "_RW": ResumeOnWalker,
            "_LD": _load_slow, "_ST": _store_slow,
        }
        try:
            code = compile(source, f"<repro:unit:{digest[:12]}>", "exec")
        except SyntaxError as exc:
            # Deeper nesting than Python's static block limit.
            raise _UnsupportedBlock("C004", f"nesting: {exc}") from None
        exec(code, namespace)
        return BlockCode(fn=namespace["_unit"], label=head,
                         source=source, digest=digest)


class _DeadCode(Exception):
    """Internal signal: an unconditional trap makes the rest of the
    current emission path unreachable."""


def compile_block(block: BasicBlock, digest: Optional[str] = None,
                  params: Optional[Sequence[str]] = None) -> BlockCode:
    """Compile the one-block function *block*; see :func:`compile_region`."""
    return compile_region([block], digest, params)


def compile_region(blocks: Sequence[BasicBlock],
                   digest: Optional[str] = None,
                   params: Optional[Sequence[str]] = None) -> BlockCode:
    """Compile the function whose blocks are *blocks* (entry first)
    into one closure (no memo); *params* are its parameters (``None``:
    the entry's live-ins).  Returns a fallback :class:`BlockCode`
    (``fn=None``) when it cannot be translated."""
    blocks = list(blocks)
    try:
        if digest is None:
            digest = function_digest(
                params or (), [block_digest(block) for block in blocks])
        return _FunctionCompiler(blocks, params).compile(digest)
    except RecursionError:
        # Structure nested deeper than the Python stack left here.
        code, detail = "C004", "nesting: recursion limit"
    except _UnsupportedBlock as exc:
        code, detail = exc.args
    return BlockCode(fn=None, label=blocks[0].label, digest=digest or "",
                     reason=code, detail=detail)


def build_function_table(func: Function) -> Dict[str, Optional[Callable]]:
    """Dispatch table ``label -> closure`` for one function.

    The entry label maps to the function's closure and every other
    label to ``None``: the dispatch loop runs the rest of a frame on
    the walker once the closure hands it over (:class:`ResumeOnWalker`),
    and the whole frame when codegen refused the function.  Each block
    is hashed once per build; the memo key composes those digests.  A
    memo hit refreshes the entry's recency; an insert evicts
    least-recently-used entries down to :data:`MEMO_LIMIT`, read at
    call time so tests can shrink it.
    """
    table: Dict[str, Optional[Callable]] = {
        block.label: None for block in func.blocks}
    if not func.blocks:
        return table
    key = function_digest(func.params,
                          [block_digest(block) for block in func.blocks])
    code = _MEMO.get(key)
    if code is not None:
        _MEMO.move_to_end(key)
        _STATS.hits += 1
    else:
        region = len(func.blocks) > 1
        code = (compile_region(func.blocks, key, func.params) if region
                else compile_block(func.blocks[0], key, func.params))
        if code.fn is None:
            _STATS.count_fallback(code)
        else:
            _STATS.compiled += 1
            _STATS.regions += region
        while _MEMO and len(_MEMO) >= MEMO_LIMIT:
            _MEMO.popitem(last=False)
            _STATS.evictions += 1
        _MEMO[key] = code
    table[func.entry.label] = code.fn
    return table


def clear_code_memo() -> int:
    """Drop every memoised closure; returns how many were dropped.

    Used by cold-start benchmarks (``benchmarks/bench_interp.py``) and
    by tests that need to observe codegen itself.
    """
    dropped = len(_MEMO)
    _MEMO.clear()
    _STATS.compiled = _STATS.hits = _STATS.fallbacks = _STATS.regions = 0
    _STATS.evictions = _STATS.replays = 0
    _STATS.fallback_codes.clear()
    return dropped


def code_memo_stats() -> CodeMemoStats:
    """Live telemetry of the process-wide code memo."""
    return _STATS
