"""Compiled-block execution backend: per-block Python codegen.

The tree-walking interpreter (:mod:`repro.interp.interpreter`) pays, for
every executed operation, the full dispatch tax: an opcode comparison
chain, a list comprehension over operands with per-operand ``isinstance``
checks, a call into :func:`~repro.passes.constant_folding.
evaluate_pure_op` (itself a ~20-way comparison chain) and a dict write.
This module removes that tax by translating each basic block *once* into
generated Python source:

* registers become straight-line **local variables** — the register dict
  is read once per live-in register at block entry and written once per
  defined register at block exit (never for ``RET`` exits, where the
  frame dies anyway);
* maximal single-entry successor chains — **regions**, discovered from
  the CFG by :func:`discover_regions` — compile into *one* closure:
  live registers stay Python locals across the internal links, the
  per-block dict read/write-back disappears from hot paths, and each
  internal boundary costs one increment of the function's block-entry
  tally (``C``) instead of a dispatch-loop round trip.  Chains
  thread unconditional ``JMP`` links and, superblock-style, continue
  through a ``BR`` into a single-predecessor target — the off-trace
  side becomes an early *side exit* (walker-exact writebacks, then a
  return of the off-trace label), which is what fuses a loop header
  with its body into one closure;
* a unit whose last block jumps, or branches on one side, back to its
  own head is a **loop**: its body runs inside ``while True:``, so an
  iteration costs no dispatch-loop round trip and no register-dict
  read.  The loop-back re-checks the entry budget and bumps the head's
  entry count.  No path inside the loop writes a register: a loop
  unit counts block entries in int locals, and its ``finally`` adds
  them to ``C`` and writes each register the body defines back to
  ``R`` once, on every exit, traps included.  A register that is not
  a live-in starts as ``None`` and is written back only once defined.
  A chain ends at the first block that branches back to its head, so
  a back edge is never an internal side exit;
* ``LOAD``/``STORE`` index the memory row **inline**: each unit binds
  the rows it touches and their lengths once, at entry, and an access
  whose index passes ``0 <= i < len`` reads or writes the list
  directly (a store wraps its value as :meth:`Memory.store` does).  An
  out-of-range or negative index, or an array the memory image lacks
  (bound as the empty row ``()``), takes the slow path, which commits
  the exact step count and lets :meth:`Memory.load`/``store`` raise
  the walker's trap;
* opcode semantics are **inlined**: the 32-bit two's-complement wrap of
  :func:`repro.ir.values.wrap32` is emitted as a closed-form expression
  (``((v & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000``) exactly where an
  operation can leave the canonical range, and *omitted* where it is a
  provable identity (bitwise ops, comparisons, ``ASHR``, ``REM``,
  ``SELECT``, ``COPY`` over canonical operands) — the differential suite
  in ``tests/interp/test_backend_equivalence.py`` holds the generated
  code bit-identical to ``evaluate_pure_op``;
* ``ISEInstruction`` nodes **inline their AFU's gate netlist** as
  straight-line locals built from the same per-opcode expressions as
  software ops (:func:`_pure_expr`); an internal division that can hit
  zero raises the walker's exact ``TrapError``, and no dest register
  reaches ``R`` until the last gate has run (a gate driving an output
  may write its dest's local directly when no port reads it);
* step counting is accumulated as **constants**: one ``_s =
  I._steps`` read at unit entry, and an exact ``I._steps = _s + k``
  commit only on a path that leaves the closure: before a ``CALL`` and
  the unit's final terminator, and inside the branch of a side exit,
  a division trap or a memory slow path.  The path that stays in the
  closure — an internal ``JMP`` link, the on-trace side of a ``BR``,
  a loop-back — commits nothing.  The budget is checked by
  one **guard at unit entry**, against the unit's step count up to its
  first ``CALL``, once more after each ``CALL`` and, in a loop, at
  every loop-back; when it could expire, the unit raises
  :class:`ResumeOnWalker` (or, at a loop-back, returns its head label
  so the next entry's guard raises it) and the walker's reference
  executor runs the block from there, so
  :class:`~repro.interp.interpreter.ExecutionLimitExceeded` fires at
  exactly the walker's step index with exactly its side effects;
* block entry counts are tallied per function, by the dispatch loop and
  the closures, into a ``defaultdict(int)`` the interpreter keeps for
  the run, and folded into :class:`~repro.interp.profile.ProfileData`
  once per :meth:`~repro.interp.interpreter.Interpreter.run`, not per
  entry or per call frame.

Compiled closures are cached in a process-wide **LRU** memo keyed on
structural digests (:func:`block_digest` per block,
:func:`region_digest` — a pure composition of member block digests —
per chain, both built on :func:`repro.store.keys.canonical_digest`):
repeated sweep/measure runs over cloned modules — ``rewrite_module``
always clones — reuse the compiled code of every block and region whose
instruction stream is unchanged, and eviction at :data:`MEMO_LIMIT`
drops the least-recently-used closure instead of the whole memo, so
long sweeps keep hot region closures warm.

:func:`build_function_table` maps each chain head to its closure and
every other label to ``None``; the dispatch loop runs a ``None`` label
on the walker's reference executor.  That covers a chain's tails,
reached only after a unit hands a block to the walker, and every block
of a chain the generator cannot translate (malformed IR without a
terminator, opcodes it does not know).  The memo records refused
chains as fallbacks, so :func:`code_memo_stats` makes the fallback
rate observable.

The walker remains the semantic oracle: the compiled backend must match
its ``RunResult`` values, step counts, profiles, traps and measured
cycles bit-for-bit on every workload, which the differential test suite
and ``benchmarks/bench_interp.py`` enforce.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.cfg import predecessors
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
    "compile_block", "compile_region", "discover_regions",
    "region_digest",
]


#: Bump when generated-code semantics change: digest-keyed closures from
#: the old generator must not be reused by a process mixing versions
#: (the memo is in-process only, so this mostly documents intent).
#: v2: region compilation — closures take the per-frame profile counts
#: dict ``C`` as a seventh parameter.  v3: AFU netlists are inlined as
#: straight-line gate locals instead of calling ``FusedAFU.evaluate``.
#: v4: an entry budget guard and :class:`ResumeOnWalker` replace the
#: per-segment walker-exact twins; closures no longer take ``FN``.
#: v5: loop units iterate inside their closure, memory rows are
#: indexed inline, and closures take the arrays dict ``M`` in place of
#: the ``LOAD``/``STORE`` accessors: ``fn(I, R, M, CALL, C)``.
#: v6: ``C`` is the function's run-long ``defaultdict(int)`` tally
#: (bumped as ``C[label] += 1``), loop units count block entries in int
#: locals added to it in a ``finally``, and ``CALL`` is one callback per
#: call depth.  v7: loop units write registers back, and every unit
#: commits ``I._steps``, only on the paths that leave the closure (side
#: exits, ``CALL`` resume checks, division traps); an ISE gate driving
#: an output may write its dest's local directly.  v8: a loop unit
#: writes its registers back only in its ``finally``; locals it defines
#: that are not live-ins start as ``None`` and are written once set.
CODEGEN_VERSION = 8

_MASK = "4294967295"            # 0xFFFFFFFF
_SIGN = "2147483648"            # 0x80000000


@dataclass
class BlockCode:
    """One block's — or one region's — compiled artifact (or fallback).

    Attributes:
        fn: the generated closure, called as ``fn(I, R, M, CALL, C)``
            with the interpreter, the register dict, the memory image's
            arrays dict, the call-back into ``Interpreter._call`` (one
            per call depth) and the function's block-entry tally, a
            ``defaultdict(int)`` (region closures bump it at every
            internal block boundary; loop closures add their local
            counts on exit);
            returns the successor label, or a 1-tuple ``(value,)`` for
            ``RET``.  ``None`` when codegen fell back to the walker.
        label: the head block's label (diagnostics only).
        source: the generated Python text (debugging aid; the step
            constants live in here as literals).
        digest: structural digest the memo is keyed on.
        span: how many source blocks the closure threads (1 for a
            plain per-block artifact, the chain length for a region).
        loop: whether the closure iterates in place (its last block
            loops back to its head).
        reason: diagnostic code explaining a fallback (``fn=None``):
            ``C001``–``C003`` for honestly untranslatable units, a
            verifier code (``V002``, ``V102``, …) when the unit fell
            back because the IR itself is ill-formed.  ``None`` for
            compiled artifacts.
        detail: human-readable fallback detail (empty when compiled).
    """

    fn: Optional[object]
    label: str
    source: str = ""
    digest: str = ""
    span: int = 1
    loop: bool = False
    reason: Optional[str] = None
    detail: str = ""


@dataclass
class CodeMemoStats:
    """Telemetry of the in-process code memo.

    ``compiled`` counts successful codegen runs (``regions`` of which
    were multi-block chains, ``loops`` of which iterate inside their
    closure), ``hits`` counts memo reuse, ``fallbacks``
    counts untranslatable units, ``evictions`` counts LRU drops.
    ``fallback_codes`` breaks the fallbacks down by diagnostic code
    (see :attr:`BlockCode.reason`), so a sweep outcome or ``repro run``
    can report *why* blocks punted to the walker, not just how many.
    ``replays`` counts run-time hand-offs of a compiled unit to the
    walker (:class:`ResumeOnWalker`): 0 on a run whose step budget
    never came close and whose live-in registers were all defined.
    """

    compiled: int = 0
    hits: int = 0
    fallbacks: int = 0
    regions: int = 0
    loops: int = 0
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
        return {"compiled": self.compiled, "hits": self.hits,
                "fallbacks": self.fallbacks, "regions": self.regions,
                "loops": self.loops, "evictions": self.evictions,
                "replays": self.replays,
                "fallback_codes": dict(sorted(
                    self.fallback_codes.items()))}


#: Memo capacity.  Eviction is least-recently-used, one entry at a
#: time: a long-lived session sweeping huge grids cannot accumulate
#: closures (each of which pins its generated source and code object)
#: without bound, while the hot working set — re-looked up on every
#: run — stays warm instead of being dropped wholesale.
#: Far above any realistic working set, so eviction is a backstop.
MEMO_LIMIT = 4096

_MEMO: "OrderedDict[str, BlockCode]" = OrderedDict()
_STATS = CodeMemoStats()


def _memoised(digest: str, compiler, unit) -> BlockCode:
    """LRU memo lookup; on a miss, ``compiler(unit, digest)`` fills it.

    A hit refreshes the entry's recency; an insert evicts
    least-recently-used entries down to the cap.  ``MEMO_LIMIT`` is
    read at call time so tests can shrink it and observe eviction
    without compiling thousands of blocks.
    """
    cached = _MEMO.get(digest)
    if cached is not None:
        _MEMO.move_to_end(digest)
        _STATS.hits += 1
        return cached
    code = compiler(unit, digest)
    if code.fn is None:
        _STATS.count_fallback(code)
    else:
        _STATS.compiled += 1
        _STATS.regions += code.span > 1
        _STATS.loops += code.loop
    while _MEMO and len(_MEMO) >= MEMO_LIMIT:
        _MEMO.popitem(last=False)
        _STATS.evictions += 1
    _MEMO[digest] = code
    return code


def _operand_token(operand) -> Tuple:
    """Canonical encoding of one operand for :func:`block_digest`."""
    if isinstance(operand, Const):
        return ("c", operand.value)
    return ("r", operand.name)


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
            tuple(_operand_token(op) for op in insn.operands),
            insn.array,
            insn.callee,
            insn.targets,
        )
        if isinstance(insn, ISEInstruction):
            record += (insn.dests, _afu_token(insn.afu))
        insns.append(record)
    return canonical_digest("blockcode-v1", CODEGEN_VERSION,
                            block.label, tuple(insns))


def region_digest(blocks: Sequence[BasicBlock]) -> str:
    """SHA-256 over a straight-line chain: its member block digests.

    Purely structural by construction — a rewritten module's cloned
    chain (identical instruction streams, identical labels, identical
    AFU netlists) derives the same key as the sweep that first
    compiled it, so ``repro run --rewrite`` reuses in-process region
    closures instead of recompiling them.
    """
    return _region_key([block_digest(block) for block in blocks])


def _region_key(member_digests: Sequence[str]) -> str:
    """:func:`region_digest` from the member blocks' digests."""
    return canonical_digest("regioncode-v1", CODEGEN_VERSION,
                            tuple(member_digests))


# ----------------------------------------------------------------------
# Code generation.
# ----------------------------------------------------------------------
class _UnsupportedBlock(Exception):
    """Raised by the generator when a unit cannot be translated.

    Carries a stable diagnostic code (``C0xx`` for honest codegen
    limits, a verifier ``V`` code when the real problem is ill-formed
    IR — see :data:`repro.analysis.diagnostics.CODES`), so fallbacks
    are diagnosed, never silent.
    """

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class _Emitter:
    """Accumulates generated source lines with indentation tracking."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)


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
    the trap guard (:meth:`_BlockCompiler._emit_division_guard`).
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


class _BlockCompiler:
    """Translates a straight-line block chain into one Python closure.

    A single block is the degenerate chain of length one; longer
    chains (regions) keep registers in locals across their internal
    ``JMP`` links — internal terminators emit no writebacks and no
    return, just the block-entry count bump (see module doc).
    A chain whose last block loops back to its head iterates inside
    the closure.
    """

    def __init__(self, blocks: Sequence[BasicBlock]) -> None:
        self.blocks = list(blocks)
        self.locals: Dict[str, str] = {}      # register name -> local
        self.defined: set = set()             # registers defined so far
        self.entry_reads: List[str] = []      # registers loaded at entry
        self.gate_locals = 0                  # AFU gate locals emitted
        self.rows: Dict[str, Tuple[str, str]] = {}  # array -> row, len
        self.steps = 0                        # steps since ``_s`` read
        self.loop = False
        self.out = _Emitter()

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
        if operand.name not in self.defined:
            if operand.name not in self.entry_reads:
                self.entry_reads.append(operand.name)
        return self._local(operand.name)

    def _define(self, reg_name: str) -> str:
        local = self._local(reg_name)
        self.defined.add(reg_name)
        return local

    def _row(self, array: str) -> Tuple[str, str]:
        """The locals holding *array*'s row and its length, bound once
        at unit entry."""
        names = self.rows.get(array)
        if names is None:
            names = self.rows[array] = (f"r{len(self.rows)}",
                                        f"n{len(self.rows)}")
        return names

    # -- per-op emission ----------------------------------------------
    def _emit_insn(self, insn: Instruction, indent: int) -> None:
        """Emit one instruction (never a terminator) at *indent*."""
        op = insn.opcode
        emit = self.out.emit
        if op is Opcode.LOAD:
            index = self._read(insn.operands[0])
            dst = self._define(insn.dest)
            row, size = self._row(insn.array)
            emit(f"{dst} = {row}[{index}] if 0 <= {index} < {size} "
                 f"else _LD(I, _s + {self.steps}, {insn.array!r}, "
                 f"{index})", indent)
            return
        if op is Opcode.STORE:
            index = self._read(insn.operands[0])
            operand = insn.operands[1]
            value = self._read(operand)
            stored = (f"({wrap32(operand.value)})"
                      if isinstance(operand, Const) else _wrap(value))
            row, size = self._row(insn.array)
            emit(f"if 0 <= {index} < {size}:", indent)
            emit(f"    {row}[{index}] = {stored}", indent)
            emit("else:", indent)
            emit(f"    _ST(I, _s + {self.steps}, {insn.array!r}, {index}, "
                 f"{value})", indent)
            return
        if op is Opcode.ISE:
            self._emit_ise(insn, indent)
            return
        if op is Opcode.CALL:
            self._emit_call(insn, indent)
            return
        self._emit_pure(insn, indent)

    def _emit_ise(self, insn: ISEInstruction, indent: int) -> None:
        """Inline the bound AFU's gate netlist as straight-line locals.

        Mirrors :meth:`FusedAFU.evaluate` plus the walker's write-back:
        input ports bind the operand reads (a repeated port keeps its
        last value, as in the walker's dict), and every gate writes a
        local through the same :func:`_pure_expr` as software ops.  The
        last gate driving an output wire writes straight into its dest
        register's local when no port of this ISE reads that local, the
        wire is not an input port and no earlier dest took the local;
        every other gate writes a fresh ``g<k>`` local, and the
        remaining dests are assigned after the last gate, in one
        parallel assignment, so an output forwarding a port sees its
        entry value.  A trap leaves the closure before any write-back,
        so a dest local written early is never observed.  Netlists the
        walker would crash on (undriven wires, short gates,
        non-canonical constants) fall back to it instead.
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
        emit = self.out.emit
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
            self._emit_division_guard(op, operands, args, msg, indent)
            local = (direct.get(gate.output)
                     if last_driver[gate.output] == number else None)
            if local is None:
                local = f"g{self.gate_locals}"
                self.gate_locals += 1
            emit(f"{local} = {expr}", indent)
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
            emit(f"{dests} = {values}", indent)

    def _emit_call(self, insn: Instruction, indent: int) -> None:
        args = ", ".join(self._read(op) for op in insn.operands)
        args = f"({args},)" if insn.operands else "()"
        emit = self.out.emit
        if insn.dest is None:
            emit(f"CALL({insn.callee!r}, {args})", indent)
            return
        emit(f"_t = CALL({insn.callee!r}, {args})", indent)
        emit("if _t is None:", indent)
        void_msg = f"void result of {insn.callee!r} used"
        emit(f"    raise _TE({void_msg!r})", indent)
        emit(f"{self._define(insn.dest)} = _t", indent)

    def _emit_division_guard(self, op: Opcode, operands: Sequence,
                             reads: Sequence[str], msg: str,
                             indent: int) -> None:
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
        emit = self.out.emit
        commit = f"I._steps = _s + {self.steps}"
        if isinstance(divisor, Const):
            if divisor.value == 0:
                emit(commit, indent)
                emit(f"raise _TE({msg!r})", indent)
                raise _DeadCode()
            return
        emit(f"if {reads[1]} == 0:", indent)
        emit(f"    {commit}", indent)
        emit(f"    raise _TE({msg!r})", indent)

    def _emit_pure(self, insn: Instruction, indent: int) -> None:
        """Inline the ``evaluate_pure_op`` semantics of one pure op."""
        reads = [self._read(operand) for operand in insn.operands]
        if insn.dest is None:
            raise _UnsupportedBlock("V102",
                                    f"pure op without dest: {insn}")
        expr = _pure_expr(insn.opcode, reads, insn.operands)
        self._emit_division_guard(insn.opcode, insn.operands, reads,
                                  f"trap in {insn} (division by zero?)",
                                  indent)
        self.out.emit(f"{self._define(insn.dest)} = {expr}", indent)

    def _emit_writebacks(self, indent: int) -> None:
        """Write every register defined so far back to the dict ``R``.

        On a straight-line trace every def emitted so far has executed,
        so this leaves the caller's register dict walker-exact.  Every
        caller is an exit point.  A loop unit emits nothing here: its
        ``finally`` writes its registers back on every exit (see
        :meth:`compile`).
        """
        if self.loop:
            return
        for reg_name in sorted(self.defined):
            self.out.emit(self._writeback(reg_name), indent)

    def _writeback(self, reg_name: str) -> str:
        return f"R[{reg_name!r}] = {self.locals[reg_name]}"

    def _emit_internal_exit(self, insn: Instruction,
                            fallthrough: str) -> None:
        """Emit a mid-region terminator (control stays in the closure).

        An internal ``JMP`` is pure fall-through — it commits no step
        count, and the next block's code follows immediately.
        An internal ``BR`` keeps the on-trace side inline and emits a
        *side exit* for the other target: the exact step count is
        committed, every register defined so far is written back (a
        loop unit's ``finally`` does that instead) and the off-trace
        label is returned to the dispatch loop, which dispatches it as
        a chain head.  The on-trace side commits nothing: it reaches
        another commit before anything can observe the counter.
        """
        op = insn.opcode
        if op is Opcode.JMP:
            return
        if op is not Opcode.BR:
            raise _UnsupportedBlock("C003", f"internal terminator {op}")
        cond = self._read(insn.operands[0])
        then_label, else_label = insn.targets
        if fallthrough == then_label:
            test, exit_label = f"{cond} == 0", else_label
        else:
            test, exit_label = f"{cond} != 0", then_label
        emit = self.out.emit
        emit(f"if {test}:")
        emit(f"    I._steps = _s + {self.steps}")
        self._emit_writebacks(indent=2)
        emit(f"    return {exit_label!r}")

    def _emit_loop_back(self, insn: Instruction) -> None:
        """Emit the last block's terminator of a loop unit.

        A ``BR`` leaves by a side exit on its other target.  The
        loop-back then re-checks the entry budget guard against
        ``_lim``, the last ``_s`` it admits (on failure: commit the
        step count and return the head label, so the dispatch loop
        counts the head entry and the head's own guard replays it on
        the walker), and bumps the head's entry count, the local
        ``_k0``, added to ``C`` on exit.  No path here writes a
        register: the unit's ``finally`` does, on every exit.
        """
        head = self.blocks[0].label
        emit = self.out.emit
        self._emit_internal_exit(insn, head)
        emit(f"_s += {self.steps}")
        emit("if _s > _lim:")
        emit("    I._steps = _s")
        emit(f"    return {head!r}")
        emit("_k0 += 1")

    def _emit_terminator(self, insn: Instruction, indent: int) -> None:
        op = insn.opcode
        emit = self.out.emit
        if op is not Opcode.RET:
            # Writebacks keep the caller's register dict walker-exact
            # for successor blocks; a RET frame is discarded, so its
            # writebacks are dead and skipped.
            self._emit_writebacks(indent)
        if op is Opcode.BR:
            cond = self._read(insn.operands[0])
            then_label, else_label = insn.targets
            emit(f"return {then_label!r} if {cond} != 0 "
                 f"else {else_label!r}", indent)
        elif op is Opcode.JMP:
            emit(f"return {insn.targets[0]!r}", indent)
        elif op is Opcode.RET:
            value = (self._read(insn.operands[0])
                     if insn.operands else "(None)")
            emit(f"return ({value},)", indent)
        else:
            raise _UnsupportedBlock("C001", f"terminator {op}")

    # -- step accounting -----------------------------------------------
    @staticmethod
    def _budget(ops: Sequence[Tuple[int, int, Instruction]],
                first: int) -> int:
        """Steps from ``ops[first]`` up to and including the next
        ``CALL`` (or the end of the chain): an upper bound on every
        path — a side exit only shortens it — until a callee runs or
        control leaves the closure."""
        total = 0
        for _, _, insn in ops[first:]:
            total += 1
            if insn.opcode is Opcode.CALL:
                break
        return total

    def _emit_resume_check(self, label: str, position: int,
                           budget: int) -> None:
        """Re-check the budget after a ``CALL`` returned (the callee
        spent steps the entry guard could not know); on failure write
        back, as a side exit does (a loop unit's ``finally`` does that),
        and resume the walker at *position*.
        """
        emit = self.out.emit
        emit("_s = I._steps")
        emit(f"if _s + {budget} > I.max_steps:")
        self._emit_writebacks(indent=2)
        emit(f"    raise _RW({label!r}, {position})")

    # -- driver --------------------------------------------------------
    def compile(self, digest: str) -> BlockCode:
        """Generate, ``compile()`` and instantiate the chain's closure."""
        blocks = self.blocks
        last = len(blocks) - 1
        for index, block in enumerate(blocks):
            terminator = block.terminator
            if terminator is None:
                # The walker's fall-through TrapError (and its exact
                # step accounting) is easier to inherit than to
                # replicate.  V002: this is an IR well-formedness
                # failure, not a codegen limitation.
                raise _UnsupportedBlock("V002", "no terminator")
            if index < last:
                nxt = blocks[index + 1].label
                if terminator.opcode is Opcode.JMP:
                    linked = terminator.targets[0] == nxt
                elif terminator.opcode is Opcode.BR:
                    # A degenerate BR (both targets equal) never links:
                    # the side-exit emission needs a distinct off-trace
                    # label.
                    linked = (nxt in terminator.targets
                              and terminator.targets[0]
                              != terminator.targets[1])
                else:
                    linked = False
                if not linked:
                    raise _UnsupportedBlock(
                        "C003",
                        "chain link is not a JMP/BR into the next block")
        head = blocks[0].label
        terminator = blocks[last].terminator
        self.loop = head in terminator.targets and (
            terminator.opcode is Opcode.JMP
            or (terminator.opcode is Opcode.BR
                and terminator.targets[0] != terminator.targets[1]))
        ops = [(index, position, insn)
               for index, block in enumerate(blocks)
               for position, insn in enumerate(block.instructions)]
        guard = self._budget(ops, 0)
        # A dead-code trap may end the loop below, but the counters and
        # registers emitted until then still need their locals, their
        # fold and their writebacks.
        counted = self.loop
        body = _Emitter()
        self.out = body
        emit = body.emit
        try:
            for number, (index, position, insn) in enumerate(ops):
                label = blocks[index].label
                if position == 0 and index > 0:
                    # The walker records a block entry *before* running
                    # the block; the bump sits between the previous
                    # terminator's step commit and this block's first
                    # op, so a trap anywhere in the region folds
                    # identical counts into the profile.  A loop unit
                    # counts in a local per block (see below).
                    emit(f"_k{index} += 1" if counted
                         else f"C[{label!r}] += 1")
                elif position and ops[number - 1][2].opcode is Opcode.CALL:
                    self._emit_resume_check(label, position,
                                            self._budget(ops, number))
                    self.steps = 0
                self.steps += 1
                # The step counter is observable only where control can
                # leave the closure: a CALL (the callee counts on from
                # it) and the unit's final terminator commit here; a
                # side exit, a division trap and a memory slow path
                # commit on their own branch.
                leaves = (insn.is_terminator and index == last
                          and not self.loop)
                if insn.opcode is Opcode.CALL or leaves:
                    emit(f"I._steps = _s + {self.steps}")
                if not insn.is_terminator:
                    self._emit_insn(insn, indent=1)
                elif index < last:
                    self._emit_internal_exit(insn, blocks[index + 1].label)
                elif self.loop:
                    self._emit_loop_back(insn)
                else:
                    self._emit_terminator(insn, indent=1)
        except _DeadCode:
            # An unconditional trap ends the chain early (and so the
            # loop: its body can run at most once).
            self.loop = False

        header = _Emitter()
        params = ["I", "R", "M", "CALL", "C"]
        params += [f"{name}={name}" for name in ("_TE", "_RW", "_LD", "_ST")]
        header.emit(f"def _block({', '.join(params)}):", 0)
        # The entry guard: no op runs unless the budget provably lasts
        # until the first CALL.  Both punts happen before any op, so
        # the walker's replay from index 0 is side-effect clean.
        resume = f"raise _RW({head!r}, 0)"
        header.emit("_s = I._steps")
        header.emit(f"if _s + {guard} > I.max_steps:")
        header.emit(f"    {resume}")
        if self.entry_reads:
            header.emit("try:")
            for reg_name in self.entry_reads:
                header.emit(f"    {self.locals[reg_name]} = "
                            f"R[{reg_name!r}]")
            header.emit("except KeyError:")
            header.emit(f"    {resume} from None")
        # Rows are never replaced or resized while a program runs
        # (see Memory), so one binding serves every iteration and call.
        for array, (row, size) in self.rows.items():
            header.emit(f"{row} = M.get({array!r}, ())")
            header.emit(f"{size} = len({row})")
        if self.loop:
            header.emit(f"_lim = I.max_steps - {guard}")
        footer = _Emitter()
        if counted:
            # Block entries of a loop unit are counted in the int locals
            # ``_k<index>`` (``_k0``: loop-backs into the head) and added
            # to ``C`` on every exit, traps included.  The same
            # ``finally`` is the unit's only register writeback: a
            # live-in holds its entry value until the body redefines it;
            # any other register is ``None`` until its first def, and
            # then ``R`` already holds what the walker's dict does.
            header.emit(" = ".join(f"_k{index}"
                                   for index in range(len(blocks)))
                        + " = 0")
            late = [self.locals[reg_name]
                    for reg_name in sorted(self.defined)
                    if reg_name not in self.entry_reads]
            if late:
                header.emit(" = ".join(late) + " = None")
            header.emit("try:")
            footer.emit("finally:")
            for index, block in enumerate(blocks):
                footer.emit(f"    C[{block.label!r}] += _k{index}")
            for reg_name in sorted(self.defined):
                check = ("" if reg_name in self.entry_reads else
                         f"if {self.locals[reg_name]} is not None: ")
                footer.emit(check + self._writeback(reg_name), 2)
            body.lines = ["    " + line for line in body.lines]
        if self.loop:
            header.emit("while True:", 1 + counted)
            body.lines = ["    " + line for line in body.lines]

        source = "\n".join(header.lines + body.lines
                           + footer.lines) + "\n"
        namespace: Dict[str, object] = {
            "_TE": TrapError, "_RW": ResumeOnWalker,
            "_LD": _load_slow, "_ST": _store_slow,
        }
        kind = "block" if last == 0 else "region"
        code = compile(source, f"<repro:{kind}:{digest[:12]}>", "exec")
        exec(code, namespace)
        return BlockCode(fn=namespace["_block"], label=head,
                         source=source, digest=digest,
                         span=len(blocks), loop=self.loop)


class _DeadCode(Exception):
    """Internal signal: an unconditional trap makes the rest of the
    current emission path unreachable."""


def compile_block(block: BasicBlock,
                  digest: Optional[str] = None) -> BlockCode:
    """Compile *block* unconditionally (no memo); see the module doc.

    Returns a fallback :class:`BlockCode` (``fn=None``) when the block
    cannot be translated — the dispatch loop then runs that block on
    the walker's reference executor.
    """
    return _compile([block], digest if digest is not None
                    else block_digest(block))


def compile_region(blocks: Sequence[BasicBlock],
                   digest: Optional[str] = None) -> BlockCode:
    """Compile a straight-line chain of blocks into one closure.

    Each member must link into the next by a ``JMP`` to it or a ``BR``
    with it as one of two distinct targets (as produced by
    :func:`discover_regions`); anything else — or any member block
    codegen cannot translate — returns a fallback artifact
    (``fn=None``), and the dispatch loop runs the whole chain on the
    walker's reference executor.
    """
    blocks = list(blocks)
    return _compile(blocks, digest if digest is not None
                    else region_digest(blocks))


def _compile(blocks: List[BasicBlock], digest: str) -> BlockCode:
    try:
        return _BlockCompiler(blocks).compile(digest)
    except _UnsupportedBlock as exc:
        return BlockCode(fn=None, label=blocks[0].label, digest=digest,
                         span=len(blocks), reason=exc.code,
                         detail=exc.detail)


def _chain_continuation(block: BasicBlock,
                        candidates: Dict[str, BasicBlock]):
    """The label *block*'s chain falls through into, or ``None``.

    A ``JMP`` continues into its target when the target is a chain
    candidate (single predecessor, not the entry, not a self-loop).  A
    ``BR`` continues into one candidate target, superblock-style — the
    other side becomes the closure's side exit.  When both targets are
    candidates the one that does not immediately ``RET`` wins (it may
    extend the trace further — the typical shape is a loop body whose
    ``if`` skips to the latch, with an early ``return`` on the other
    arm); on a tie the then-target wins.  A degenerate ``BR`` with
    equal targets never continues.
    """
    terminator = block.terminator
    if terminator is None:
        return None
    if terminator.opcode is Opcode.JMP:
        target = terminator.targets[0]
        return target if target in candidates else None
    if terminator.opcode is not Opcode.BR:
        return None
    then_label, else_label = terminator.targets
    if then_label == else_label:
        return None
    viable = [label for label in (then_label, else_label)
              if label in candidates]
    if len(viable) == 2:
        viable.sort(key=lambda lbl: _ends_in_ret(candidates[lbl]))
    return viable[0] if viable else None


def _ends_in_ret(block: BasicBlock) -> bool:
    """True when *block* terminates in ``RET`` (trace-choice tiebreak)."""
    terminator = block.terminator
    return (terminator is not None
            and terminator.opcode is Opcode.RET)


def discover_regions(func: Function) -> List[List[BasicBlock]]:
    """Maximal single-entry block chains of *func*, heads first.

    A block is a chain *candidate* when it has exactly one predecessor
    and is neither the function entry nor its own predecessor.  The
    heads — every non-candidate block — are fixed before any walk
    starts.  Chains start at each head and follow
    :func:`_chain_continuation` links — unconditional ``JMP`` targets
    and one side of a ``BR`` — consuming each candidate at most once,
    up to the first block that jumps or branches back to the head;
    candidates no chain consumed (the off-trace side of a ``BR`` whose
    other side won, or members of unreachable cycles) then head chains
    of their own.  So every block is in exactly one chain, and every
    executed block transfer either stays inside one closure or lands
    on a chain head: the dispatch loop never needs a mid-chain entry
    point.
    """
    preds = predecessors(func)
    entry_label = func.entry.label
    candidates: Dict[str, BasicBlock] = {}
    for block in func.blocks:
        label = block.label
        if label == entry_label:
            continue
        pred_labels = preds.get(label, [])
        if len(pred_labels) == 1 and pred_labels[0] != label:
            candidates[label] = block

    def walk(head: BasicBlock) -> List[BasicBlock]:
        chain = [head]
        current = head
        while True:
            terminator = current.terminator
            if terminator is not None and head.label in terminator.targets:
                # A block that branches back to the head ends the chain,
                # so the chain is a loop unit rather than one whose
                # back edge is a side exit.
                break
            target = _chain_continuation(current, candidates)
            if target is None:
                break
            # Each candidate is consumed by exactly one chain; removal
            # keeps the walk terminating even on adversarial CFGs.
            current = candidates.pop(target)
            chain.append(current)
        return chain

    # Heads are fixed before any walk pops a candidate.
    heads = [block for block in func.blocks if block.label not in candidates]
    regions = [walk(block) for block in heads]
    while candidates:
        # Leftover candidates (off-trace BR sides, unreachable cycles)
        # in block order, longest-first from each: they head chains too.
        for block in func.blocks:
            if block.label in candidates:
                del candidates[block.label]
                regions.append(walk(block))
                break
    return regions


def build_function_table(func: Function) -> Dict[str, Optional[Callable]]:
    """Dispatch table ``label -> closure`` for one function.

    Every chain :func:`discover_regions` returns compiles, through the
    memo, into one closure keyed on its head label.  Every other label
    maps to ``None``: a chain's tails, and the head of a chain the
    generator refused (the whole chain then runs on the walker's
    reference executor).  The dispatch loop reaches a tail only after a
    unit hands a block to the walker (:class:`ResumeOnWalker`).  Each
    block is hashed once per build; region keys compose those digests.
    """
    digests = {block.label: block_digest(block) for block in func.blocks}
    table: Dict[str, Optional[Callable]] = dict.fromkeys(digests)
    for chain in discover_regions(func):
        head = chain[0]
        if len(chain) > 1:
            key = _region_key([digests[block.label] for block in chain])
            code = _memoised(key, compile_region, chain)
        else:
            code = _memoised(digests[head.label], compile_block, head)
        table[head.label] = code.fn
    return table


def clear_code_memo() -> int:
    """Drop every memoised closure; returns how many were dropped.

    Used by cold-start benchmarks (``benchmarks/bench_interp.py``) and
    by tests that need to observe codegen itself.
    """
    dropped = len(_MEMO)
    _MEMO.clear()
    _STATS.compiled = _STATS.hits = _STATS.fallbacks = 0
    _STATS.regions = _STATS.loops = 0
    _STATS.evictions = _STATS.replays = 0
    _STATS.fallback_codes.clear()
    return dropped


def code_memo_stats() -> CodeMemoStats:
    """Live telemetry of the process-wide code memo."""
    return _STATS
