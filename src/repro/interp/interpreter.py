"""IR interpreter with 32-bit wrapping semantics and profiling.

Shares its arithmetic with the constant folder
(:func:`repro.passes.constant_folding.evaluate_pure_op`), so compile-time
and run-time evaluation can never diverge.  Used for:

* gathering basic-block execution profiles (the ``weight`` of each DFG);
* bit-exactness tests of the MiniC workloads against golden Python models;
* validating that AFU specialisation preserves program semantics;
* measuring end-to-end cycle counts of baseline and ISE-rewritten
  programs (:mod:`repro.exec`).

Two execution backends share this class (DESIGN.md §11–§12):

* ``"walk"`` — the original tree-walking reference loop, one dispatch
  per operation.  It is the semantic oracle the compiled backend is
  differentially tested against.
* ``"compiled"`` (the default) — generated Python from
  :mod:`repro.interp.compile`: each function is one closure whose
  control flow is structured Python, registers are locals, opcode
  semantics and memory accesses are inlined, and step counters are
  aggregated.  Block entries are tallied per function and folded into
  the profile once per :meth:`Interpreter.run`, not per call frame.

The compiled backend is bit-identical to the walker by obligation:
results, step counts, profiles, traps and the exact step index at which
:class:`ExecutionLimitExceeded` fires all match.

Select a backend per interpreter (``Interpreter(..., backend="walk")``),
or process-wide with ``$REPRO_BACKEND``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..ir.function import BasicBlock, Function, Module
from ..ir.opcodes import Opcode
from ..ir.values import Const, Operand, wrap32
from ..passes.constant_folding import evaluate_pure_op
from .memory import Memory, TrapError
from .profile import ProfileData

#: The recognised execution backends, fastest-first: ``"compiled"``
#: (one closure per function) and ``"walk"`` (the reference oracle).
BACKENDS = ("compiled", "walk")


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend choice against ``$REPRO_BACKEND``.

    An explicit *backend* wins; otherwise the environment variable
    decides, and the compiled backend is the default.  Unknown names
    raise ``ValueError`` rather than silently running on the wrong
    engine.
    """
    chosen = backend
    if chosen is None:
        chosen = os.environ.get("REPRO_BACKEND", "").strip() or "compiled"
    if chosen not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise ValueError(
            f"unknown execution backend {chosen!r}; known: {known}")
    return chosen


class ExecutionLimitExceeded(RuntimeError):
    """The step budget ran out — almost certainly a non-terminating loop."""


class ResumeOnWalker(Exception):
    """Signal: run block ``args[0]`` from instruction ``args[1]`` on the
    walker's reference executor, and the rest of the frame after it.

    A compiled function raises it where the step budget could expire
    before its next check — at entry, after a ``CALL`` or at a back
    edge — with every register it defined written back to the frame's
    register dict, so the walker stops at exactly its own step index.
    It lives here, not in :mod:`repro.interp.compile`, so the dispatch
    loop needs nothing from the code generator per call frame.
    """


@dataclass
class RunResult:
    """Outcome of one top-level function execution."""

    value: Optional[int]
    steps: int


class Interpreter:
    """Executes functions of one module against a :class:`Memory` image."""

    def __init__(self, module: Module, memory: Optional[Memory] = None,
                 profile: Optional[ProfileData] = None,
                 max_steps: int = 50_000_000,
                 backend: Optional[str] = None) -> None:
        """Bind a module (and optional memory/profile) for execution.

        Args:
            module: the program to execute.
            memory: memory image (a fresh one is built when omitted).
            profile: profile sink shared across runs (fresh by default).
            max_steps: cumulative step budget across ``run`` calls.
            backend: ``"walk"`` or ``"compiled"``; ``None`` defers to
                ``$REPRO_BACKEND``, default compiled.
        """
        self.module = module
        self.memory = memory if memory is not None else Memory(module)
        self.profile = profile if profile is not None else ProfileData()
        self.max_steps = max_steps
        self.backend = resolve_backend(backend)
        self._steps = 0
        self._frames: Dict[str, tuple] = {}
        # _calls[d] is the CALL callback of compiled frames at depth d.
        self._calls: List[partial] = []

    # ------------------------------------------------------------------
    def run(self, func_name: str, args: Sequence[int] = ()) -> RunResult:
        """Execute ``func_name(*args)``; returns its value and step count.

        Compiled frames tally block entries per function (see
        :meth:`_call`); the tallies are folded into the profile here,
        once per run, also when the run traps or its budget expires.
        """
        start_steps = self._steps
        try:
            value = self._call(0, func_name, [wrap32(a) for a in args])
        finally:
            fold = self.profile.record_block_entries
            for name, frame in self._frames.items():
                tally = frame[3]
                if tally:
                    fold(name, tally)
                    tally.clear()
        executed = self._steps - start_steps
        self.profile.steps += executed
        return RunResult(value=value, steps=executed)

    def _frame(self, func_name: str) -> tuple:
        """Build and cache the ``(func, params, table, tally, entry
        label)`` of *func_name*; traps on an unknown function.

        ``table`` is the compiled backend's dispatch table (``None`` on
        the walker) and ``tally`` the function's ``label -> entry
        count`` tally, shared by all its compiled frames and folded
        into the profile by :meth:`run`.
        """
        func = self.module.functions.get(func_name)
        if func is None:
            raise TrapError(f"call to unknown function {func_name!r}")
        table = None
        if self.backend != "walk":
            # Codegen is imported here, on a function's first frame,
            # so a process that never executes code never pays for it.
            from .compile import build_function_table
            table = build_function_table(func)
        frame = (func, func.params, table, defaultdict(int),
                 func.entry.label)
        self._frames[func_name] = frame
        return frame

    def _call(self, depth: int, func_name: str,
              args: List[int]) -> Optional[int]:
        """Run one call frame of ``func_name(*args)`` at call *depth*.

        Traps in the walker's order: depth, unknown callee, arity.  On
        the compiled backend the function's closure
        (:func:`repro.interp.compile.build_function_table`) runs the
        frame with this method bound to ``depth + 1`` as ``CALL`` (one
        callback per depth).  A refused function runs on
        :meth:`_exec_block_ref`, one block per dispatch, and so does the
        rest of a frame handed over by :class:`ResumeOnWalker` (counted
        in ``code_memo_stats().replays``).
        """
        if depth > 200:
            raise TrapError(f"call depth exceeded at {func_name!r}")
        frame = self._frames.get(func_name)
        if frame is None:
            frame = self._frame(func_name)
        func, params, table, tally, label = frame
        if len(args) != len(params):
            raise TrapError(
                f"{func_name!r} expects {len(params)} args, "
                f"got {len(args)}")
        self.profile.record_call(func_name)
        regs: Dict[str, int] = dict(zip(params, args))
        if table is None:
            return self._run_walk(func, func_name, regs, depth)
        calls = self._calls
        while len(calls) <= depth:
            calls.append(partial(self._call, len(calls) + 1))
        tally[label] += 1
        fn = table[label]
        start = 0
        if fn is not None:
            try:
                return fn(self, regs, self.memory.arrays, calls[depth],
                          tally)
            except ResumeOnWalker as resume:
                from .compile import code_memo_stats
                code_memo_stats().replays += 1
                label, start = resume.args
        outcome = self._exec_block_ref(func_name, func.block(label), regs,
                                       depth, start)
        while outcome.__class__ is not tuple:
            tally[outcome] += 1
            outcome = self._exec_block_ref(
                func_name, func.block(outcome), regs, depth)
        return outcome[0]

    # ------------------------------------------------------------------
    # Walking backend (the reference oracle).
    # ------------------------------------------------------------------
    def _run_walk(self, func: Function, func_name: str,
                  regs: Dict[str, int], depth: int) -> Optional[int]:
        """Reference block-by-block loop over :meth:`_exec_block_ref`."""
        record_block = self.profile.record_block
        get_block = func.block
        block = func.entry
        while True:
            record_block(func_name, block.label)
            outcome = self._exec_block_ref(func_name, block, regs, depth)
            if outcome.__class__ is tuple:
                return outcome[0]
            block = get_block(outcome)

    def _exec_block_ref(self, func_name: str, block: BasicBlock,
                        regs: Dict[str, int], depth: int,
                        start: int = 0):
        """Execute one block walker-style, one dispatch per operation.

        Returns the successor label, or a 1-tuple ``(value,)`` when the
        block returned; this doubles as the compiled backend's fallback.
        *start* skips the block's first instructions (see
        :class:`ResumeOnWalker`).
        Loop-invariant lookups (the operand resolver, memory accessors,
        the step budget) are hoisted out of the hot loop; the step
        counter runs in a local mirror synced back on every exit path.
        """
        value = self._value
        memory = self.memory
        max_steps = self.max_steps
        steps = self._steps
        next_label: Optional[str] = None
        instructions = block.instructions
        if start:
            instructions = instructions[start:]
        try:
            for insn in instructions:
                steps += 1
                if steps > max_steps:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_steps} steps in {func_name!r}")
                op = insn.opcode
                if op is Opcode.BR:
                    cond = value(insn.operands[0], regs)
                    next_label = insn.targets[0] if cond != 0 \
                        else insn.targets[1]
                    break
                if op is Opcode.JMP:
                    next_label = insn.targets[0]
                    break
                if op is Opcode.RET:
                    if insn.operands:
                        return (value(insn.operands[0], regs),)
                    return (None,)
                if op is Opcode.LOAD:
                    index = value(insn.operands[0], regs)
                    regs[insn.dest] = memory.load(insn.array, index)
                    continue
                if op is Opcode.STORE:
                    index = value(insn.operands[0], regs)
                    stored = value(insn.operands[1], regs)
                    memory.store(insn.array, index, stored)
                    continue
                if op is Opcode.ISE:
                    # Fused custom instruction (repro.exec): evaluate the
                    # bound AFU functionally and write back every output
                    # port.  The AFU shares evaluate_pure_op, so results
                    # are bit-identical to the software it replaced.
                    values = [value(a, regs) for a in insn.operands]
                    try:
                        outputs = insn.afu.evaluate(values)
                    except ZeroDivisionError:
                        raise TrapError(
                            f"trap inside custom instruction {insn} "
                            f"(division by zero)")
                    for dest, out in zip(insn.dests, outputs):
                        regs[dest] = out
                    continue
                if op is Opcode.CALL:
                    call_args = [value(a, regs)
                                 for a in insn.operands]
                    self._steps = steps
                    try:
                        result = self._call(depth + 1, insn.callee,
                                            call_args)
                    finally:
                        steps = self._steps
                    if insn.dest is not None:
                        if result is None:
                            raise TrapError(
                                f"void result of {insn.callee!r} used")
                        regs[insn.dest] = result
                    continue
                # Pure operation: shared semantics with the folder.
                values = [value(a, regs) for a in insn.operands]
                result = evaluate_pure_op(op, values)
                if result is None:
                    raise TrapError(f"trap in {insn} (division by zero?)")
                regs[insn.dest] = result
            else:
                raise TrapError(
                    f"block {block.label} fell through without terminator")
        finally:
            self._steps = steps
        if next_label is None:
            raise TrapError("terminator produced no successor")
        return next_label

    @staticmethod
    def _value(operand: Operand, regs: Dict[str, int]) -> int:
        if isinstance(operand, Const):
            return operand.value
        value = regs.get(operand.name)
        if value is None:
            raise TrapError(f"read of undefined register %{operand.name}")
        return value


def execute(module: Module, func_name: str, args: Sequence[int] = (),
            memory: Optional[Memory] = None,
            backend: Optional[str] = None,
            ) -> RunResult:
    """One-shot convenience execution."""
    return Interpreter(module, memory=memory,
                       backend=backend).run(func_name, args)


def profile_module(module: Module, func_name: str,
                   args: Sequence[int] = (),
                   memory: Optional[Memory] = None,
                   backend: Optional[str] = None,
                   ) -> ProfileData:
    """Run ``func_name`` and return the gathered profile."""
    interp = Interpreter(module, memory=memory, backend=backend)
    interp.run(func_name, args)
    return interp.profile
