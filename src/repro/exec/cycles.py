"""Dynamic cycle accounting for baseline and ISE-rewritten programs.

The static merit model (:mod:`repro.hwmodel.merit`) estimates saved cycles
from the profile the selection was made from.  This module measures the
same quantity *dynamically*: it executes a program in the interpreter and
charges, per basic-block visit,

* the execution-stage software latency of every ordinary operation, and
* ``latency_cycles`` of the bound AFU for every ISE instruction,

so cycle counts reflect the real block frequencies of the run.  Register
copy-backs introduced by the rewriter cost nothing (they model direct
register-file writes of a real ISE; see :mod:`repro.exec.rewrite`), which
the rewriter communicates through its ``block_costs`` overrides.

Invariant (tested): running the original and the rewritten program on the
*same* input gives ``baseline.cycles - rewritten.cycles ==
selection.total_merit`` exactly, because both runs visit blocks with the
frequencies the merit was weighted by.  The profiling run sums its
counts through the same :func:`block_cycles`, so it *is* that baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..hwmodel.latency import CostModel
from ..interp.interpreter import Interpreter
from ..interp.memory import Memory
from ..ir.function import Module
from ..ir.opcodes import Opcode


@dataclass(frozen=True)
class CycleReport:
    """Cycle accounting of one execution.

    Attributes:
        cycles: total charged cycles (floats only because cost models may
            be fractional; the default model charges whole cycles).
        steps: instructions the interpreter executed (dynamic count).
        value: return value of the entry function (``None`` for void).
    """

    cycles: float
    steps: int
    value: Optional[int]


def module_block_costs(
    module: Module,
    model: Optional[CostModel] = None,
) -> Dict[Tuple[str, str], float]:
    """Per-block cycle cost of *module* under *model*.

    Ordinary operations charge their software latency; ISE instructions
    charge their AFU's ``latency_cycles``.  For rewritten modules prefer
    the rewriter's ``block_costs`` overrides (they exclude the zero-cost
    architectural copy-backs); this function is the baseline fallback.
    """
    model = model or CostModel()
    costs: Dict[Tuple[str, str], float] = {}
    for func in module.functions.values():
        for block in func.blocks:
            cost = 0.0
            for insn in block.body:
                if insn.opcode is Opcode.ISE:
                    cost += insn.afu.latency_cycles
                else:
                    cost += model.sw_latency.get(insn.opcode, 1)
            costs[(func.name, block.label)] = cost
    return costs


def block_cycles(counts: Mapping[Tuple[str, str], int],
                 costs: Mapping[Tuple[str, str], float]) -> float:
    """Cycles of a run with block entry *counts* under per-block *costs*.

    Sorted iteration: the backends produce identical counts but in
    different insertion orders (the compiled engine folds callee frames
    first), and float summation of fractional cost models is
    order-sensitive — a fixed order keeps the total bit-identical.
    """
    cycles = 0.0
    for key, count in sorted(counts.items()):
        cycles += count * costs.get(key, 0.0)
    return cycles


def run_with_cycles(
    module: Module,
    entry: str,
    args: Sequence[int] = (),
    memory: Optional[Memory] = None,
    model: Optional[CostModel] = None,
    cost_overrides: Optional[Dict[Tuple[str, str], float]] = None,
    backend: Optional[str] = None,
) -> CycleReport:
    """Execute ``entry(*args)`` and account cycles per executed block.

    Cycle accounting is backend-agnostic by construction: both engines
    produce identical per-block entry counts (the compiled backend
    aggregates them per call frame, DESIGN.md §11), and the cycle total
    is a pure function of those counts and the static per-block costs.

    Args:
        module: program to run (baseline or ISE-rewritten).
        entry: entry function name.
        args: entry arguments (32-bit wrapped by the interpreter).
        memory: memory image; pass the driver-filled image of a workload
            run (a fresh one is created otherwise).
        model: cost model; must match the selection's model for measured
            and estimated speedups to be comparable.
        cost_overrides: per-block cost replacements, e.g.
            ``RewriteResult.block_costs``.
        backend: execution backend (``"walk"``/``"compiled"``; default
            ``$REPRO_BACKEND``, else compiled) — the reported cycles,
            steps and value are bit-identical either way.

    Returns:
        A :class:`CycleReport` with total cycles, dynamic instruction
        count and the entry's return value.
    """
    costs = module_block_costs(module, model)
    if cost_overrides:
        costs.update(cost_overrides)
    interp = Interpreter(module, memory=memory, backend=backend)
    outcome = interp.run(entry, args)
    return CycleReport(cycles=block_cycles(interp.profile.counts, costs),
                       steps=outcome.steps, value=outcome.value)
