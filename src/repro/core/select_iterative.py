"""Iterative selection (Section 6.3 of the paper).

Repeatedly runs single-cut identification.  After a cut is chosen it is
*collapsed* into a single forbidden supernode of its block's DFG, so later
rounds can neither reuse its operations nor form cuts that would be
non-convex through it.  Globally, at every round the block offering the
largest merit improvement contributes the next instruction — the same
greedy outer loop as optimal selection, but with the cheap identifier.

The expensive first round is one exhaustive identification per block.
With a ``cache`` it is a lookup per block: a sweep's warm phase fills
the cache beforehand, sharded over worker processes
(:func:`repro.cluster.scheduled_map`), so selection itself stays a
plain loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..hwmodel.latency import CostModel
from ..ir.dfg import DataFlowGraph
from .cut import Constraints, Cut
from .selection import SelectionResult, make_result, merge_stats
from .single_cut import SearchLimits, SearchStats, find_best_cut


@dataclass
class _BlockState:
    """Per-basic-block state of the iterative selection loop."""

    original: DataFlowGraph
    current: DataFlowGraph
    candidate: Optional[Cut]
    rounds: int = 0
    complete: bool = True


def select_iterative(
    dfgs: Sequence[DataFlowGraph],
    constraints: Constraints,
    model: Optional[CostModel] = None,
    limits: Optional[SearchLimits] = None,
    cache=None,
) -> SelectionResult:
    """Choose up to ``constraints.ninstr`` cuts across all blocks.

    Args:
        dfgs: one DFG per (profiled) basic block.
        constraints: I/O port limits and the instruction budget.
        model: cost model for the merit function.
        limits: optional per-identification search budget.
        cache: optional identification memo (e.g. ``repro.explore.
            SearchCache``); hits skip per-block searches, results are
            bit-identical either way.
    """
    model = model or CostModel()
    stats = SearchStats()
    complete = True

    states: List[_BlockState] = []
    for dfg in dfgs:
        result = find_best_cut(dfg, constraints, model, limits, cache=cache)
        merge_stats(stats, result.stats)
        complete = complete and result.complete
        states.append(_BlockState(
            original=dfg,
            current=dfg,
            candidate=result.cut,
        ))

    chosen: List[Cut] = []
    while len(chosen) < constraints.ninstr:
        best_state: Optional[_BlockState] = None
        for state in states:
            if state.candidate is None or state.candidate.merit <= 0:
                continue
            if (best_state is None
                    or state.candidate.merit > best_state.candidate.merit):
                best_state = state
        if best_state is None:
            break

        cut = best_state.candidate
        chosen.append(cut)
        best_state.rounds += 1
        if len(chosen) >= constraints.ninstr:
            break       # budget filled: a replacement candidate would
            #             never be read, so don't search for one

        # Collapse the chosen cut and look for the next one in this block.
        collapsed = best_state.current.collapse(
            cut.nodes, label=f"ise{best_state.rounds}")
        best_state.current = collapsed
        result = find_best_cut(collapsed, constraints, model, limits,
                               cache=cache)
        merge_stats(stats, result.stats)
        complete = complete and result.complete
        best_state.candidate = result.cut

    return make_result(
        algorithm="Iterative",
        constraints=constraints,
        cuts=chosen,
        dfgs=dfgs,
        model=model,
        stats=stats,
        complete=complete,
    )
