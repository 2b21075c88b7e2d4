"""Optimal selection (Section 6.2, Fig. 10 of the paper).

For each basic block ``b`` let ``V_b(m)`` be the best total merit of ``m``
simultaneous disjoint cuts, computed exactly by the multi-cut search.  The
outer loop is a greedy ascent over the per-block marginal improvements
``V_b(m_b + 1) - V_b(m_b)``; since every per-block evaluation is *exact*,
the paper shows this converges to the optimal allocation after at most
``Ninstr + Nbb - 1`` multi-cut identifications.

The multi-cut search is exponential in the strong sense (``(M+1)^n``); the
``max_nodes`` guard reproduces the paper's observation that Optimal could
not be run on the largest adpcm-decode block, failing *explicitly* instead
of silently hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..hwmodel.latency import CostModel
from ..ir.dfg import DataFlowGraph
from .cut import Constraints, Cut
from .multi_cut import MultiCutResult, find_best_cuts
from .selection import SelectionResult, make_result, merge_stats
from .single_cut import SearchLimits, SearchStats


class BlockTooLargeError(RuntimeError):
    """Raised when optimal selection is attempted on an oversized block."""


@dataclass
class _BlockState:
    dfg: DataFlowGraph
    committed: int = 0          # m_b — instructions granted to this block
    value: float = 0.0          # V_b(m_b)
    next_value: float = 0.0     # V_b(m_b + 1)
    next_result: Optional[MultiCutResult] = None

    @property
    def improvement(self) -> float:
        return self.next_value - self.value


def select_optimal(
    dfgs: Sequence[DataFlowGraph],
    constraints: Constraints,
    model: Optional[CostModel] = None,
    limits: Optional[SearchLimits] = None,
    max_nodes: Optional[int] = 40,
    cache=None,
) -> SelectionResult:
    """Optimal selection of up to ``constraints.ninstr`` cuts.

    Args:
        dfgs: one DFG per (profiled) basic block.
        constraints: I/O port limits and the instruction budget.
        model: cost model for the merit function.
        limits: optional search budget per identification call.
        max_nodes: refuse blocks larger than this (``None`` disables the
            guard).  Raises :class:`BlockTooLargeError`.
        cache: optional identification memo (e.g. ``repro.explore.
            SearchCache``); hits skip multi-cut searches, results are
            bit-identical either way.
    """
    model = model or CostModel()
    if max_nodes is not None:
        for dfg in dfgs:
            if dfg.n > max_nodes:
                raise BlockTooLargeError(
                    f"block {dfg.name} has {dfg.n} nodes (> {max_nodes}); "
                    f"optimal selection is infeasible — use "
                    f"select_iterative instead (cf. Section 8 of the "
                    f"paper: Optimal could not run on adpcmdecode)")

    stats = SearchStats()
    complete = True
    states: List[_BlockState] = []
    for dfg in dfgs:
        result = find_best_cuts(dfg, constraints, 1, model, limits,
                                cache=cache)
        merge_stats(stats, result.stats)
        complete = complete and result.complete
        states.append(_BlockState(
            dfg=dfg,
            committed=0,
            value=0.0,
            next_value=result.total_merit,
            next_result=result,
        ))

    granted = 0
    while granted < constraints.ninstr:
        best = max(states, key=lambda s: s.improvement, default=None)
        if best is None or best.improvement <= 0:
            break
        best.committed += 1
        best.value = best.next_value
        granted += 1
        if granted >= constraints.ninstr:
            break
        result = find_best_cuts(
            best.dfg, constraints, best.committed + 1, model, limits,
            cache=cache)
        merge_stats(stats, result.stats)
        complete = complete and result.complete
        best.next_value = result.total_merit
        best.next_result = result

    # Materialise the committed cuts: re-run each block at its final m_b.
    cuts: List[Cut] = []
    for state in states:
        if state.committed == 0:
            continue
        result = find_best_cuts(
            state.dfg, constraints, state.committed, model, limits,
            cache=cache)
        merge_stats(stats, result.stats)
        complete = complete and result.complete
        cuts.extend(result.cuts)
    cuts.sort(key=lambda c: -c.merit)
    cuts = cuts[:constraints.ninstr]

    return make_result(
        algorithm="Optimal",
        constraints=constraints,
        cuts=cuts,
        dfgs=dfgs,
        model=model,
        stats=stats,
        complete=complete,
    )
