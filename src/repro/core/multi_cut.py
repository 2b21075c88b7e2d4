"""Simultaneous identification of ``M`` disjoint cuts (Section 6.2, Fig. 9).

Generalises the single-cut search: the tree becomes ``(M+1)``-ary — at
level ``i``, node ``i`` either stays in software (branch 0) or joins cut
``k`` (branch ``k``).  Each cut maintains its own incremental bitset state;
the monotone output/convexity checks prune per cut exactly as in the
single-cut algorithm.

Cuts are exchangeable, so the search canonicalises labels: a node may open
cut ``k`` only when cuts ``1..k-1`` are already nonempty.  This removes a
factorial symmetry factor without losing any solution.

The tree walk is the multi-cut mode of :mod:`repro.core.engine`; this
module provides the problem-level API.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

from ..hwmodel.latency import CostModel
from ..ir.dfg import DataFlowGraph
from .cut import Constraints, Cut, evaluate_cut
from .engine import SearchLimits, SearchStats, run_multi_cut

__all__ = ["MultiCutResult", "find_best_cuts"]


@dataclass
class MultiCutResult:
    """Outcome of :func:`find_best_cuts`."""

    cuts: List[Cut]
    total_merit: float
    stats: SearchStats
    complete: bool = True


def find_best_cuts(
    dfg: DataFlowGraph,
    constraints: Constraints,
    num_cuts: int,
    model: Optional[CostModel] = None,
    limits: Optional[SearchLimits] = None,
    cache=None,
) -> MultiCutResult:
    """Find up to *num_cuts* disjoint cuts of *dfg* maximising the merit
    sum, each cut individually satisfying *constraints* (Section 6.2).

    *cache* is an optional memo (duck-typed ``key``/``get``/``put``,
    e.g. :class:`repro.explore.cache.SearchCache`); a hit skips the
    search and returns the identical result.
    """
    model = model or CostModel()
    if cache is not None:
        key = cache.key("multi", dfg, constraints, model, limits, num_cuts)
        hit = cache.get(key)
        if hit is not None:
            node_sets, total_merit, stats, complete = hit
            return MultiCutResult([evaluate_cut(dfg, frozenset(nodes), model)
                                   for nodes in node_sets], total_merit,
                                  SearchStats(**stats), complete)
    best_sets, best_total, stats, complete = run_multi_cut(
        dfg, constraints, num_cuts, model, limits)
    cuts: List[Cut] = []
    if best_sets is not None:
        for members in best_sets:
            if members:
                cuts.append(evaluate_cut(dfg, members, model))
    cuts.sort(key=lambda c: -c.merit)
    result = MultiCutResult(
        cuts=cuts,
        total_merit=best_total,
        stats=stats,
        complete=complete,
    )
    if cache is not None:
        # Cuts in the result's (merit-sorted) order: a hit needs no sort.
        cache.put(key, (tuple(tuple(sorted(c.nodes)) for c in cuts),
                        best_total, asdict(stats), complete))
    return result
