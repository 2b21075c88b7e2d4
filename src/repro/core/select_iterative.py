"""Iterative selection (Section 6.3 of the paper).

Repeatedly runs single-cut identification.  After a cut is chosen it is
*collapsed* into a single forbidden supernode of its block's DFG, so later
rounds can neither reuse its operations nor form cuts that would be
non-convex through it.  Globally, at every round the block offering the
largest merit improvement contributes the next instruction — the same
greedy outer loop as optimal selection, but with the cheap identifier.

Each block's find-best/collapse sequence is a :class:`CollapseChain`.
It does not depend on ``Ninstr``, so ``chains=`` lets selections share
one chain per block: a sweep hands the same chains to the iterative and
area rows (:mod:`repro.core.select_area`) of one (workload, Nin, Nout).

The expensive first round is one exhaustive identification per block.
With a ``cache`` it is a lookup per block: a sweep's warm phase fills
the cache beforehand, sharded over worker processes
(:func:`repro.cluster.scheduled_map`), so selection itself stays a
plain loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..hwmodel.latency import CostModel
from ..ir.dfg import DataFlowGraph
from .cut import Constraints, Cut
from .selection import SelectionResult, make_result, merge_stats
from .single_cut import SearchLimits, SearchResult, SearchStats, find_best_cut


class CollapseChain:
    """One block's find-best/collapse sequence under fixed ports, cost
    model and search limits.

    Link *k* holds graph *k* — the block with the best cuts of links
    ``0..k-1`` collapsed into forbidden supernodes ``ise1``..``isek`` —
    and the :func:`find_best_cut` result on it.  Links are computed on
    first use and kept while the chain lives; the chain ends at the
    first link without a profitable cut.
    """

    def __init__(self, dfg: DataFlowGraph, constraints: Constraints,
                 model: CostModel, limits: Optional[SearchLimits] = None,
                 cache=None) -> None:
        self.constraints = constraints
        self.model = model
        self.limits = limits
        self.cache = cache
        self.graphs: List[DataFlowGraph] = [dfg]
        self.results: List[SearchResult] = []

    def link(self, k: int) -> Optional[SearchResult]:
        """The search result of link *k*, or ``None`` past the chain's
        end."""
        results = self.results
        while len(results) <= k:
            if results:
                cut = results[-1].cut
                if cut is None or cut.merit <= 0:
                    return None
                self.graphs.append(self.graphs[-1].collapse(
                    cut.nodes, label=f"ise{len(results)}"))
            results.append(find_best_cut(self.graphs[-1], self.constraints,
                                         self.model, self.limits,
                                         cache=self.cache))
        return results[k]


def select_iterative(
    dfgs: Sequence[DataFlowGraph],
    constraints: Constraints,
    model: Optional[CostModel] = None,
    limits: Optional[SearchLimits] = None,
    cache=None,
    chains: Optional[Sequence[CollapseChain]] = None,
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
        chains: optional per-block :class:`CollapseChain` list (same
            order as *dfgs*, same ports, model and limits) shared with
            other selections; fresh chains are built when omitted.
    """
    model = model or CostModel()
    if chains is None:
        chains = [CollapseChain(dfg, constraints, model, limits, cache)
                  for dfg in dfgs]
    stats = SearchStats()
    complete = True
    rounds = [0] * len(chains)          # cuts taken from each block
    candidates: List[Optional[Cut]] = [None] * len(chains)
    chosen: List[Cut] = []
    pending: Sequence[int] = range(len(chains))
    while True:
        # The next link of each pending block: its graph has every cut
        # taken from the block collapsed.
        for b in pending:
            result = chains[b].link(rounds[b])
            merge_stats(stats, result.stats)
            complete = complete and result.complete
            candidates[b] = result.cut
        best: Optional[int] = None
        for b, cut in enumerate(candidates):
            if (cut is not None and cut.merit > 0
                    and (best is None or cut.merit > candidates[best].merit)):
                best = b
        if best is None:
            break
        chosen.append(candidates[best])
        rounds[best] += 1
        if len(chosen) >= constraints.ninstr:
            break       # budget filled: a replacement candidate would
            #             never be read, so don't search for one
        pending = (best,)

    return make_result(
        algorithm="Iterative",
        constraints=constraints,
        cuts=chosen,
        dfgs=dfgs,
        model=model,
        stats=stats,
        complete=complete,
    )
