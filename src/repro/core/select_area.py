"""Selection under an area budget — the paper's Section 9 future work.

The paper selects the ``Ninstr`` best cuts regardless of silicon cost and
only reports area after the fact.  Its conclusions name "instruction
selection under area constraint" as the natural next problem; this module
implements it on top of the same identification machinery:

1. A **candidate pool** is built per basic block by running the iterative
   identification to exhaustion (every profitable cut, in discovery
   order, each collapsed before finding the next — so candidates from one
   block never overlap).
2. Candidates then enter a **0/1 knapsack**: maximise total merit subject
   to ``sum(area) <= area_budget`` (areas discretised to a configurable
   resolution).  The knapsack is solved exactly by dynamic programming;
   a greedy merit-density heuristic is also provided for comparison and
   as the fallback for very large pools.

The result type is the ordinary :class:`SelectionResult`, so area-aware
selections plug into every existing report and the cycle simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..hwmodel.latency import CostModel
from ..hwmodel.merit import cut_area
from ..ir.dfg import DataFlowGraph
from .cut import Constraints, Cut
from .selection import SelectionResult, make_result, merge_stats
from .single_cut import SearchLimits, SearchStats, find_best_cut


@dataclass(frozen=True)
class AreaCandidate:
    """A candidate instruction with its silicon price tag."""

    cut: Cut
    area: float

    @property
    def merit(self) -> float:
        return self.cut.merit

    @property
    def density(self) -> float:
        """Merit per unit area (cycles saved per MAC-equivalent)."""
        if self.area <= 0:
            return math.inf
        return self.merit / self.area


def _block_candidates(
    dfg: DataFlowGraph,
    constraints: Constraints,
    model: CostModel,
    limits: Optional[SearchLimits],
    max_per_block: int,
    cache=None,
) -> Tuple[List[AreaCandidate], SearchStats]:
    """Exhaust one block's candidate pool (independent of every other
    block).

    *cache* is threaded into the per-round searches — the sweep warm
    phase passes one so the chain it computes here also serves the
    iterative algorithm.
    """
    stats = SearchStats()
    candidates: List[AreaCandidate] = []
    current = dfg
    for _ in range(max_per_block):
        result = find_best_cut(current, constraints, model, limits,
                               cache=cache)
        merge_stats(stats, result.stats)
        if result.cut is None or result.cut.merit <= 0:
            break
        area = cut_area(result.cut.dfg, result.cut.nodes, model)
        candidates.append(AreaCandidate(cut=result.cut, area=area))
        current = current.collapse(result.cut.nodes,
                                   label=f"area{len(candidates)}")
    return candidates, stats


def enumerate_candidates(
    dfgs: Sequence[DataFlowGraph],
    constraints: Constraints,
    model: CostModel,
    limits: Optional[SearchLimits] = None,
    max_per_block: int = 32,
    stats: Optional[SearchStats] = None,
    cache=None,
) -> List[AreaCandidate]:
    """Exhaust the iterative identifier on every block.

    Returns non-overlapping candidates (cuts from the same block never
    share operations, by construction of the collapse step).  *cache*
    is an optional memo (duck-typed ``get_pool``/``put_pool``); hits
    skip a block's searches entirely, with identical results.
    """
    candidates: List[AreaCandidate] = []
    for dfg in dfgs:
        pool = (cache.get_pool(dfg, constraints, model, limits,
                               max_per_block)
                if cache is not None else None)
        if pool is None:
            pool = _block_candidates(dfg, constraints, model, limits,
                                     max_per_block)
            if cache is not None:
                cache.put_pool(dfg, constraints, model, limits,
                               max_per_block, *pool)
        block_cands, block_stats = pool
        if stats is not None:
            merge_stats(stats, block_stats)
        candidates.extend(block_cands)
    return candidates


def knapsack_select(
    candidates: Sequence[AreaCandidate],
    area_budget: float,
    resolution: float = 0.01,
    max_count: Optional[int] = None,
) -> List[AreaCandidate]:
    """Exact 0/1 knapsack over the candidates (DP on discretised area).

    Args:
        candidates: the pool.
        area_budget: maximum total area, in MAC-equivalents.
        resolution: area discretisation step (MACs); areas round *up* so
            the budget is never exceeded.
        max_count: optional cardinality cap (``Ninstr``), enforced
            *inside* the DP state — truncating the unconstrained
            solution afterwards can be arbitrarily suboptimal (it keeps
            the highest-merit members of the wrong set).
    """
    if area_budget < 0:
        raise ValueError("area budget must be non-negative")
    capacity = int(math.floor(area_budget / resolution + 1e-9))
    weights = [max(0, int(math.ceil(c.area / resolution - 1e-9)))
               for c in candidates]
    # States beyond the summed item weight are unreachable; trimming
    # them keeps the DP small when the budget is effectively unlimited.
    capacity = min(capacity, sum(weights))

    profitable = sum(1 for c in candidates if c.merit > 0)
    if max_count is None or max_count >= profitable:
        # Cardinality cap vacuous: classic one-dimensional DP.
        best = [0.0] * (capacity + 1)
        chosen: List[Tuple[int, ...]] = [()] * (capacity + 1)
        for idx, cand in enumerate(candidates):
            weight = weights[idx]
            if cand.merit <= 0:
                continue
            for w in range(capacity, weight - 1, -1):
                alternative = best[w - weight] + cand.merit
                if alternative > best[w]:
                    best[w] = alternative
                    chosen[w] = chosen[w - weight] + (idx,)
        top = max(range(capacity + 1), key=lambda w: best[w])
        return [candidates[i] for i in chosen[top]]

    # dp[k][w] = best merit of exactly <= k items within weight w; the
    # count is a DP dimension so the optimum under *both* budgets is
    # exact.
    best2 = [[0.0] * (capacity + 1) for _ in range(max_count + 1)]
    chosen2: List[List[Tuple[int, ...]]] = [
        [()] * (capacity + 1) for _ in range(max_count + 1)]
    for idx, cand in enumerate(candidates):
        weight = weights[idx]
        if cand.merit <= 0:
            continue
        for k in range(max_count, 0, -1):
            row, prev = best2[k], best2[k - 1]
            crow, cprev = chosen2[k], chosen2[k - 1]
            for w in range(capacity, weight - 1, -1):
                alternative = prev[w - weight] + cand.merit
                if alternative > row[w]:
                    row[w] = alternative
                    crow[w] = cprev[w - weight] + (idx,)
    best_k, best_w = 0, 0
    for k in range(max_count + 1):
        for w in range(capacity + 1):
            if best2[k][w] > best2[best_k][best_w]:
                best_k, best_w = k, w
    return [candidates[i] for i in chosen2[best_k][best_w]]


def greedy_select(
    candidates: Sequence[AreaCandidate],
    area_budget: float,
    max_count: Optional[int] = None,
) -> List[AreaCandidate]:
    """Merit-density greedy: cheap, and a useful baseline for the DP.
    ``max_count`` stops the scan once that many candidates are picked."""
    remaining = area_budget
    picked: List[AreaCandidate] = []
    for cand in sorted(candidates, key=lambda c: -c.density):
        if max_count is not None and len(picked) >= max_count:
            break
        if cand.merit <= 0:
            continue
        if cand.area <= remaining + 1e-12:
            picked.append(cand)
            remaining -= cand.area
    return picked


def select_area_constrained(
    dfgs: Sequence[DataFlowGraph],
    constraints: Constraints,
    area_budget: float,
    model: Optional[CostModel] = None,
    limits: Optional[SearchLimits] = None,
    method: str = "knapsack",
    max_per_block: int = 32,
    cache=None,
) -> SelectionResult:
    """Select cuts maximising merit under both port and area budgets.

    Args:
        dfgs: one DFG per profiled basic block.
        constraints: per-instruction port limits; ``ninstr`` still caps
            the number of instructions.
        area_budget: total silicon budget in MAC-equivalent units.
        method: ``"knapsack"`` (exact DP) or ``"greedy"`` (density
            heuristic).
        max_per_block: candidate-pool depth per basic block.
        cache: optional identification memo (e.g. ``repro.explore.
            SearchCache``) for the candidate pools.

    The ``ninstr`` cardinality cap is enforced *inside* the knapsack DP
    (and as a stop condition of the greedy scan) — never by truncating
    an unconstrained solution afterwards, which can be arbitrarily
    suboptimal.
    """
    model = model or CostModel()
    stats = SearchStats()
    pool = enumerate_candidates(dfgs, constraints, model, limits,
                                max_per_block=max_per_block,
                                stats=stats, cache=cache)
    if method == "knapsack":
        picked = knapsack_select(pool, area_budget,
                                 max_count=constraints.ninstr)
    elif method == "greedy":
        picked = greedy_select(pool, area_budget,
                               max_count=constraints.ninstr)
    else:
        raise ValueError(f"unknown method {method!r}")

    picked.sort(key=lambda c: -c.merit)
    return make_result(
        algorithm=f"AreaConstrained({method}, {area_budget:g} MAC)",
        constraints=constraints,
        cuts=[c.cut for c in picked],
        dfgs=dfgs,
        model=model,
        stats=stats,
    )
