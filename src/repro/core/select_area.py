"""Selection under an area budget — the paper's Section 9 future work.

The paper selects the ``Ninstr`` best cuts regardless of silicon cost and
only reports area after the fact.  Its conclusions name "instruction
selection under area constraint" as the natural next problem; this module
implements it on top of the same identification machinery:

1. A **candidate pool** is built per basic block by running the iterative
   identification to exhaustion (every profitable cut, in discovery
   order, each collapsed before finding the next — so candidates from one
   block never overlap): the first ``max_per_block`` links of the
   block's :class:`~repro.core.select_iterative.CollapseChain`.
2. Candidates then enter a **0/1 knapsack**: maximise total merit subject
   to ``sum(area) <= area_budget`` (areas discretised to a configurable
   resolution).  The knapsack is solved exactly by dynamic programming
   with one row per item count.  A row never falls as the weight grows,
   so it is stored as its frontier, the weights where it rises; the
   chosen set is read back from the rows as they stood before each
   item.  A greedy merit-density heuristic is also provided for
   comparison.

The result type is the ordinary :class:`SelectionResult`, so area-aware
selections plug into every existing report and into ``repro speedup``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..hwmodel.latency import CostModel
from ..hwmodel.merit import cut_area
from ..ir.dfg import DataFlowGraph
from .cut import Constraints, Cut
from .selection import SelectionResult, make_result, merge_stats
from .select_iterative import CollapseChain
# find_best_cut stays importable here: perfbench/tracing.py wraps the
# search under this module's name too.
from .single_cut import SearchLimits, SearchStats, find_best_cut  # noqa: F401

#: A knapsack DP row as its frontier: ascending weights from 0 and the
#: strictly rising best merits reached there.
_Frontier = Tuple[List[int], List[float]]


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


def enumerate_candidates(
    dfgs: Sequence[DataFlowGraph],
    constraints: Constraints,
    model: CostModel,
    limits: Optional[SearchLimits] = None,
    max_per_block: int = 32,
    stats: Optional[SearchStats] = None,
    cache=None,
    chains: Optional[Sequence[CollapseChain]] = None,
) -> List[AreaCandidate]:
    """Exhaust the iterative identifier on every block.

    Returns non-overlapping candidates (cuts from the same block never
    share operations, by construction of the collapse step).  *cache*
    is an optional memo of collapse chains for the chains built here;
    *chains* optionally supplies the blocks' collapse chains (shared
    with iterative selection), built fresh when omitted.
    """
    if chains is None:
        chains = [CollapseChain(dfg, constraints, model, limits, cache)
                  for dfg in dfgs]
    candidates: List[AreaCandidate] = []
    for chain in chains:
        # Walk the first max_per_block links in one call, so a cached
        # chain puts its entry once, not once per searched link.
        if max_per_block > 0:
            chain.link(max_per_block - 1)
        # The profitable cuts among those links; stats sum per block
        # first, then across blocks.
        block_stats = SearchStats()
        for k in range(max_per_block):
            result = chain.link(k)
            merge_stats(block_stats, result.stats)
            cut = result.cut
            if cut is None or cut.merit <= 0:
                break
            candidates.append(AreaCandidate(
                cut=cut, area=cut_area(cut.dfg, cut.nodes, chain.model)))
        if stats is not None:
            merge_stats(stats, block_stats)
    return candidates


def _add_item(old: _Frontier, prev: _Frontier, weight: int, merit: float,
              capacity: int) -> _Frontier:
    """The frontier of ``max(old(w), prev(w - weight) + merit)`` over
    ``0 <= w <= capacity``: *old* merged with *prev* shifted by
    ``(weight, merit)``, keeping the points that raise the running
    maximum, one per weight."""
    oxs, ovs = old
    pxs, pvs = prev
    # Below the item's weight the old frontier stands.
    i = bisect_left(oxs, weight)
    xs, vs = oxs[:i], ovs[:i]
    top = vs[-1] if i else -math.inf
    end = len(oxs)
    for j in range(bisect_right(pxs, capacity - weight)):
        x = pxs[j] + weight
        while i < end and oxs[i] <= x:
            if ovs[i] > top:
                top = ovs[i]
                xs.append(oxs[i])
                vs.append(top)
            i += 1
        v = pvs[j] + merit
        if v > top:
            top = v
            if xs[-1] == x:
                vs[-1] = v
            else:
                xs.append(x)
                vs.append(v)
    # Old points past the last shifted one survive once above the top.
    i = bisect_right(ovs, top, i)
    return xs + oxs[i:], vs + ovs[i:]


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

    Each DP row (the best merit of at most *k* items, per weight) is a
    non-decreasing step function of the weight, so it is kept as its
    frontier: the weights where its value rises, and the values there
    (Nemhauser & Ullmann, 1969).  Adding an item merges two frontiers;
    the values are the same float sums a dense row of ``capacity + 1``
    cells would hold.  The rows as they stood before each item are kept
    (frontiers are never mutated).  The backtrack takes an item at cell
    *w* of row *k* exactly when it improved that cell:
    ``prev(w - weight) + merit > old(w)``, with *old* row *k* and
    *prev* row *k - 1* (row *k* itself without a binding cap) before
    the item.

    Ties keep the earliest solution: an item replaces a cell only on a
    strict improvement, and the answer is the first best cell.
    """
    if area_budget < 0:
        raise ValueError("area budget must be non-negative")
    capacity = int(math.floor(area_budget / resolution + 1e-9))
    merits = [c.merit for c in candidates]
    weights = [max(0, int(math.ceil(c.area / resolution - 1e-9)))
               for c in candidates]
    # States beyond the summed item weight are unreachable; trimming
    # them keeps the DP small when the budget is effectively unlimited.
    capacity = min(capacity, sum(weights))
    items = [i for i, merit in enumerate(merits) if merit > 0]
    capped = max_count is not None and max_count < len(items)
    items = [i for i in items if weights[i] <= capacity]

    # One DP row per item count, row 0 staying empty; an item updates
    # row k from rows k and k-1 as they were before it.  Without a
    # binding cap a single row, of any count, suffices: it reads itself
    # before the update.
    shift = 1 if capped else 0
    count_rows = max_count + 1 if capped else 2
    rows: List[_Frontier] = [([0], [0.0])] * count_rows
    before: List[List[_Frontier]] = []
    for i in items:
        before.append(rows)
        # Rows past the number of items seen so far are all the same
        # function, so they share one frontier.
        live = min(count_rows, len(before) + 1)
        new = [rows[0]] + [
            _add_item(rows[k], rows[k - shift], weights[i], merits[i],
                      capacity)
            for k in range(1, live)]
        rows = new + new[-1:] * (count_rows - live)

    # The first best cell in (count, weight) order: a row's top is its
    # last value, first reached at its last weight.
    best_k, best_w, best = 0, 0, 0.0
    for k in range(1, len(rows)):
        xs, vs = rows[k]
        if vs[-1] > best:
            best_k, best_w, best = k, xs[-1], vs[-1]
    picked: List[int] = []
    k, w = best_k, best_w
    for j in range(len(items) - 1, -1, -1):
        if k == 0:
            break
        i = items[j]
        if w < weights[i]:
            continue
        oxs, ovs = before[j][k]
        pxs, pvs = before[j][k - shift]
        if (pvs[bisect_right(pxs, w - weights[i]) - 1] + merits[i]
                > ovs[bisect_right(oxs, w) - 1]):
            picked.append(i)
            w -= weights[i]
            k -= shift
    return [candidates[i] for i in reversed(picked)]


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
    chains: Optional[Sequence[CollapseChain]] = None,
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
        chains: optional per-block collapse chains shared with other
            selections (see :func:`enumerate_candidates`).

    The ``ninstr`` cardinality cap is enforced *inside* the knapsack DP
    (and as a stop condition of the greedy scan) — never by truncating
    an unconstrained solution afterwards, which can be arbitrarily
    suboptimal.
    """
    model = model or CostModel()
    stats = SearchStats()
    pool = enumerate_candidates(dfgs, constraints, model, limits,
                                max_per_block=max_per_block,
                                stats=stats, cache=cache, chains=chains)
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
