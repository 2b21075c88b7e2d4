"""Exact single-cut identification — the paper's core algorithm (Fig. 6).

The search walks a binary tree: level ``i`` decides whether DFG node ``i``
joins the cut.  Nodes are numbered in reverse topological order (consumers
before producers), which makes two quantities *monotone* along any root-to-
leaf path of 1-branches:

* ``OUT(S)`` — once a node is inserted, all of its consumers have already
  been decided, so its status as an output of the cut is final and can only
  be added to, never removed;
* convexity — a violated convexity constraint can never be repaired by
  inserting nodes that appear later in the ordering (they are all
  *producers* of what is already in the cut).

Whenever the output-port constraint or the convexity constraint fails at a
tree node, the entire subtree below it is pruned.  The input constraint is
**not** monotone (adding a producer can remove inputs), so in the paper it
only filters which cuts may become the incumbent best solution.  Its
*permanent* part is monotone, though: unbudgeted searches prune on it and
on a merit upper bound (a ``max_considered`` budget turns both off; see
:mod:`repro.core.engine`).

The tree walk itself lives in :mod:`repro.core.engine`: an iterative
branch-and-bound whose incremental state (the refs/reach/bad/cpl
quantities described in DESIGN.md §5) is packed into Python-int bitsets,
so every per-node check is a handful of word-parallel bitwise operations.
This module provides the public problem-level API on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..hwmodel.latency import CostModel
from ..ir.dfg import DataFlowGraph
from .cut import Constraints, Cut, evaluate_cut
from .engine import SearchLimits, SearchStats, run_single_cut

__all__ = [
    "SearchLimits", "SearchStats", "SearchResult",
    "find_best_cut", "enumerate_feasible_cuts", "search_statistics",
]


@dataclass
class SearchResult:
    """Outcome of :func:`find_best_cut`."""

    cut: Optional[Cut]
    stats: SearchStats
    complete: bool = True

    @property
    def merit(self) -> float:
        """Merit (estimated saved cycles) of the best cut, 0 if none."""
        return self.cut.merit if self.cut is not None else 0.0


def find_best_cut(
    dfg: DataFlowGraph,
    constraints: Constraints,
    model: Optional[CostModel] = None,
    limits: Optional[SearchLimits] = None,
    cache=None,
) -> SearchResult:
    """Find the maximal-merit convex cut of *dfg* under *constraints*.

    This is Problem 1 of the paper, solved exactly (unless *limits* stops
    the search early, which is reported via ``SearchResult.complete``).
    Only cuts with strictly positive merit are returned; ``cut`` is ``None``
    when no profitable feasible cut exists.

    *cache* is an optional memo (duck-typed ``get_single``/``put_single``,
    e.g. :class:`repro.explore.cache.SearchCache`).  A hit returns the
    identical result without re-running the search; the cache never
    changes what is returned.
    """
    model = model or CostModel()
    if cache is not None:
        hit = cache.get_single(dfg, constraints, model, limits)
        if hit is not None:
            return hit
    best_nodes, _, stats, complete = run_single_cut(
        dfg, constraints, model, limits)
    cut = None
    if best_nodes is not None:
        cut = evaluate_cut(dfg, best_nodes, model)
    result = SearchResult(cut=cut, stats=stats, complete=complete)
    if cache is not None:
        cache.put_single(dfg, constraints, model, limits, result)
    return result


def enumerate_feasible_cuts(
    dfg: DataFlowGraph,
    constraints: Constraints,
    model: Optional[CostModel] = None,
) -> Iterator[Tuple[Tuple[int, ...], float]]:
    """Yield every feasible nonempty cut and its merit.

    Exponential — intended for tests and for small motivating examples.
    The cuts are produced in the order the Fig. 6 search visits them.
    """
    model = model or CostModel()
    collected: List[Tuple[Tuple[int, ...], float]] = []

    def on_feasible(nodes: Tuple[int, ...], merit: float) -> None:
        collected.append((nodes, merit))

    run_single_cut(dfg, constraints, model, None, on_feasible=on_feasible)
    return iter(collected)


def search_statistics(
    dfg: DataFlowGraph,
    constraints: Constraints,
    model: Optional[CostModel] = None,
    limits: Optional[SearchLimits] = None,
) -> SearchStats:
    """Run the search purely for its statistics (Fig. 8 harness)."""
    return find_best_cut(dfg, constraints, model, limits).stats
