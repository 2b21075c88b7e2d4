"""Assertions tied directly to the paper's figures 4, 5 and 7.

The reconstruction of the Fig. 4 example graph (see
:func:`repro.ir.synth.paper_figure4_dfg`) must reproduce the search trace
of Fig. 7 *exactly*: with ``Nout = 1`` the algorithm examines 11 of the 16
possible cuts, finds 5 feasible, 6 infeasible, and never looks at the
remaining 4.  Trace counts are the paper's unpruned tree walk, so those
searches pass a budget that cannot be reached (a budgeted search never
prunes beyond the paper's checks).
"""

from __future__ import annotations

import pytest

from repro.core import (
    Constraints,
    SearchLimits,
    enumerate_feasible_cuts,
    find_best_cut,
)
from repro.core.bruteforce import all_feasible_cuts
from repro.ir.synth import paper_figure4_dfg


def paper_walk(dfg):
    """A budget the search cannot reach: the paper's unpruned walk."""
    return SearchLimits(max_considered=2 ** dfg.n)


@pytest.fixture(scope="module")
def fig4():
    return paper_figure4_dfg()


class TestFigure4Graph:
    def test_four_nodes(self, fig4):
        assert fig4.n == 4

    def test_reverse_topological_numbering(self, fig4):
        # Paper: edge (u, v) means u appears after v.
        for i in range(fig4.n):
            for s in fig4.succs[i]:
                assert s < i

    def test_edges_match_paper(self, fig4):
        # 3 -> 2 -> 0 and 1 -> 0.
        assert fig4.succs[3] == [2]
        assert fig4.succs[2] == [0]
        assert fig4.succs[1] == [0]
        assert fig4.succs[0] == []

    def test_nonconvex_cut_is_rejected(self, fig4):
        # The shaded subgraph {0, 1, 3} of Fig. 4 is not convex: the path
        # 3 -> 2 -> 0 leaves and re-enters the cut.
        assert not fig4.is_convex({0, 1, 3})
        assert fig4.is_convex({0, 1, 2, 3})
        assert fig4.is_convex({0, 1})
        assert fig4.is_convex({1, 3})

    def test_convexity_repairs_from_paper_text(self, fig4):
        # "the only ways to regain convexity are to either include node 2
        # or remove from the cut nodes 0 or 3"
        assert fig4.is_convex({0, 1, 2, 3})   # include node 2
        assert fig4.is_convex({1, 3})          # remove node 0
        assert fig4.is_convex({0, 1})          # remove node 3


class TestFigure7Trace:
    """With Nout=1: 11 cuts considered, 5 pass, 6 fail, 4 eliminated."""

    @pytest.fixture(scope="class")
    def result(self, fig4):
        return find_best_cut(fig4, Constraints(nin=16, nout=1),
                             limits=paper_walk(fig4))

    def test_cuts_considered(self, result):
        assert result.stats.cuts_considered == 11

    def test_cuts_feasible(self, result):
        assert result.stats.cuts_feasible == 5

    def test_cuts_infeasible(self, result):
        assert result.stats.cuts_infeasible == 6

    def test_cuts_eliminated(self, result):
        assert result.stats.cuts_eliminated == 4

    def test_search_complete(self, result):
        assert result.complete

    def test_feasible_set_matches_bruteforce(self, fig4):
        cons = Constraints(nin=16, nout=1)
        fast = {frozenset(nodes)
                for nodes, _ in enumerate_feasible_cuts(fig4, cons)}
        slow = {frozenset(c.nodes)
                for c in all_feasible_cuts(fig4, cons)}
        assert fast == slow
        assert len(fast) == 5


class TestFigure5SearchTree:
    """Without any constraint pruning the tree enumerates every nonempty
    cut exactly once (Fig. 5 has 16 tree nodes for 4 graph nodes)."""

    def test_all_cuts_visited_unconstrained(self, fig4):
        result = find_best_cut(fig4, Constraints(nin=16, nout=16),
                               limits=paper_walk(fig4))
        assert result.stats.cuts_considered == 15   # 2^4 - 1 nonempty
        assert result.stats.cuts_eliminated == 0

    def test_distinct_cuts(self, fig4):
        cons = Constraints(nin=16, nout=16)
        cuts = [frozenset(nodes)
                for nodes, _ in enumerate_feasible_cuts(fig4, cons)]
        assert len(cuts) == len(set(cuts))


class TestTighterConstraintsPruneMore:
    """Section 6.1: 'the tighter the constraints are, the faster the
    algorithm is'."""

    def test_nout_monotonicity(self, fig4):
        considered = []
        for nout in (1, 2, 4):
            res = find_best_cut(fig4, Constraints(nin=16, nout=nout),
                                limits=paper_walk(fig4))
            considered.append(res.stats.cuts_considered)
        assert considered[0] <= considered[1] <= considered[2]
