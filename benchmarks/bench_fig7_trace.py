"""Figure 4/5/7 — the paper's worked example.

Regenerates the exact search trace of Fig. 7 (the 4-node graph of Fig. 4
searched with ``Nout = 1``): 11 of 16 cuts considered, 5 feasible, 6
infeasible, 4 pruned — and benchmarks the raw identification speed on the
example graph.  Both searches walk the paper's unpruned tree (a budget
that cannot be reached turns the default pruning off).
"""

from __future__ import annotations

from repro.core import Constraints, SearchLimits, find_best_cut
from repro.hwmodel import CostModel
from repro.ir.synth import paper_figure4_dfg

from _bench_utils import report

MODEL = CostModel()


def bench_figure7_trace(benchmark):
    dfg = paper_figure4_dfg()
    cons = Constraints(nin=16, nout=1)
    paper_walk = SearchLimits(max_considered=2 ** dfg.n)

    result = benchmark(find_best_cut, dfg, cons, MODEL, paper_walk)

    stats = result.stats
    assert stats.cuts_considered == 11
    assert stats.cuts_feasible == 5
    assert stats.cuts_infeasible == 6
    assert stats.cuts_eliminated == 4

    report("fig7", "Fig. 7 trace (4-node example of Fig. 4, Nout=1):")
    report("fig7", f"  cuts considered : {stats.cuts_considered}  "
                   f"(paper: 11)")
    report("fig7", f"  passed checks   : {stats.cuts_feasible}  (paper: 5)")
    report("fig7", f"  failed checks   : {stats.cuts_infeasible}  "
                   f"(paper: 6)")
    report("fig7", f"  eliminated      : {stats.cuts_eliminated}  "
                   f"(paper: 4)")


def bench_figure5_full_tree(benchmark):
    """Unconstrained search visits every nonempty cut (Fig. 5's tree)."""
    dfg = paper_figure4_dfg()
    cons = Constraints(nin=16, nout=16)
    paper_walk = SearchLimits(max_considered=2 ** dfg.n)
    result = benchmark(find_best_cut, dfg, cons, MODEL, paper_walk)
    assert result.stats.cuts_considered == 15
    report("fig7", f"  unconstrained   : {result.stats.cuts_considered} "
                   f"cuts == 2^4 - 1 (Fig. 5 tree)")
