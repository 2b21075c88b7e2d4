"""Convexity is schedulability: the paper's Section 5 / Fig. 4 argument.

A non-convex cut is illegal because, once collapsed into one instruction
that reads all its inputs at issue and writes all its outputs at
completion, no schedule of the surrounding block respects the
dependences.  The verifier's fused-schedule test (``V306``) is the
executable form of that argument; these tests hold it to the DFG's
convexity predicate on the paper's example and on random blocks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.verifier import check_fused_schedule
from repro.ir.synth import paper_figure4_dfg, random_dag_dfg


def cut_is_schedulable(dfg, cut) -> bool:
    """Collapse *cut* in the block a synthetic DFG stands for and ask
    V306 whether the block still schedules.  DFG indices are reverse
    program order, so node ``i`` sits at body position ``n-1-i``."""
    body = [dfg.nodes[i].insns[0] for i in reversed(range(dfg.n))]
    positions = {dfg.n - 1 - i for i in cut}
    return check_fused_schedule(body, [positions]) is None


class TestFigure4Argument:
    """The paper's Fig. 4: collapsing the non-convex cut {0,1,3} leaves
    no feasible schedule; the convex repairs all schedule fine."""

    def test_nonconvex_cut_unschedulable(self):
        dfg = paper_figure4_dfg()
        assert not dfg.is_convex({0, 1, 3})
        assert not cut_is_schedulable(dfg, {0, 1, 3})

    @pytest.mark.parametrize("cut", [
        {0, 1, 2, 3},   # include node 2
        {1, 3},          # remove node 0
        {0, 1},          # remove node 3
    ])
    def test_repaired_cuts_schedulable(self, cut):
        dfg = paper_figure4_dfg()
        assert cut_is_schedulable(dfg, cut)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 10))
def test_schedulability_equals_convexity(seed, n):
    """For single cuts, the fused-schedule verdict must coincide with
    the DFG convexity predicate on every random subset."""
    rng = random.Random(seed)
    dfg = random_dag_dfg(n, rng, edge_prob=0.4)
    for _ in range(8):
        cut = {i for i in range(n) if rng.random() < 0.5}
        if not cut:
            continue
        assert cut_is_schedulable(dfg, cut) == dfg.is_convex(cut)
