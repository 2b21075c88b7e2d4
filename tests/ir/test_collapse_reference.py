"""Differential test: ``DataFlowGraph.collapse`` against the original
implementation kept in ``_reference_collapse.py``.

Both must build the same graph — node for node, edge for edge, operand
source for operand source — on every link of every workload's collapse
chains and on random convex cuts of random DAGs and generated-program
blocks, collapsed repeatedly so that supernodes with tagged outputs are
collapsed again.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Constraints
from repro.core.select_iterative import CollapseChain
from repro.hwmodel import CostModel
from repro.ir.dfg import function_dfgs
from repro.ir.synth import random_dag_dfg
from repro.pipeline import prepare_application
from repro.workloads import WORKLOADS
from strategies import compile_program, programs

from _reference_collapse import reference_collapse

MODEL = CostModel()

PORTS = ((2, 1), (3, 2), (4, 2), (5, 1))


def graph_record(dfg):
    """Everything a collapsed graph is made of, comparable with ``==``."""
    return (
        dfg.name,
        [(node.index, node.opcode, node.insns, node.label, node.forbidden,
          node.forced_out) for node in dfg.nodes],
        dfg.succs,
        dfg.preds,
        dfg.input_vars,
        dfg.node_inputs,
        dfg.weight,
        dfg.operand_sources,
    )


def assert_same_collapse(dfg, nodes, label):
    """Collapse *nodes* both ways; return the production graph."""
    collapsed = dfg.collapse(nodes, label)
    assert graph_record(collapsed) == graph_record(
        reference_collapse(dfg, nodes, label))
    return collapsed


def random_convex_cut(dfg, rng):
    """A random convex node set of up to four nodes, grown from one
    node along edges (a single node is always convex)."""
    start = rng.randrange(dfg.n)
    cut = {start}
    for _ in range(rng.randrange(4)):
        frontier = sorted({x for i in cut
                           for x in dfg.succs[i] + dfg.preds[i]} - cut)
        if not frontier:
            break
        grown = cut | {rng.choice(frontier)}
        if dfg.is_convex(grown):
            cut = grown
    return cut


def collapse_repeatedly(dfg, rng, rounds=4):
    """Collapse random convex cuts of *dfg* round after round, checking
    each against the reference."""
    for round_ in range(rounds):
        if dfg.n < 2:
            break
        dfg = assert_same_collapse(dfg, random_convex_cut(dfg, rng),
                                   f"ise{round_ + 1}")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_chains_match_reference(workload):
    app = prepare_application(workload, n=16)
    links = 0
    for nin, nout in PORTS:
        cons = Constraints(nin=nin, nout=nout)
        for dfg in app.dfgs:
            chain = CollapseChain(dfg, cons, MODEL)
            chain.link(16)
            for k, graph in enumerate(chain.graphs[1:]):
                previous = chain.graphs[k]
                reference = reference_collapse(
                    previous, chain.results[k].cut.nodes, f"ise{k + 1}")
                assert graph_record(graph) == graph_record(reference)
                links += 1
    assert links > 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 14),
       st.floats(0.05, 0.7), st.sampled_from([0.0, 0.2]))
def test_random_dags_match_reference(seed, n, edge_prob, forbidden_prob):
    rng = random.Random(seed)
    dfg = random_dag_dfg(n, rng, edge_prob=edge_prob,
                         forbidden_prob=forbidden_prob)
    collapse_repeatedly(dfg, rng)


@settings(max_examples=25, deadline=None)
@given(programs(), st.integers(0, 2 ** 31))
def test_generated_blocks_match_reference(program, seed):
    rng = random.Random(seed)
    for func in compile_program(program).functions.values():
        for dfg in function_dfgs(func, min_nodes=2):
            collapse_repeatedly(dfg, rng)
