"""Tests for the shared find-best/collapse chain of one block."""

from __future__ import annotations

import importlib
import random
from dataclasses import asdict

from repro.core import (
    Constraints,
    find_best_cut,
    select_area_constrained,
    select_iterative,
)
from repro.core.select_iterative import CollapseChain
from repro.hwmodel import CostModel
from repro.ir.dfg import DataFlowGraph
from repro.ir.synth import random_dag_dfg

# The module, not the re-exported function of the same name.
iterative_mod = importlib.import_module("repro.core.select_iterative")

MODEL = CostModel()
PORTS = Constraints(nin=4, nout=2)
# At two inputs one gsm block yields four cuts: more than the pool
# depth of 3 used below.
TWO = Constraints(nin=2, nout=1, ninstr=2)
SIX = Constraints(nin=2, nout=1, ninstr=6)


def summary(result):
    return ([sorted(c.nodes) for c in result.cuts], result.total_merit,
            asdict(result.stats), result.complete)


class TestLinks:
    def test_links_follow_the_hand_walked_chain(self):
        for seed in range(6):
            dfg = random_dag_dfg(10, random.Random(seed))
            chain = CollapseChain(dfg, PORTS, MODEL)
            current, k = dfg, 0
            while True:
                expected = find_best_cut(current, PORTS, MODEL)
                got = chain.link(k)
                assert got.cut is None if expected.cut is None else (
                    got.cut.nodes == expected.cut.nodes)
                assert asdict(got.stats) == asdict(expected.stats)
                if expected.cut is None:
                    break
                current = current.collapse(expected.cut.nodes,
                                           label=f"ise{k + 1}")
                k += 1
            # Past the end there is nothing, and nothing more is built.
            assert chain.link(k + 1) is None
            assert len(chain.graphs) == len(chain.results) == k + 1

    def test_links_are_lazy(self, gsm_app):
        chain = CollapseChain(gsm_app.hot_dfg, PORTS, MODEL)
        assert chain.results == [] and len(chain.graphs) == 1
        chain.link(0)
        assert len(chain.results) == 1 and len(chain.graphs) == 1


class TestSharing:
    def test_shared_chains_search_each_link_once(self, gsm_app,
                                                 monkeypatch):
        dfgs = gsm_app.dfgs
        fresh = [select_iterative(dfgs, TWO, MODEL),
                 select_iterative(dfgs, SIX, MODEL),
                 select_area_constrained(dfgs, SIX, 1.0, MODEL,
                                         max_per_block=3)]

        searched = []
        collapses = []
        search = iterative_mod.find_best_cut
        collapse = DataFlowGraph.collapse

        def counting_search(dfg, *args, **kwargs):
            searched.append(dfg)
            return search(dfg, *args, **kwargs)

        def counting_collapse(self, *args, **kwargs):
            collapses.append(self)
            return collapse(self, *args, **kwargs)

        monkeypatch.setattr(iterative_mod, "find_best_cut",
                            counting_search)
        monkeypatch.setattr(DataFlowGraph, "collapse", counting_collapse)
        chains = [CollapseChain(dfg, Constraints(nin=2, nout=1), MODEL)
                  for dfg in dfgs]
        shared = [
            select_iterative(dfgs, TWO, MODEL, chains=chains),
            select_iterative(dfgs, SIX, MODEL, chains=chains),
            select_area_constrained(dfgs, SIX, 1.0, MODEL, max_per_block=3,
                                    chains=chains),
        ]
        assert [summary(r) for r in shared] == [summary(r) for r in fresh]
        # Every graph of every chain was searched exactly once, and
        # every graph but the roots came from exactly one collapse.
        graphs = [g for chain in chains for g in chain.graphs]
        assert sorted(map(id, searched)) == sorted(map(id, graphs))
        assert len(collapses) == len(graphs) - len(chains)
        assert any(len(chain.results) > 3 for chain in chains)
