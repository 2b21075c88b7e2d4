"""Tests for DFG construction, IN/OUT/convexity queries and collapsing."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.hwmodel import CostModel
from repro.ir import (
    Const,
    Function,
    Opcode,
    Reg,
    binop,
    build_dfg,
    copy_reg,
    function_dfgs,
    ret,
    store,
)
from repro.ir.dfg import DataFlowGraph
from repro.ir.synth import make_dfg, random_dag_dfg


def straightline_block():
    """One block:  t0 = a*b; t1 = t0+c; t2 = t1>>2; store m[0]=t2;
    u = a+c (also live out)."""
    func = Function("f", params=["a", "b", "c"])
    bb = func.add_block("entry")
    bb.append(binop(Opcode.MUL, "t0", Reg("a"), Reg("b")))
    bb.append(binop(Opcode.ADD, "t1", Reg("t0"), Reg("c")))
    bb.append(binop(Opcode.ASHR, "t2", Reg("t1"), Const(2)))
    bb.append(store("m", Const(0), Reg("t2")))
    bb.append(binop(Opcode.ADD, "u", Reg("a"), Reg("c")))
    bb.append(ret(Reg("u")))
    return func, bb


class TestBuildDFG:
    def test_node_count_excludes_terminator(self):
        func, bb = straightline_block()
        dfg = build_dfg(bb, live_out=set())
        assert dfg.n == 5

    def test_reverse_topological_order(self):
        func, bb = straightline_block()
        dfg = build_dfg(bb, live_out=set())
        for i in range(dfg.n):
            for s in dfg.succs[i]:
                assert s < i
            for p in dfg.preds[i]:
                assert p > i

    def test_input_variables(self):
        func, bb = straightline_block()
        dfg = build_dfg(bb, live_out=set())
        assert set(dfg.input_vars) == {"a", "b", "c"}

    def test_forced_out_from_terminator_use(self):
        func, bb = straightline_block()
        dfg = build_dfg(bb, live_out=set())
        # u is read by the ret.
        u_nodes = [n for n in dfg.nodes
                   if n.insns[0].dest == "u"]
        assert len(u_nodes) == 1 and u_nodes[0].forced_out

    def test_forced_out_from_liveness(self):
        func, bb = straightline_block()
        dfg = build_dfg(bb, live_out={"t1"})
        t1 = [n for n in dfg.nodes if n.insns[0].dest == "t1"][0]
        assert t1.forced_out

    def test_redefinition_only_last_is_live(self):
        func = Function("g", params=["a"])
        bb = func.add_block("entry")
        bb.append(binop(Opcode.ADD, "x", Reg("a"), Const(1)))
        bb.append(binop(Opcode.ADD, "x", Reg("x"), Const(2)))
        bb.append(ret(Reg("x")))
        dfg = build_dfg(bb, live_out=set())
        first = [n for n in dfg.nodes
                 if n.insns[0].operands[0] == Reg("a")][0]
        second = [n for n in dfg.nodes
                  if n.insns[0].operands[0] == Reg("x")][0]
        assert not first.forced_out
        assert second.forced_out
        # def-use chain: second reads first.
        assert first.index in dfg.preds[second.index]

    def test_store_is_forbidden_node(self):
        func, bb = straightline_block()
        dfg = build_dfg(bb, live_out=set())
        stores = [n for n in dfg.nodes if n.opcode is Opcode.STORE]
        assert len(stores) == 1 and stores[0].forbidden

    def test_operand_sources_cover_operands(self):
        func, bb = straightline_block()
        dfg = build_dfg(bb, live_out=set())
        for i, node in enumerate(dfg.nodes):
            assert len(dfg.operand_sources[i]) == \
                len(node.insns[0].operands)


class TestCutQueries:
    @pytest.fixture()
    def dfg(self):
        func, bb = straightline_block()
        return build_dfg(bb, live_out=set())

    def _by_dest(self, dfg, dest):
        return [n.index for n in dfg.nodes if n.insns[0].dest == dest][0]

    def test_cut_inputs(self, dfg):
        mul = self._by_dest(dfg, "t0")
        add = self._by_dest(dfg, "t1")
        inputs = dfg.cut_inputs({mul, add})
        assert inputs == {("var", "a"), ("var", "b"), ("var", "c")}

    def test_cut_outputs(self, dfg):
        mul = self._by_dest(dfg, "t0")
        add = self._by_dest(dfg, "t1")
        shr = self._by_dest(dfg, "t2")
        assert dfg.cut_outputs({mul}) == {mul}
        assert dfg.cut_outputs({mul, add, shr}) == {shr}

    def test_ancestors_descendants(self, dfg):
        mul = self._by_dest(dfg, "t0")
        shr = self._by_dest(dfg, "t2")
        assert shr in dfg.descendants(mul)
        assert mul in dfg.ancestors(shr)


class TestCollapse:
    def test_collapse_removes_nodes(self):
        dfg = make_dfg([Opcode.MUL, Opcode.ADD, Opcode.ADD],
                       [(0, 1), (1, 2)], live_out=[2])
        collapsed = dfg.collapse({1, 2}, "ise0")
        assert collapsed.n == dfg.n - 1
        supers = [n for n in collapsed.nodes if n.is_super]
        assert len(supers) == 1
        assert supers[0].forbidden

    def test_collapse_preserves_dag_invariants(self):
        rng = random.Random(0)
        for trial in range(30):
            dfg = random_dag_dfg(rng.randint(3, 12), rng,
                                 edge_prob=rng.uniform(0.1, 0.6))
            # Pick a random convex cut: take a node plus some ancestors.
            nodes = set(rng.sample(range(dfg.n),
                                   rng.randint(1, min(4, dfg.n))))
            if not dfg.is_convex(nodes):
                continue
            collapsed = dfg.collapse(nodes, "x")   # invariant-checked
            assert collapsed.n == dfg.n - len(nodes) + 1

    def test_collapse_rejects_nonconvex(self):
        dfg = make_dfg([Opcode.ADD, Opcode.ADD, Opcode.ADD],
                       [(0, 1), (1, 2)], live_out=[2])
        # users 0 and 2 renumbered: find endpoints of the chain.
        ends = {0, dfg.n - 1}
        with pytest.raises(ValueError):
            dfg.collapse(ends, "bad")

    def test_collapse_rejects_empty(self):
        dfg = make_dfg([Opcode.ADD], [], live_out=[0])
        with pytest.raises(ValueError):
            dfg.collapse(set(), "bad")

    def test_collapsed_supernode_inherits_edges(self):
        # a -> b -> c, collapse {b}: super must link a and c.
        dfg = make_dfg([Opcode.MUL, Opcode.ADD, Opcode.XOR],
                       [(0, 1), (1, 2)], live_out=[2])
        mid = [n.index for n in dfg.nodes if n.opcode is Opcode.ADD][0]
        collapsed = dfg.collapse({mid}, "s")
        s = [n.index for n in collapsed.nodes if n.is_super][0]
        assert collapsed.succs[s] != []
        assert collapsed.preds[s] != []

    def _two_value_super(self):
        """SUB -> ADD and NOT -> AND, collapse {SUB, NOT}: the supernode
        exports TWO distinct values (one per consumer)."""
        dfg = make_dfg(
            [Opcode.SUB, Opcode.NOT, Opcode.ADD, Opcode.AND],
            [(0, 2), (1, 3)], live_out=[2, 3])
        members = {n.index for n in dfg.nodes
                   if n.opcode in (Opcode.SUB, Opcode.NOT)}
        collapsed = dfg.collapse(members, "s")
        consumers = {n.index for n in collapsed.nodes
                     if n.opcode in (Opcode.ADD, Opcode.AND)}
        return collapsed, consumers

    def test_multi_value_supernode_counts_one_input_per_value(self):
        # Regression: collapse used to alias every exported value of a
        # supernode into a single producer token, so a later cut reading
        # two distinct supernode outputs undercounted IN(S) by one and
        # could be selected despite violating the port constraint
        # (iterative selection then beat "optimal").
        collapsed, consumers = self._two_value_super()
        inputs = collapsed.cut_inputs(consumers)
        # Two supernode values + ADD's and AND's own input variables.
        s = [n.index for n in collapsed.nodes if n.is_super][0]
        super_values = {vid for vid in inputs
                        if isinstance(vid, int)
                        and collapsed.value_producer(vid) == s}
        assert len(super_values) == 2

    def test_multi_value_supernode_engine_agrees_with_cut_inputs(self):
        from repro.core import Constraints, find_best_cut
        collapsed, consumers = self._two_value_super()
        naive = len(collapsed.cut_inputs(consumers))
        # The engine must reject the pair under nin = naive - 1 and the
        # single-node cuts it *does* return must respect cut_inputs.
        result = find_best_cut(collapsed,
                               Constraints(nin=naive - 1, nout=2),
                               CostModel())
        if result.cut is not None:
            assert set(result.cut.nodes) != consumers
            assert result.cut.num_inputs <= naive - 1

    def test_single_value_supernode_token_is_untagged(self):
        # The common case (one exported value) keeps the plain
        # ('node', super) token: digests and AFU ports are unchanged.
        dfg = make_dfg([Opcode.MUL, Opcode.ADD, Opcode.XOR],
                       [(0, 1), (1, 2)], live_out=[2])
        mid = [n.index for n in dfg.nodes if n.opcode is Opcode.ADD][0]
        collapsed = dfg.collapse({mid}, "s")
        s = [n.index for n in collapsed.nodes if n.is_super][0]
        tokens = [src for row in collapsed.operand_sources for src in row
                  if src and src[0] == "node" and src[1] == s]
        assert tokens and all(len(tok) == 2 for tok in tokens)

    def test_nested_collapse_keeps_values_distinct(self):
        # Collapse twice; the second supernode absorbs a consumer of the
        # first and the remaining consumers still count values per
        # distinct output.
        collapsed, consumers = self._two_value_super()
        add = [n.index for n in collapsed.nodes
               if n.opcode is Opcode.ADD][0]
        again = collapsed.collapse({add}, "s2")
        and_node = [n.index for n in again.nodes
                    if n.opcode is Opcode.AND][0]
        supers = [n.index for n in again.nodes if n.is_super]
        # AND still reads its own distinct value of the first supernode.
        (and_inputs,) = [again.value_reads[and_node]]
        assert len(and_inputs) == 1
        assert again.value_producer(and_inputs[0]) in supers


class TestPerModelMemos:
    def test_pickle_drops_per_model_memos(self):
        # The memos are keyed by id(model): another process could never
        # hit them, so a pickled graph must not grow with the models it
        # has met.
        _func, bb = straightline_block()
        dfg = build_dfg(bb, live_out={"u"})
        fresh = pickle.dumps(dfg)
        model = CostModel()
        sw, hw = dfg.cost_vectors(model)
        cycles = dfg.software_cycles(model)
        assert len(pickle.dumps(dfg)) == len(fresh)
        again = pickle.loads(pickle.dumps(dfg))
        assert again.cost_vectors(model) == (sw, hw)
        assert again.software_cycles(model) == cycles
        # The original keeps its memos.
        assert dfg.cost_vectors(model)[0] is sw

    def test_unpickles_graphs_stored_without_the_cycle_memo(self):
        # A stored application from before software_cycles existed: its
        # graphs' state has no cycle memo and may hold stale cost memos.
        _func, bb = straightline_block()
        dfg = build_dfg(bb, live_out={"u"})
        model = CostModel()
        dfg.cost_vectors(model)
        assert "_cycles_cache" not in dfg.__getstate__()
        old_state = dict(vars(dfg))
        del old_state["_cycles_cache"]
        assert old_state["_cost_cache"]
        # What unpickling such a blob does.
        again = DataFlowGraph.__new__(DataFlowGraph)
        again.__setstate__(old_state)
        assert again._cost_cache == {}
        assert again.software_cycles(model) == sum(
            model.sw(node) for node in dfg.nodes)


class TestFunctionDFGs:
    def test_weights_applied(self, adpcm_decode_app):
        weights = {d.name: d.weight for d in adpcm_decode_app.dfgs}
        hot = adpcm_decode_app.hot_dfg
        assert weights[hot.name] == hot.weight
        assert hot.weight > 1

    def test_min_nodes_filter(self):
        func = Function("f", params=["a"])
        bb = func.add_block("entry")
        bb.append(copy_reg("x", Reg("a")))
        bb.append(ret(Reg("x")))
        graphs = function_dfgs(func, min_nodes=2)
        assert graphs == []
