"""Equivalence of the bitset branch-and-bound engine with the naive
reference semantics.

The engine (``repro.core.engine``) encodes the search state in Python-int
bitsets; these tests pin it, property-style, against the from-scratch
oracles (``dfg.is_convex`` / ``cut_inputs`` / ``cut_outputs`` /
``evaluate_cut``), against brute-force enumeration, and — for the
default pruned walk, which must never change the returned optimum —
against the engine's own exhaustive paper walk on randomized DFGs,
blocks of generated programs and every registered workload, at every
round of the collapse chains iterative selection walks through.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import check_cut_record, errors_of
from repro.core import (
    Constraints,
    SearchLimits,
    enumerate_feasible_cuts,
    evaluate_cut,
    find_best_cut,
    find_best_cuts,
    resolve_workers,
    select_iterative,
)
from repro.cluster import scheduled_map
from repro.explore import SearchCache
from repro.core.bruteforce import best_cut_bruteforce
from repro.core.select_iterative import CollapseChain
from repro.hwmodel import CostModel
from repro.ir.dfg import function_dfgs
from repro.ir.synth import make_dfg, random_dag_dfg
from repro.ir.opcodes import Opcode
from repro.pipeline import prepare_application
from repro.workloads import WORKLOADS
from strategies import compile_program, programs

MODEL = CostModel()

#: Session fixtures from tests/conftest.py where one exists; other
#: registered workloads are compiled on demand at a small problem size.
APP_FIXTURES = {
    "adpcm-decode": "adpcm_decode_app",
    "adpcm-encode": "adpcm_encode_app",
    "gsm": "gsm_app",
    "fir": "fir_app",
    "crc32": "crc_app",
    "mixer": "mixer_app",
}

_APP_CACHE = {}


def _workload_app(name, request):
    fixture = APP_FIXTURES.get(name)
    if fixture is not None:
        return request.getfixturevalue(fixture)
    if name not in _APP_CACHE:
        _APP_CACHE[name] = prepare_application(name, n=16)
    return _APP_CACHE[name]


@st.composite
def dag_and_constraints(draw):
    seed = draw(st.integers(0, 2 ** 31))
    n = draw(st.integers(1, 12))
    edge_prob = draw(st.floats(0.05, 0.7))
    forbidden_prob = draw(st.sampled_from([0.0, 0.1, 0.3]))
    rng = random.Random(seed)
    dfg = random_dag_dfg(n, rng, edge_prob=edge_prob,
                         forbidden_prob=forbidden_prob)
    nin = draw(st.integers(1, 6))
    nout = draw(st.integers(1, 4))
    return dfg, Constraints(nin=nin, nout=nout)


def _nodes(result):
    return result.cut.nodes if result.cut is not None else None


def assert_same_optimum(dfg, cons, budget=None):
    """Compare the paper walk with the default pruned search on one graph.

    The paper walk is a budgeted search (budgets never prune beyond the
    paper's checks); ``budget=None`` gives one it cannot reach.  Returns
    the paper-walk result, or ``None`` when it ran out of budget.
    """
    walk = find_best_cut(dfg, cons, MODEL, SearchLimits(
        max_considered=2 ** dfg.n if budget is None else budget))
    if not walk.complete:
        return None
    pruned = find_best_cut(dfg, cons, MODEL)
    assert pruned.complete
    assert _nodes(pruned) == _nodes(walk)
    assert pruned.merit == walk.merit
    assert pruned.stats.cuts_considered <= walk.stats.cuts_considered
    assert walk.stats.ub_pruned == walk.stats.nin_pruned == 0
    if walk.cut is not None:
        members = set(walk.cut.nodes)
        assert dfg.is_convex(members)
        assert len(dfg.cut_inputs(members)) == walk.cut.num_inputs
        assert len(dfg.cut_outputs(members)) == walk.cut.num_outputs
    for result in (walk, pruned):
        if result.cut is not None:
            assert not errors_of(
                check_cut_record(result.cut, cons.nin, cons.nout))
    if dfg.n <= 10:
        brute = best_cut_bruteforce(dfg, cons, MODEL)
        assert pruned.merit == (brute.merit if brute else 0.0)
    return walk


def assert_same_chain(dfg, cons, budget=None, max_rounds: int = 8) -> int:
    """Walk a collapse chain, comparing both searches at every round;
    returns the number of rounds compared."""
    rounds = 0
    current = dfg
    while rounds < max_rounds:
        walk = assert_same_optimum(current, cons, budget)
        if walk is None:
            break
        rounds += 1
        if walk.cut is None:
            break
        current = current.collapse(walk.cut.nodes, label=f"ise{rounds}")
    return rounds


class TestMasks:
    """The cached bitset encoding must mirror the adjacency lists."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 14))
    def test_masks_match_adjacency(self, seed, n):
        rng = random.Random(seed)
        dfg = random_dag_dfg(n, rng, edge_prob=0.4, forbidden_prob=0.2)
        masks = dfg.masks
        assert masks is dfg.masks          # cached, built once
        for i in range(dfg.n):
            assert masks.succ[i] == sum(1 << s for s in dfg.succs[i])
            assert masks.pred[i] == sum(1 << p for p in dfg.preds[i])
            assert masks.producer[i] == sum(
                1 << p for p in dfg.producers_of(i))
            assert bool(masks.forced_out >> i & 1) == dfg.nodes[i].forced_out
            assert bool(masks.forbidden >> i & 1) == dfg.nodes[i].forbidden
        assert masks.all_nodes == (1 << dfg.n) - 1

    def test_producers_cached(self):
        dfg = make_dfg([Opcode.MUL, Opcode.ADD], [(0, 1)], live_out=[1])
        assert dfg.producers is dfg.producers
        assert dfg.producers == [dfg.producers_of(i) for i in range(dfg.n)]

    def test_cost_vectors_cached_per_model(self):
        dfg = make_dfg([Opcode.MUL, Opcode.LOAD], [(0, 1)], live_out=[1])
        sw, hw = dfg.cost_vectors(MODEL)
        assert dfg.cost_vectors(MODEL)[0] is sw
        forbidden = [i for i in range(dfg.n) if dfg.nodes[i].forbidden]
        assert forbidden, "fixture must contain a forbidden node"
        for i in forbidden:
            assert sw[i] == 0.0
            assert hw[i] == float("inf")
        other = CostModel()
        assert dfg.cost_vectors(other)[0] is not sw


class TestAgainstNaiveOracles:
    """Every cut the engine reports feasible must satisfy the from-scratch
    definitions; the engine's incremental merit must match evaluate_cut."""

    @settings(max_examples=80, deadline=None)
    @given(dag_and_constraints())
    def test_feasible_cuts_satisfy_oracles(self, case):
        dfg, cons = case
        for nodes, merit in enumerate_feasible_cuts(dfg, cons, MODEL):
            members = set(nodes)
            assert dfg.is_convex(members)
            assert len(dfg.cut_inputs(members)) <= cons.nin
            assert len(dfg.cut_outputs(members)) <= cons.nout
            ref = evaluate_cut(dfg, members, MODEL)
            assert merit == pytest.approx(ref.merit)

    @settings(max_examples=60, deadline=None)
    @given(dag_and_constraints())
    def test_best_cut_matches_bruteforce(self, case):
        dfg, cons = case
        fast = find_best_cut(dfg, cons, MODEL)
        slow = best_cut_bruteforce(dfg, cons, MODEL)
        fast_merit = fast.cut.merit if fast.cut else 0.0
        slow_merit = slow.merit if slow else 0.0
        assert fast_merit == pytest.approx(slow_merit)
        if fast.cut is not None:
            members = set(fast.cut.nodes)
            assert dfg.is_convex(members)
            assert len(dfg.cut_inputs(members)) <= cons.nin
            assert len(dfg.cut_outputs(members)) <= cons.nout


class TestUpperBoundPruning:
    """The default pruning (merit bound, permanent inputs) may only
    discard subtrees that cannot beat the incumbent: identical best cut,
    never more work."""

    @settings(max_examples=150, deadline=None)
    @given(dag_and_constraints())
    def test_same_best_cut_fewer_cuts(self, case):
        dfg, cons = case
        assert assert_same_optimum(dfg, cons) is not None

    @settings(max_examples=60, deadline=None)
    @given(dag_and_constraints())
    def test_same_collapse_chain(self, case):
        dfg, cons = case
        assert assert_same_chain(dfg, cons) >= 1

    @settings(max_examples=25, deadline=None)
    @given(programs(("portlimit", "mixed")),
           st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)]))
    def test_generated_blocks_same_collapse_chains(self, program, ports):
        # Fuzz programs shaped against the Nin frontier; the paper walk
        # is budgeted so a dense block cannot stall the suite.
        cons = Constraints(nin=ports[0], nout=ports[1])
        for func in compile_program(program).functions.values():
            for dfg in function_dfgs(func, min_nodes=2):
                assert_same_chain(dfg, cons, budget=200_000)

    def test_permanent_inputs_prune_where_the_bound_cannot(self):
        # Eight independent MULs, each reading two external inputs: with
        # Nin=1 no cut is feasible, so the incumbent stays empty and the
        # merit bound (positive software mass left) never fires.  Every
        # inclusion makes two permanent inputs, so each subtree dies as
        # soon as it opens (the last one has no subtree left to prune).
        dfg = make_dfg([Opcode.MUL] * 8, [], live_out=list(range(8)))
        cons = Constraints(nin=1, nout=8)
        walk = assert_same_optimum(dfg, cons)
        pruned = find_best_cut(dfg, cons, MODEL)
        assert walk.cut is None and pruned.cut is None
        assert walk.stats.cuts_considered == 2 ** 8 - 1
        assert pruned.stats.ub_pruned == 0
        assert pruned.stats.nin_pruned == 7
        assert pruned.stats.cuts_considered == 8

    def test_excluded_producer_is_permanent(self):
        # Chain 0 -> 1 -> 2 of MULs (node 2 is the sink).  Once the sink
        # is in and its producer excluded, that value can never be
        # absorbed; with Nin=1 the remaining subtree is dead.
        dfg = make_dfg([Opcode.MUL] * 3, [(0, 1), (1, 2)], live_out=[2])
        cons = Constraints(nin=1, nout=1)
        assert assert_same_optimum(dfg, cons) is not None
        assert find_best_cut(dfg, cons, MODEL).stats.nin_pruned > 0

    def test_budgeted_search_walks_the_paper_tree(self):
        dfg = make_dfg([Opcode.MUL] * 8, [], live_out=list(range(8)))
        budgeted = find_best_cut(dfg, Constraints(nin=1, nout=8), MODEL,
                                 SearchLimits(max_considered=10_000))
        assert budgeted.stats.cuts_considered == 2 ** 8 - 1
        assert budgeted.stats.nin_pruned == budgeted.stats.ub_pruned == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_space_covered_complete_search(self, seed):
        rng = random.Random(seed)
        dfg = random_dag_dfg(rng.randint(1, 10), rng, edge_prob=0.3)
        res = find_best_cut(dfg, Constraints(nin=4, nout=2), MODEL)
        assert res.complete
        assert res.stats.space_covered == pytest.approx(1.0)

    def test_budget_is_a_loop_condition(self):
        # Long chains used to need recursion-limit games; the iterative
        # engine walks a 500-node graph without any.
        ops = [Opcode.ADD] * 500
        edges = [(i, i + 1) for i in range(499)]
        dfg = make_dfg(ops, edges, live_out=[499])
        res = find_best_cut(dfg, Constraints(nin=8, nout=1), MODEL,
                            limits=SearchLimits(max_considered=5_000))
        assert not res.complete
        assert res.stats.cuts_considered <= 5_001
        assert 0.0 < res.stats.space_covered < 1.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("nin,nout", [(4, 2), (2, 1)])
def test_workload_blocks_ub_equivalence(workload, nin, nout, request):
    """On every registered workload, the default (pruned) search returns
    the exact optimum of the paper walk on every (tractable) block, at
    every round of its collapse chain, and the optimum passes the naive
    oracles."""
    app = _workload_app(workload, request)
    cons = Constraints(nin=nin, nout=nout)
    checked = 0
    for dfg in app.dfgs:
        if dfg.n > 40:
            continue
        checked += assert_same_chain(dfg, cons, budget=300_000)
    assert checked > 0, f"no tractable blocks checked in {workload}"


class TestMultiCutEngine:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(2, 7), st.integers(1, 3))
    def test_multi_cut_members_pass_oracles(self, seed, n, m):
        rng = random.Random(seed)
        dfg = random_dag_dfg(n, rng, edge_prob=0.4, forbidden_prob=0.1)
        cons = Constraints(nin=3, nout=2)
        result = find_best_cuts(dfg, cons, m, MODEL)
        used = set()
        for cut in result.cuts:
            members = set(cut.nodes)
            assert not members & used
            used |= members
            assert dfg.is_convex(members)
            assert len(dfg.cut_inputs(members)) <= cons.nin
            assert len(dfg.cut_outputs(members)) <= cons.nout


class TestParallelSelection:
    def _dfgs(self):
        rng = random.Random(7)
        return [random_dag_dfg(8, rng, edge_prob=0.35, name=f"b{k}")
                for k in range(3)]

    def test_workers_do_not_change_selection(self):
        # First-round searches computed on worker processes and merged
        # into a cache give the same selection as a cold serial run.
        dfgs = self._dfgs()
        cons = Constraints(nin=3, nout=2, ninstr=4)
        serial = select_iterative(dfgs, cons, MODEL)
        cache = SearchCache()
        entries, _ = scheduled_map(
            _first_round_entries, [(dfg, cons) for dfg in dfgs],
            workers=2)
        for unit in entries:
            cache.merge(unit)
        forked = select_iterative(dfgs, cons, MODEL, cache=cache)
        assert cache.stats.hits >= len(dfgs)
        assert ([sorted(c.nodes) for c in serial.cuts]
                == [sorted(c.nodes) for c in forked.cuts])
        assert serial.total_merit == forked.total_merit
        assert serial.stats.cuts_considered == forked.stats.cuts_considered

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert resolve_workers(None) == 1


def _first_round_entries(job):
    """Worker unit: link 0 of one block's chain, as cache entries."""
    dfg, cons = job
    cache = SearchCache()
    CollapseChain(dfg, cons, MODEL, None, cache).link(0)
    return cache.entries()
