"""Tests for area-constrained selection (the paper's Section 9
future-work item)."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Constraints, evaluate_cut, select_iterative
from repro.core.select_area import (
    AreaCandidate,
    enumerate_candidates,
    greedy_select,
    knapsack_select,
    select_area_constrained,
)
from repro.hwmodel import CostModel, cut_area
from repro.ir.opcodes import Opcode
from repro.ir.synth import make_dfg

MODEL = CostModel()
CONS = Constraints(nin=4, nout=2, ninstr=16)


def pool_from(dfgs):
    return enumerate_candidates(dfgs, CONS, MODEL)


class TestCandidatePool:
    def test_candidates_are_profitable(self, gsm_app):
        pool = pool_from(gsm_app.dfgs)
        assert pool
        assert all(c.merit > 0 for c in pool)
        assert all(c.area >= 0 for c in pool)

    def test_candidates_do_not_overlap(self, gsm_app):
        pool = pool_from(gsm_app.dfgs)
        seen = set()
        for cand in pool:
            for i in cand.cut.nodes:
                for insn in cand.cut.dfg.nodes[i].insns:
                    assert id(insn) not in seen
                    seen.add(id(insn))

    def test_area_matches_model(self, gsm_app):
        for cand in pool_from(gsm_app.dfgs):
            assert cand.area == pytest.approx(
                cut_area(cand.cut.dfg, cand.cut.nodes, MODEL))


class TestKnapsack:
    def test_exact_beats_or_matches_greedy(self):
        rng = random.Random(0)
        dfg = make_dfg([Opcode.MUL], [], live_out=[0])
        from dataclasses import replace

        from repro.core import evaluate_cut
        base = evaluate_cut(dfg, {0}, MODEL)
        for trial in range(30):
            pool = [
                AreaCandidate(cut=replace(base,
                                          merit=float(rng.randint(1, 50))),
                              area=rng.choice([0.1, 0.25, 0.5, 1.0, 2.0]))
                for _ in range(rng.randint(1, 8))
            ]
            budget = rng.choice([0.5, 1.0, 2.0, 3.0])
            exact = knapsack_select(pool, budget)
            greedy = greedy_select(pool, budget)
            exact_merit = sum(c.merit for c in exact)
            greedy_merit = sum(c.merit for c in greedy)
            assert exact_merit >= greedy_merit - 1e-9
            assert sum(c.area for c in exact) <= budget + 0.01 + 1e-9

    def test_matches_bruteforce_enumeration(self):
        rng = random.Random(7)
        from dataclasses import replace

        from repro.core import evaluate_cut
        dfg = make_dfg([Opcode.MUL], [], live_out=[0])
        base = evaluate_cut(dfg, {0}, MODEL)
        for trial in range(20):
            pool = [
                AreaCandidate(cut=replace(base,
                                          merit=float(rng.randint(1, 30))),
                              area=rng.randint(1, 8) * 0.25)
                for _ in range(rng.randint(1, 7))
            ]
            budget = rng.randint(1, 10) * 0.25
            exact = sum(c.merit for c in knapsack_select(pool, budget))
            best = 0.0
            for r in range(len(pool) + 1):
                for combo in itertools.combinations(pool, r):
                    if sum(c.area for c in combo) <= budget + 1e-9:
                        best = max(best, sum(c.merit for c in combo))
            assert exact == pytest.approx(best)

    def test_cardinality_cap_inside_dp_beats_post_truncation(self):
        """Regression: truncating the unconstrained DP solution to
        Ninstr afterwards can be arbitrarily suboptimal.  Two small
        candidates beat one big one on *total* merit, but under a
        one-instruction cap the big one is the optimum — post-truncation
        keeps the wrong set."""
        from dataclasses import replace

        from repro.core import evaluate_cut
        dfg = make_dfg([Opcode.MUL], [], live_out=[0])
        base = evaluate_cut(dfg, {0}, MODEL)
        pool = [
            AreaCandidate(cut=replace(base, merit=10.0), area=0.5),
            AreaCandidate(cut=replace(base, merit=10.0), area=0.5),
            AreaCandidate(cut=replace(base, merit=15.0), area=1.0),
        ]
        unconstrained = knapsack_select(pool, 1.0)
        assert sum(c.merit for c in unconstrained) == 20.0
        # The old code truncated `unconstrained` to the cap: merit 10.
        truncated_merit = sum(
            c.merit for c in
            sorted(unconstrained, key=lambda c: -c.merit)[:1])
        assert truncated_merit == 10.0
        capped = knapsack_select(pool, 1.0, max_count=1)
        assert len(capped) == 1
        assert sum(c.merit for c in capped) == 15.0

    def test_cardinality_matches_bruteforce(self):
        rng = random.Random(42)
        from dataclasses import replace

        from repro.core import evaluate_cut
        dfg = make_dfg([Opcode.MUL], [], live_out=[0])
        base = evaluate_cut(dfg, {0}, MODEL)
        for trial in range(25):
            pool = [
                AreaCandidate(cut=replace(base,
                                          merit=float(rng.randint(1, 30))),
                              area=rng.randint(1, 8) * 0.25)
                for _ in range(rng.randint(1, 7))
            ]
            budget = rng.randint(1, 10) * 0.25
            max_count = rng.randint(1, 4)
            picked = knapsack_select(pool, budget, max_count=max_count)
            assert len(picked) <= max_count
            assert sum(c.area for c in picked) <= budget + 0.01 + 1e-9
            best = 0.0
            for r in range(min(len(pool), max_count) + 1):
                for combo in itertools.combinations(pool, r):
                    if sum(c.area for c in combo) <= budget + 1e-9:
                        best = max(best, sum(c.merit for c in combo))
            assert sum(c.merit for c in picked) == pytest.approx(best)

    def test_greedy_respects_cap(self):
        from dataclasses import replace

        from repro.core import evaluate_cut
        dfg = make_dfg([Opcode.MUL], [], live_out=[0])
        base = evaluate_cut(dfg, {0}, MODEL)
        pool = [AreaCandidate(cut=replace(base, merit=float(m)), area=0.1)
                for m in (5, 4, 3, 2)]
        picked = greedy_select(pool, 10.0, max_count=2)
        assert [c.merit for c in picked] == [5.0, 4.0]

    def test_zero_budget_selects_nothing_with_area(self):
        from dataclasses import replace

        from repro.core import evaluate_cut
        dfg = make_dfg([Opcode.MUL], [], live_out=[0])
        base = evaluate_cut(dfg, {0}, MODEL)
        pool = [AreaCandidate(cut=replace(base, merit=10.0), area=0.5)]
        assert knapsack_select(pool, 0.0) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            knapsack_select([], -1.0)


def reference_knapsack(candidates, area_budget, resolution=0.01,
                       max_count=None):
    """Frozen copy of the tuple-copying DP that ``knapsack_select``
    replaced: the oracle for its exact answers, tie-breaks included."""
    if area_budget < 0:
        raise ValueError("area budget must be non-negative")
    capacity = int(math.floor(area_budget / resolution + 1e-9))
    weights = [max(0, int(math.ceil(c.area / resolution - 1e-9)))
               for c in candidates]
    capacity = min(capacity, sum(weights))

    profitable = sum(1 for c in candidates if c.merit > 0)
    if max_count is None or max_count >= profitable:
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


_BASE_CUT = evaluate_cut(make_dfg([Opcode.MUL], [], live_out=[0]), {0},
                         MODEL)

#: Few distinct values, so equal merits and equal weights are common;
#: zero and negative merits must never be picked.
_merits = st.one_of(st.sampled_from([-3.0, 0.0, 1.0, 2.0, 2.5, 7.0]),
                    st.floats(-1.0, 40.0, allow_nan=False))
_areas = st.one_of(st.sampled_from([0.0, 0.004, 0.01, 0.25, 0.5, 1.0]),
                   st.floats(0.0, 3.0, allow_nan=False))


@st.composite
def knapsack_cases(draw):
    pool = [AreaCandidate(cut=replace(_BASE_CUT, merit=merit), area=area)
            for merit, area in draw(st.lists(st.tuples(_merits, _areas),
                                             max_size=9))]
    total = sum(c.area for c in pool)
    budget = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 4.0, allow_nan=False),
        st.just(total + 1.0),           # above the total weight
    ))
    profitable = sum(1 for c in pool if c.merit > 0)
    max_count = draw(st.one_of(
        st.none(),
        st.integers(1, max(1, profitable - 1)),     # usually binds
        st.integers(profitable, profitable + 2),    # never binds
    ))
    resolution = draw(st.sampled_from([0.01, 0.05, 0.25]))
    return pool, budget, resolution, max_count


#: Shaped like the sweep's real pools, which hold up to 31 candidates,
#: several of them free (zero area), with merits that repeat.
_sweep_merits = st.one_of(st.sampled_from([2.0, 4.0, 6.0, 12.0]),
                          st.integers(1, 400).map(float),
                          st.floats(0.5, 400.0, allow_nan=False))
_sweep_areas = st.one_of(st.just(0.0),
                         st.sampled_from([0.01, 0.02, 0.05, 0.3, 0.9, 1.8]),
                         st.floats(0.0, 2.5, allow_nan=False))


@st.composite
def sweep_shaped_cases(draw):
    size = draw(st.integers(0, 32))
    pool = [AreaCandidate(cut=replace(_BASE_CUT, merit=merit), area=area)
            for merit, area in draw(st.lists(
                st.tuples(_sweep_merits, _sweep_areas),
                min_size=size, max_size=size))]
    return pool, draw(st.sampled_from([4, 16]))


class TestKnapsackDifferential:
    @settings(max_examples=400, deadline=None)
    @given(knapsack_cases())
    def test_matches_reference_dp(self, case):
        pool, budget, resolution, max_count = case
        got = knapsack_select(pool, budget, resolution, max_count)
        want = reference_knapsack(pool, budget, resolution, max_count)
        # Same candidate objects in the same order, not merely the same
        # merit sum: ties must break exactly as before.
        assert [id(c) for c in got] == [id(c) for c in want]

    @settings(max_examples=150, deadline=None)
    @given(sweep_shaped_cases())
    def test_matches_reference_dp_on_sweep_shaped_pools(self, case):
        # The sweep's budget (2.0 MAC) and resolution (0.01).
        pool, max_count = case
        got = knapsack_select(pool, 2.0, 0.01, max_count)
        want = reference_knapsack(pool, 2.0, 0.01, max_count)
        assert [id(c) for c in got] == [id(c) for c in want]

    @pytest.mark.parametrize("max_count", [None, 2])
    def test_item_that_only_ties_the_traced_cell_is_not_taken(
            self, max_count):
        # The third candidate reaches the best cell's merit (5 + 3) but
        # does not beat it, so the backtrack must pass over it and take
        # the second one, which got there first.
        pool = [AreaCandidate(cut=replace(_BASE_CUT, merit=merit),
                              area=0.01)
                for merit in (5.0, 3.0, 3.0)]
        got = knapsack_select(pool, 0.02, max_count=max_count)
        assert got == reference_knapsack(pool, 0.02, max_count=max_count)
        assert [id(c) for c in got] == [id(pool[0]), id(pool[1])]

    def test_equal_merit_at_two_counts_keeps_fewer_items(self):
        # One big candidate and two small ones reach the same merit;
        # under a cap of two the one-item answer comes first.
        pool = [AreaCandidate(cut=replace(_BASE_CUT, merit=merit),
                              area=area)
                for merit, area in ((10.0, 0.05), (5.0, 0.01),
                                    (5.0, 0.01))]
        got = knapsack_select(pool, 0.05, max_count=2)
        assert got == reference_knapsack(pool, 0.05, max_count=2)
        assert [id(c) for c in got] == [id(pool[0])]


class TestEndToEnd:
    def test_budget_monotone(self, adpcm_decode_app):
        merits = []
        for budget in (0.5, 1.5, 5.0):
            res = select_area_constrained(
                adpcm_decode_app.dfgs, CONS, budget, MODEL)
            total_area = sum(
                cut_area(c.dfg, c.nodes, MODEL) for c in res.cuts)
            assert total_area <= budget + 0.02
            merits.append(res.total_merit)
        assert merits == sorted(merits)

    def test_unlimited_budget_matches_iterative_pool(self, gsm_app):
        res = select_area_constrained(gsm_app.dfgs, CONS, 1000.0, MODEL)
        iterative = select_iterative(gsm_app.dfgs, CONS, MODEL)
        # With an effectively infinite budget the knapsack keeps every
        # profitable candidate, so it can only match or beat Iterative
        # (same pool, same Ninstr cap).
        assert res.total_merit >= iterative.total_merit - 1e-9

    def test_greedy_method(self, gsm_app):
        res = select_area_constrained(gsm_app.dfgs, CONS, 2.0, MODEL,
                                      method="greedy")
        assert res.algorithm.startswith("AreaConstrained(greedy")

    def test_ninstr_cap_respected(self, gsm_app):
        cons = Constraints(nin=4, nout=2, ninstr=2)
        res = select_area_constrained(gsm_app.dfgs, cons, 1000.0, MODEL)
        assert res.num_instructions <= 2
        # With an unlimited area budget the capped optimum is simply the
        # top-ninstr merits of the pool.
        pool = enumerate_candidates(gsm_app.dfgs, cons, MODEL)
        best_two = sum(sorted((c.merit for c in pool), reverse=True)[:2])
        assert res.total_merit == pytest.approx(best_two)

    def test_unknown_method(self, gsm_app):
        with pytest.raises(ValueError):
            select_area_constrained(gsm_app.dfgs, CONS, 2.0, MODEL,
                                    method="magic")
