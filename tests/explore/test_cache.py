"""Tests for the digest-keyed identification cache."""

from __future__ import annotations

import random
from dataclasses import asdict


from repro.core import (
    Constraints,
    SearchLimits,
    find_best_cut,
    find_best_cuts,
    select_iterative,
    select_optimal,
)
from repro.core.select_area import enumerate_candidates
from repro.core.select_iterative import CollapseChain
from repro.explore import SearchCache, dfg_digest, model_digest
from repro.hwmodel import CostModel, uniform_cost_model
from repro.ir.opcodes import Opcode
from repro.ir.synth import make_dfg, random_dag_dfg

MODEL = CostModel()
CONS = Constraints(nin=4, nout=2)


def chain_dfg():
    """mul feeding add feeding xor, one value escaping."""
    return make_dfg([Opcode.MUL, Opcode.ADD, Opcode.XOR],
                    [(0, 1), (1, 2)], live_out=[2])


class TestDigests:
    def test_structurally_equal_graphs_share_digest(self):
        assert dfg_digest(chain_dfg()) == dfg_digest(chain_dfg())

    def test_name_is_cosmetic(self):
        a = make_dfg([Opcode.ADD], [], live_out=[0], name="a")
        b = make_dfg([Opcode.ADD], [], live_out=[0], name="b")
        assert dfg_digest(a) == dfg_digest(b)

    def test_opcode_changes_digest(self):
        a = make_dfg([Opcode.ADD], [], live_out=[0])
        b = make_dfg([Opcode.MUL], [], live_out=[0])
        assert dfg_digest(a) != dfg_digest(b)

    def test_weight_changes_digest(self):
        a = make_dfg([Opcode.ADD], [], live_out=[0], weight=1.0)
        b = make_dfg([Opcode.ADD], [], live_out=[0], weight=2.0)
        assert dfg_digest(a) != dfg_digest(b)

    def test_collapse_label_is_cosmetic(self):
        base = chain_dfg()
        result = find_best_cut(base, CONS, MODEL)
        one = base.collapse(result.cut.nodes, label="ise1")
        two = base.collapse(result.cut.nodes, label="area1")
        assert dfg_digest(one) == dfg_digest(two)

    def test_model_digest_tracks_content(self):
        assert model_digest(CostModel()) == model_digest(CostModel())
        assert model_digest(CostModel()) != model_digest(
            uniform_cost_model())

    def test_mutated_flags_invalidate_the_memoised_digest(self):
        # Regression: the digest used to be memoised unconditionally on
        # the graph object, so flag mutations after the first digest
        # returned a stale key and could alias different searches.
        dfg = chain_dfg()
        before = dfg_digest(dfg)
        dfg.nodes[0].forbidden = True
        after = dfg_digest(dfg)
        assert before != after
        pristine = chain_dfg()
        pristine.nodes[0].forbidden = True
        assert after == dfg_digest(pristine)

    def test_mutated_weight_invalidates_the_memoised_digest(self):
        dfg = chain_dfg()
        before = dfg_digest(dfg)
        dfg.weight = dfg.weight + 1.0
        assert dfg_digest(dfg) != before

    def test_unmutated_digest_is_stable(self):
        dfg = chain_dfg()
        assert dfg_digest(dfg) == dfg_digest(dfg)


def identify(dfg, cons, model=MODEL, limits=None, cache=None):
    """Link 0 of *dfg*'s collapse chain on *cache*: the single-cut
    search, cached as the first link of a ``chain`` entry."""
    return CollapseChain(dfg, cons, model, limits, cache).link(0)


class TestSingleCut:
    """Single-cut searches, cached as links of ``chain`` entries."""

    def test_hit_is_identical(self):
        cache = SearchCache()
        dfg = chain_dfg()
        cold = identify(dfg, CONS, cache=cache)
        hit = identify(dfg, CONS, cache=cache)
        assert cache.stats.hits == 1
        assert hit.cut.nodes == cold.cut.nodes
        assert hit.cut.merit == cold.cut.merit
        assert asdict(hit.stats) == asdict(cold.stats)
        assert hit.complete == cold.complete
        assert asdict(cold.stats) == asdict(find_best_cut(
            dfg, CONS, MODEL).stats)

    def test_hit_across_equal_objects(self):
        cache = SearchCache()
        identify(chain_dfg(), CONS, cache=cache)
        identify(chain_dfg(), CONS, cache=cache)
        assert cache.stats.hits == 1

    def test_ninstr_does_not_split_the_key(self):
        cache = SearchCache()
        dfg = chain_dfg()
        identify(dfg, Constraints(nin=4, nout=2, ninstr=2), cache=cache)
        identify(dfg, Constraints(nin=4, nout=2, ninstr=16), cache=cache)
        assert cache.stats.hits == 1

    def test_ports_split_the_key(self):
        cache = SearchCache()
        dfg = chain_dfg()
        identify(dfg, Constraints(nin=4, nout=2), cache=cache)
        identify(dfg, Constraints(nin=2, nout=1), cache=cache)
        assert cache.stats.hits == 0

    def test_model_splits_the_key(self):
        cache = SearchCache()
        dfg = chain_dfg()
        identify(dfg, CONS, CostModel(), cache=cache)
        identify(dfg, CONS, uniform_cost_model(), cache=cache)
        assert cache.stats.hits == 0

    def test_limits_split_the_key(self):
        cache = SearchCache()
        dfg = chain_dfg()
        identify(dfg, CONS, cache=cache)
        identify(dfg, CONS, limits=SearchLimits(max_considered=10),
                 cache=cache)
        assert cache.stats.hits == 0

    def test_paper_walk_splits_the_key(self):
        # A budget that cannot be reached walks the paper's tree: the
        # same cut as the pruned default search, different statistics,
        # so neither may answer the other, whichever fills the cache first.
        dfg = chain_dfg()
        paper_walk = SearchLimits(max_considered=2 ** dfg.n)
        for first, second in ((paper_walk, None), (None, paper_walk)):
            cache = SearchCache()
            filled = identify(dfg, CONS, limits=first, cache=cache)
            other = identify(dfg, CONS, limits=second, cache=cache)
            assert cache.stats.hits == 0
            assert other.cut.nodes == filled.cut.nodes
            assert asdict(other.stats) != asdict(filled.stats)
            assert asdict(identify(dfg, CONS, limits=first,
                                   cache=cache).stats) \
                == asdict(filled.stats)
            assert cache.stats.hits == 1

    def test_no_profitable_cut_is_cached(self):
        cache = SearchCache()
        dfg = make_dfg([Opcode.LOAD], [], live_out=[0])
        cold = identify(dfg, CONS, cache=cache)
        hit = identify(dfg, CONS, cache=cache)
        assert cold.cut is None and hit.cut is None
        assert cache.stats.hits == 1

    def test_random_graphs_roundtrip(self):
        rng = random.Random(11)
        cache = SearchCache()
        for _ in range(10):
            dfg = random_dag_dfg(rng.randint(2, 12), rng,
                                 forbidden_prob=0.1)
            cold = identify(dfg, CONS, cache=cache)
            hit = identify(dfg, CONS, cache=cache)
            assert (cold.cut is None) == (hit.cut is None)
            if cold.cut is not None:
                assert hit.cut.nodes == cold.cut.nodes
                assert hit.cut.merit == cold.cut.merit
            assert asdict(hit.stats) == asdict(cold.stats)


def deep_chain_dfg():
    """A random DAG whose 2-in/1-out collapse chain has 8 links."""
    return random_dag_dfg(24, random.Random(13))


NARROW = Constraints(nin=2, nout=1)


class TestChainEntries:
    """One ``chain`` entry per collapse chain, extended by deeper walks."""

    def test_one_entry_per_chain_with_one_link_per_walked_link(self):
        cache = SearchCache()
        chain = CollapseChain(deep_chain_dfg(), NARROW, MODEL, None, cache)
        chain.link(2)
        assert len(cache) == 1
        (key, value), = cache.entries()
        assert key[0] == "chain" and len(value) == 3
        chain.link(4)
        (_key, deeper), = cache.entries()
        assert deeper[:3] == value and len(deeper) == 5

    def test_deeper_walk_rebuilds_cached_links_and_searches_the_rest(self):
        dfg = deep_chain_dfg()
        cold = CollapseChain(dfg, NARROW, MODEL)
        cache = SearchCache()
        CollapseChain(dfg, NARROW, MODEL, None, cache).link(2)
        warm = CollapseChain(dfg, NARROW, MODEL, None, cache)
        assert cache.stats.hits == 1
        for k in range(10):
            a, b = cold.link(k), warm.link(k)
            assert (a is None) == (b is None)
            if a is None:
                break
            assert (a.cut is None) == (b.cut is None)
            if a.cut is not None:
                assert a.cut.nodes == b.cut.nodes
                assert a.cut.merit == b.cut.merit
            assert asdict(a.stats) == asdict(b.stats)
        assert len(warm.results) == 8
        assert len(cache.entries()[0][1]) == len(warm.results)
        assert [g.n for g in warm.graphs] == [g.n for g in cold.graphs]

    def test_a_walk_that_searched_nothing_puts_nothing(self):
        cache = SearchCache()
        CollapseChain(chain_dfg(), CONS, MODEL, None, cache).link(3)
        puts = cache.stats.puts
        CollapseChain(chain_dfg(), CONS, MODEL, None, cache).link(3)
        assert cache.stats.puts == puts


class TestMultiCut:
    def test_hit_is_identical(self):
        cache = SearchCache()
        dfg = random_dag_dfg(8, random.Random(3))
        cold = find_best_cuts(dfg, CONS, 2, MODEL, cache=cache)
        hit = find_best_cuts(dfg, CONS, 2, MODEL, cache=cache)
        assert cache.stats.hits == 1
        assert [c.nodes for c in hit.cuts] == [c.nodes for c in cold.cuts]
        assert hit.total_merit == cold.total_merit
        assert asdict(hit.stats) == asdict(cold.stats)

    def test_num_cuts_splits_the_key(self):
        cache = SearchCache()
        dfg = random_dag_dfg(8, random.Random(3))
        find_best_cuts(dfg, CONS, 1, MODEL, cache=cache)
        find_best_cuts(dfg, CONS, 2, MODEL, cache=cache)
        assert cache.stats.hits == 0


class TestPool:
    def test_pool_roundtrip(self, gsm_app):
        cache = SearchCache()
        cold = enumerate_candidates(gsm_app.dfgs, CONS, MODEL, cache=cache)
        hit = enumerate_candidates(gsm_app.dfgs, CONS, MODEL, cache=cache)
        assert len(hit) == len(cold) > 0
        for a, b in zip(cold, hit):
            assert a.cut.nodes == b.cut.nodes
            assert a.area == b.area
            assert a.merit == b.merit


class TestSelectionEquivalence:
    def test_iterative_with_cache_is_identical(self, gsm_app):
        cons = Constraints(nin=4, nout=2, ninstr=8)
        cache = SearchCache()
        cold = select_iterative(gsm_app.dfgs, cons, MODEL)
        warm_fill = select_iterative(gsm_app.dfgs, cons, MODEL, cache=cache)
        warm = select_iterative(gsm_app.dfgs, cons, MODEL, cache=cache)
        for other in (warm_fill, warm):
            assert [c.nodes for c in other.cuts] == \
                [c.nodes for c in cold.cuts]
            assert other.total_merit == cold.total_merit
            assert asdict(other.stats) == asdict(cold.stats)
            assert other.complete == cold.complete

    def test_optimal_with_cache_is_identical(self, fir_app):
        cons = Constraints(nin=3, nout=1, ninstr=2)
        limits = SearchLimits(max_considered=200_000)
        cache = SearchCache()
        cold = select_optimal(fir_app.dfgs, cons, MODEL, limits)
        select_optimal(fir_app.dfgs, cons, MODEL, limits, cache=cache)
        warm = select_optimal(fir_app.dfgs, cons, MODEL, limits,
                              cache=cache)
        assert cache.stats.hits > 0
        assert [c.nodes for c in warm.cuts] == [c.nodes for c in cold.cuts]
        assert warm.total_merit == cold.total_merit
        assert asdict(warm.stats) == asdict(cold.stats)


class TestSharing:
    def test_entries_merge_between_caches(self):
        a = SearchCache()
        dfg = chain_dfg()
        identify(dfg, CONS, cache=a)
        b = SearchCache()
        b.merge(a.entries())
        assert b.peek(b.key("chain", chain_dfg(), CONS, MODEL, None))
        hit = identify(chain_dfg(), CONS, cache=b)
        assert b.stats.hits == 1 and hit.cut is not None

    def test_merge_first_writer_wins(self):
        # Between entries of equal length the first writer wins.
        a = SearchCache()
        identify(chain_dfg(), CONS, cache=a)
        b = SearchCache()
        b.merge(a.entries())
        before = dict(b.store)
        b.merge(a.entries())
        assert b.store == before

    def test_merge_keeps_the_longer_chain(self):
        dfg = deep_chain_dfg()
        short, deep = SearchCache(), SearchCache()
        CollapseChain(dfg, NARROW, MODEL, None, short).link(0)
        CollapseChain(dfg, NARROW, MODEL, None, deep).link(3)
        merged = SearchCache()
        merged.merge(deep.entries())
        merged.merge(short.entries())
        assert merged.store == deep.store
        merged = SearchCache()
        merged.merge(short.entries())
        merged.merge(deep.entries())
        assert merged.store == deep.store
        assert merged.stats.puts == 2

    def test_entries_are_picklable(self):
        import pickle

        cache = SearchCache()
        identify(chain_dfg(), CONS, cache=cache)
        restored = SearchCache()
        restored.merge(pickle.loads(pickle.dumps(cache.entries())))
        assert len(restored) == len(cache)
