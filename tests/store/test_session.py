"""Tests for the Session facade and store-backed warm starts."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Session
from repro.core import Constraints, SearchLimits
from repro.core.select_iterative import CollapseChain
from repro.explore import SearchCache
from repro.hwmodel import CostModel, uniform_cost_model
from repro.pipeline import prepare_application
from repro.store import ArtifactStore
from repro.workloads import get_workload

MODEL = CostModel()


class TestPrepareMemo:
    def test_prepare_hits_the_store_across_sessions(self, tmp_path):
        first = Session(store=tmp_path)
        cold = first.prepare("fir", n=16)
        assert first.store.stats.misses >= 1     # cold: nothing stored

        second = Session(store=tmp_path)
        warm = second.prepare("fir", n=16)
        assert second.store.stats.hits >= 1
        assert str(warm.module) == str(cold.module)
        assert [d.weight for d in warm.dfgs] == [d.weight for d in cold.dfgs]

    def test_prepare_in_process_memo(self, tmp_path):
        session = Session(store=tmp_path)
        assert session.prepare("fir", n=16) is session.prepare("fir", n=16)

    def test_different_n_is_a_different_artifact(self, tmp_path):
        session = Session(store=tmp_path)
        a16 = session.prepare("fir", n=16)
        a32 = session.prepare("fir", n=32)
        assert a16 is not a32
        assert [d.weight for d in a16.dfgs] != [d.weight for d in a32.dfgs]

    def test_default_n_and_explicit_default_share(self, tmp_path):
        store = ArtifactStore(tmp_path)
        workload = get_workload("fir")
        prepare_application("fir", n=workload.default_n, store=store)
        puts = store.stats.puts
        prepare_application("fir", store=store)
        assert store.stats.puts == puts      # hit, not a second compile

    def test_changed_driver_misses(self, tmp_path):
        # Editing the input generator must not replay a stale profile.
        store = ArtifactStore(tmp_path)
        workload = get_workload("fir")
        prepare_application(workload, n=16, store=store)
        puts = store.stats.puts

        def edited_driver(memory, n):
            return workload.driver(memory, n)

        changed = dataclasses.replace(workload, driver=edited_driver)
        prepare_application(changed, n=16, store=store)
        assert store.stats.puts > puts       # recompiled, no false hit

    def test_changed_workload_source_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        workload = get_workload("fir")
        prepare_application(workload, n=16, store=store)
        puts = store.stats.puts
        edited = dataclasses.replace(workload,
                                     source=workload.source + "\n")
        prepare_application(edited, n=16, store=store)
        assert store.stats.puts > puts       # recompiled, no false hit

    def test_corrupted_app_artifact_recomputes(self, tmp_path):
        session = Session(store=tmp_path)
        cold = session.prepare("fir", n=16)
        for path in session.store.base.rglob("*.pkl"):
            path.write_bytes(b"corrupt")
        fresh = Session(store=tmp_path)
        warm = fresh.prepare("fir", n=16)    # miss + recompute, no crash
        assert fresh.store.stats.errors >= 1
        assert str(warm.module) == str(cold.module)


def identify(dfg, cons, model=MODEL, limits=None, cache=None):
    """Link 0 of *dfg*'s collapse chain: the single-cut search, cached
    as the first link of a ``chain`` entry."""
    return CollapseChain(dfg, cons, model, limits, cache).link(0)


class TestSearchCacheBacking:
    def _dfg(self):
        return prepare_application("fir", n=16).hot_dfg

    def test_backing_shares_entries_across_caches(self, tmp_path):
        store = ArtifactStore(tmp_path)
        dfg = self._dfg()
        cons = Constraints(nin=4, nout=2)
        cold = identify(dfg, cons, cache=SearchCache(backing=store))

        fresh = SearchCache(backing=ArtifactStore(tmp_path))
        hit = identify(dfg, cons, cache=fresh)
        assert fresh.stats.hits == 1 and fresh.stats.misses == 0
        assert hit.cut.nodes == cold.cut.nodes
        assert hit.cut.merit == cold.cut.merit
        assert dataclasses.asdict(hit.stats) == dataclasses.asdict(
            cold.stats)

    def test_model_ablation_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        dfg = self._dfg()
        cons = Constraints(nin=4, nout=2)
        identify(dfg, cons, cache=SearchCache(backing=store))

        other = SearchCache(backing=ArtifactStore(tmp_path))
        identify(dfg, cons, uniform_cost_model(), cache=other)
        assert other.stats.hits == 0 and other.stats.misses == 1

    def test_changed_limits_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        dfg = self._dfg()
        cons = Constraints(nin=4, nout=2)
        identify(dfg, cons, limits=SearchLimits(max_considered=100_000),
                 cache=SearchCache(backing=store))

        other = SearchCache(backing=ArtifactStore(tmp_path))
        identify(dfg, cons, limits=SearchLimits(max_considered=50_000),
                 cache=other)
        assert other.stats.hits == 0 and other.stats.misses == 1

    def test_presence_checks_consult_backing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        dfg = self._dfg()
        cons = Constraints(nin=4, nout=2)
        identify(dfg, cons, cache=SearchCache(backing=store))
        fresh = SearchCache(backing=ArtifactStore(tmp_path))
        key = fresh.key("chain", dfg, cons, MODEL, None)
        assert fresh.peek(key) is not None
        assert fresh.peek(fresh.key("chain", dfg, Constraints(
            nin=2, nout=1), MODEL, None)) is None
        # A peek counts no hit or miss, and promotes into memory.
        assert (fresh.stats.hits, fresh.stats.misses) == (0, 0)
        assert key in fresh.store

    def test_deeper_walk_rewrites_the_stored_chain(self, tmp_path):
        dfg = self._dfg()
        cons = Constraints(nin=2, nout=1)
        identify(dfg, cons, cache=SearchCache(backing=ArtifactStore(
            tmp_path)))
        deep = CollapseChain(dfg, cons, MODEL, None, SearchCache(
            backing=ArtifactStore(tmp_path)))
        deep.link(5)
        assert len(deep.entry) > 1
        fresh = CollapseChain(dfg, cons, MODEL, None, SearchCache(
            backing=ArtifactStore(tmp_path)))
        assert fresh.entry == deep.entry


class TestSessionFacade:
    def test_identify_then_select_share_the_cache(self, tmp_path):
        session = Session(store=tmp_path)
        session.identify("fir", n=16)
        misses = session.cache.stats.misses
        session.select("fir", ninstr=1, n=16)
        # The selection's first round is the identify search: a hit.
        assert session.cache.stats.hits >= 1
        assert session.cache.stats.misses >= misses

    def test_area_selection_puts_one_entry_per_chain(self, tmp_path):
        # The area pool walks each block's chain in one call, so a
        # store-backed selection writes each block's chain entry once,
        # not once per searched link.
        session = Session(store=tmp_path)
        blocks = len(session.prepare("sha").dfgs)
        session.select("sha", algorithm="area")
        assert blocks > 1
        assert session.cache.stats.puts == len(session.cache) == blocks

    @pytest.mark.parametrize("name, chains", [
        ("sha", 11), ("adpcm-decode", 2), ("gsm", 4)])
    def test_iterative_selection_puts_each_grown_chain_once(
            self, tmp_path, name, chains):
        # Iterative selection reads its chains link by link; it puts
        # each grown chain's entry once, at its end, not once per link
        # it searched.  The stored entries are whole: a second session
        # on the store selects the same cuts without searching.
        session = Session(store=tmp_path)
        cold = session.select(name, ninstr=16)
        assert session.cache.stats.puts == len(session.cache) == chains
        warm_session = Session(store=tmp_path)
        warm = warm_session.select(name, ninstr=16)
        assert warm_session.cache.stats.misses == 0
        assert warm_session.cache.stats.puts == 0
        assert ([sorted(cut.nodes) for cut in warm.cuts]
                == [sorted(cut.nodes) for cut in cold.cuts])

    def test_select_unknown_algorithm(self, tmp_path):
        session = Session(store=tmp_path)
        with pytest.raises(ValueError, match="unknown algorithm"):
            session.select("fir", algorithm="magic", n=16)

    def test_afu_emits_verilog(self, tmp_path):
        session = Session(store=tmp_path)
        modules = session.afu("fir", ninstr=1, n=16,
                              limits=SearchLimits(max_considered=100_000))
        assert modules and "module ise0" in modules[0]

    def test_stats_shape(self, tmp_path):
        session = Session(store=tmp_path)
        session.select("fir", ninstr=2, n=16)
        stats = session.stats()
        assert stats["store"]["root"] == str(tmp_path)
        assert stats["search_entries"] >= 1
        assert "hit_rate" in stats["store"]

    def test_memory_only_session(self):
        session = Session(store=False)
        assert session.store is None
        result = session.select("fir", ninstr=2, n=16)
        assert result.total_merit > 0
        assert session.stats()["store"] is None
