"""Tests for the sweep runner and its artifacts."""

from __future__ import annotations

import csv
import importlib
import json
from collections import Counter
from itertools import groupby

import pytest

from repro.chaos import FaultPlan, FaultSpec, env_plan
from repro.core import Constraints
from repro.core.select_iterative import CollapseChain
from repro.explore import (
    SearchCache,
    SweepSpec,
    format_table,
    rows_payload,
    run_sweep,
    write_csv,
    write_json,
)
from repro.explore.grid import ALGORITHMS, resolve_model
from repro.exec.speedup import dispatch_selection
from repro.explore.runner import _evaluate_group, _group_unit, _plan_units
from repro.pipeline import prepare_application
from repro.store import ArtifactStore, StoreBackend


def small_spec(**overrides):
    kwargs = dict(
        workloads=("fir",),
        ports=((2, 1), (4, 2)),
        ninstrs=(2, 4),
        algorithms=("iterative", "clubbing", "maxmiso"),
        limit=100_000,
        n=16,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "elapsed_s"}
            for row in rows]


@pytest.fixture(scope="module")
def outcome():
    return run_sweep(small_spec())


class TestRows:
    def test_one_row_per_point(self, outcome):
        assert len(outcome.rows) == len(small_spec().expand())

    def test_row_shape(self, outcome):
        for row in outcome.rows:
            assert row["status"] == "ok"
            assert row["speedup"] >= 1.0
            assert row["num_instructions"] <= row["ninstr"]
            for cut in row["cuts"]:
                assert cut["merit"] > 0
                assert cut["num_inputs"] <= row["nin"]
                assert cut["num_outputs"] <= row["nout"]

    def test_iterative_dominates_baselines(self, outcome):
        by_key = {(r["nin"], r["nout"], r["ninstr"], r["algorithm"]): r
                  for r in outcome.rows}
        for (nin, nout, ninstr, algo), row in by_key.items():
            if algo == "iterative":
                continue
            assert by_key[(nin, nout, ninstr, "iterative")]["total_merit"] \
                >= row["total_merit"] - 1e-9

    def test_cache_telemetry(self, outcome):
        assert outcome.cache_entries > 0
        assert outcome.warm_units > 0
        # A cold sweep looks each chain up once, in its unit, and
        # misses; a re-sweep on the same cache runs no unit and reads
        # every chain it needs from the cache.
        cache = SearchCache()
        cold = run_sweep(small_spec(), cache=cache)
        assert cold.cache_stats["hits"] == 0
        assert cold.cache_stats["misses"] == cold.cache_entries
        again = run_sweep(small_spec(), cache=cache)
        assert again.warm_units == 0
        assert again.cache_stats["hits"] > 0
        assert again.cache_stats["misses"] == cold.cache_stats["misses"]


class TestDefaultPruning:
    def test_pruned_rows_match_budgeted_rows(self):
        # Without --limit the searches prune; a budget that completes
        # walks the paper's tree.  Only the search counters may differ.
        counters = ("cuts_considered", "ub_pruned", "nin_pruned",
                    "elapsed_s")
        spec = small_spec(algorithms=("iterative",))
        budgeted = run_sweep(spec).rows
        pruned = run_sweep(small_spec(algorithms=("iterative",),
                                      limit=None)).rows
        assert all(row["complete"] for row in budgeted)
        assert ([{k: v for k, v in row.items() if k not in counters}
                 for row in pruned]
                == [{k: v for k, v in row.items() if k not in counters}
                    for row in budgeted])
        assert all(row["ub_pruned"] == row["nin_pruned"] == 0
                   for row in budgeted)
        assert sum(row["ub_pruned"] + row["nin_pruned"]
                   for row in pruned) > 0
        assert (sum(row["cuts_considered"] for row in pruned)
                < sum(row["cuts_considered"] for row in budgeted))


def chain_spec():
    """All five algorithms under a search budget, with iterative rows
    that take more cuts from one gsm block than the area rows' pool
    depth, so the shared chains outgrow the pools."""
    return SweepSpec(workloads=("gsm",), ports=((2, 1), (4, 2)),
                     ninstrs=(2, 6), algorithms=ALGORITHMS,
                     limit=100_000, n=16, max_per_block=3,
                     area_budget=1.0)


class TestCacheEquivalence:
    @pytest.mark.parametrize("spec", [small_spec(), chain_spec()],
                             ids=["small", "all-algorithms"])
    def test_cached_sweep_is_bit_identical_to_cold(self, spec):
        cold = run_sweep(spec, use_cache=False)
        warm = run_sweep(spec, use_cache=True)
        assert cold.cache_stats is None
        assert strip_timing(cold.rows) == strip_timing(warm.rows)
        if spec.max_per_block < max(spec.ninstrs):
            # Some iterative row must read past the pool depth.
            assert any(
                max(Counter(cut["block"] for cut in row["cuts"]).values())
                > spec.max_per_block
                for row in warm.rows
                if row["algorithm"] == "iterative" and row["cuts"])

    def test_prewarmed_cache_reused_across_sweeps(self):
        spec = small_spec()
        cache = SearchCache()
        run_sweep(spec, cache=cache)
        misses_before = cache.stats.misses
        again = run_sweep(spec, cache=cache)
        assert cache.stats.misses == misses_before
        # The planner must also skip the warm fan-out entirely: every
        # (block, constraint) unit is already covered.
        assert again.warm_units == 0
        assert strip_timing(again.rows) == \
            strip_timing(run_sweep(spec, use_cache=False).rows)


class TestChainSharing:
    def test_each_chain_is_looked_up_once_per_group(self, monkeypatch):
        # One (workload, Nin, Nout) group: two iterative and two area
        # rows, iterative reading deeper than the pool depth.  On a
        # warm cache every block's chain is looked up exactly once
        # across the four rows, and its entry holds every link the
        # rows read.
        spec = SweepSpec(workloads=("gsm",), ports=((4, 2),),
                         ninstrs=(2, 6), algorithms=("iterative", "area"),
                         n=16, max_per_block=3)
        cache = SearchCache()
        cold = run_sweep(spec, cache=cache)
        lookups: Counter = Counter()
        get = SearchCache.get

        def counting(self, key):
            lookups[key] += 1
            return get(self, key)

        monkeypatch.setattr(SearchCache, "get", counting)
        again = run_sweep(spec, cache=cache)
        assert again.warm_units == 0
        assert again.cache_stats["misses"] == cold.cache_stats["misses"]
        assert lookups and set(lookups.values()) == {1}
        assert {key[0] for key in lookups} == {"chain"}
        model = resolve_model(spec.models[0])
        assert set(lookups) == {
            cache.key("chain", dfg, Constraints(nin=4, nout=2), model,
                      spec.limits)
            for dfg in prepare_application("gsm", n=16).dfgs}
        # Deeper than one link per block: the rows did walk chains.
        assert max(len(value) for _key, value in cache.entries()) > 1


class TestGroupUnits:
    """A sweep unit is one (model, workload, Nin, Nout) evaluation
    group; the leader runs the same evaluation on its shared cache."""

    def test_unit_matches_leader_evaluation(self):
        spec = chain_spec()
        apps = {name: prepare_application(name, n=spec.n)
                for name in spec.workloads}
        models = {name: resolve_model(name) for name in spec.models}
        jobs = _plan_units(spec, apps, SearchCache(), models)
        # Nothing is cached yet: every unit starts from an empty cache.
        assert len(jobs) == len(spec.ports)
        assert not any(job.entries for job in jobs)
        shared = SearchCache()
        unit_keys = set()
        for job in jobs:
            rows, entries, stats = _group_unit(job)
            hits, misses = shared.stats.hits, shared.stats.misses
            leader_rows = _evaluate_group(job, shared)
            assert strip_timing(rows) == strip_timing(leader_rows)
            assert (stats.hits, stats.misses) == (
                shared.stats.hits - hits, shared.stats.misses - misses)
            assert all(shared.store[key] == value for key, value in entries)
            unit_keys.update(key for key, _value in entries)
        assert unit_keys == set(shared.store)

    def test_poisoned_group_is_evaluated_by_the_leader(self, tmp_path):
        # Four groups, all units on a fresh store; unit 2 is poisoned
        # on every hand-out, so the leader evaluates its group itself:
        # rows and store keys match a clean run.
        spec = small_spec(workloads=("fir", "crc32"), ninstrs=(2,),
                          algorithms=("iterative", "maxmiso"))
        clean_store = ArtifactStore(f"sqlite:{tmp_path / 'clean.sqlite'}")
        clean = run_sweep(spec, store=clean_store, workers=1)
        assert clean.warm_units == 4
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="unit", kind="poison", ops=("2",)),))
        store = ArtifactStore(f"sqlite:{tmp_path / 'chaos.sqlite'}")
        with env_plan(plan):
            outcome = run_sweep(spec, store=store, workers=2,
                                unit_attempts=1)
        assert [u["index"] for u in outcome.failed_units] == [2]
        assert all(u["index"] != 2 for u in outcome.unit_reports
                   if u["status"] == "ok")
        assert strip_timing(outcome.rows) == strip_timing(clean.rows)
        assert sorted(store.backend.keys()) \
            == sorted(clean_store.backend.keys())


class TestAreaAndOptimalRows:
    def test_area_rows_track_budget(self):
        spec = small_spec(algorithms=("area",), area_budget=1.5,
                          ninstrs=(4,))
        outcome = run_sweep(spec)
        for row in outcome.rows:
            assert row["status"] == "ok"
            assert row["total_area"] <= 1.5 + 0.02
            assert row["area_budget"] == 1.5

    def test_area_respects_max_per_block(self):
        # Regression: spec.max_per_block must reach the evaluation
        # phase (it used to stop at the warm keys, guaranteeing misses).
        spec = small_spec(algorithms=("area",), ninstrs=(4,),
                          max_per_block=1)
        outcome = run_sweep(spec)
        # One lookup per chain, when its group's unit builds it; the
        # rows read the unit's chains and look nothing up.
        blocks = len(prepare_application("fir", n=16).dfgs)
        assert outcome.cache_stats == {
            "hits": 0, "misses": len(spec.ports) * blocks,
            "puts": outcome.cache_entries}
        deep = run_sweep(small_spec(algorithms=("area",), ninstrs=(4,)))
        for shallow_row, deep_row in zip(outcome.rows, deep.rows):
            # One candidate per block at most.
            assert shallow_row["num_instructions"] <= \
                deep_row["num_instructions"]

    def test_optimal_too_large_reports_na(self):
        spec = small_spec(algorithms=("optimal",), ninstrs=(2,),
                          max_nodes=2)
        outcome = run_sweep(spec)
        assert all(row["status"] == "n/a" for row in outcome.rows)
        assert all("optimal selection is infeasible" in row["error"]
                   for row in outcome.rows)

    def test_optimal_runs_where_feasible(self):
        spec = small_spec(algorithms=("optimal", "iterative"),
                          ninstrs=(2,), ports=((3, 1),))
        outcome = run_sweep(spec)
        by_algo = {r["algorithm"]: r for r in outcome.rows}
        assert by_algo["optimal"]["status"] == "ok"
        # Optimal can only match or beat the greedy-identification
        # iterative scheme on total merit (both exact per block here).
        assert by_algo["optimal"]["total_merit"] >= \
            by_algo["iterative"]["total_merit"] - 1e-9


class TestArtifacts:
    def test_payload_shape(self, outcome):
        payload = rows_payload(outcome)
        assert payload["meta"]["points"] == len(outcome.rows)
        assert payload["spec"]["workloads"] == ("fir",)
        assert payload["rows"] == outcome.rows

    def test_json_roundtrip(self, outcome, tmp_path):
        path = tmp_path / "sweep.json"
        write_json(outcome, path)
        data = json.loads(path.read_text())
        assert data["meta"]["points"] == len(outcome.rows)
        assert len(data["rows"]) == len(outcome.rows)

    def test_csv_flat_table(self, outcome, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(outcome, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(outcome.rows)
        assert rows[0]["workload"] == "fir"
        assert float(rows[0]["speedup"]) >= 1.0

    def test_csv_carries_prune_counters(self, outcome, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(outcome, path)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        at = header.index("cuts_considered")
        assert header[at + 1:at + 3] == ["ub_pruned", "nin_pruned"]

    def test_table_mentions_every_algorithm(self, outcome):
        table = format_table(outcome.rows)
        for algo in ("iterative", "clubbing", "maxmiso"):
            assert algo in table
        assert "Ninstr=2" in table and "Ninstr=4" in table

    def test_table_marks_na(self):
        spec = small_spec(algorithms=("optimal",), ninstrs=(2,),
                          max_nodes=2)
        table = format_table(run_sweep(spec).rows)
        assert "n/a" in table


class _DictBackend(StoreBackend):
    """An in-memory medium (the operations a sweep uses) whose spec
    names nothing a process could reopen: a warm unit that tried would
    write somewhere else."""

    spec = "memory"

    def __init__(self):
        self.blobs = {}

    def load(self, kind, key):
        return self.blobs.get((kind, key))

    def store(self, kind, key, blob):
        self.blobs[kind, key] = blob

    def contains(self, kind, key):
        return (kind, key) in self.blobs

    def keys(self):
        return iter(list(self.blobs))


class TestWarmResultsReachTheLeader:
    """Warm units return their entries; the leader's merge is the only
    writer of the store, whatever medium it is."""

    SPEC = dict(workloads=("fir", "crc32"), ports=((2, 1), (4, 2)),
                ninstrs=(2,), algorithms=("iterative",))

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("reference")
        store = ArtifactStore(f"sqlite:{root / 'store.sqlite'}")
        outcome = run_sweep(small_spec(**self.SPEC), store=store,
                            workers=1)
        keys = sorted(store.backend.keys())
        store.close()
        return outcome, keys

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unreopenable_medium(self, reference, workers, tmp_path,
                                 monkeypatch):
        serial, keys = reference
        monkeypatch.chdir(tmp_path)
        backend = _DictBackend()
        outcome = run_sweep(small_spec(**self.SPEC),
                            store=ArtifactStore(backend),
                            workers=workers)
        assert strip_timing(outcome.rows) == strip_timing(serial.rows)
        assert sorted(backend.keys()) == keys
        assert outcome.failed_units == []
        # Every chain was looked up once, cold, in its unit; the leader
        # evaluated no group itself.
        assert outcome.cache_stats["hits"] == 0
        assert outcome.cache_stats["misses"] == outcome.cache_entries
        assert list(tmp_path.iterdir()) == []


class _CountingBackend(_DictBackend):
    """A :class:`_DictBackend` that counts reads per (kind, key)."""

    def __init__(self):
        super().__init__()
        self.loads = Counter()
        self.contains_calls = 0

    def load(self, kind, key):
        self.loads[kind, key] += 1
        return super().load(kind, key)

    def contains(self, kind, key):
        self.contains_calls += 1
        return super().contains(kind, key)


class TestWarmGroupUnits:
    """Every evaluation group is a unit, covered or not: a covered
    group's job carries the entries its rows read, so a warm sweep
    evaluates on the workers and searches nothing."""

    #: Iterative, area and Optimal rows, Optimal reading multi entries
    #: of more than one cut.
    SPEC = dict(workloads=("fir", "crc32"), ports=((2, 1), (4, 2)),
                ninstrs=(2, 3), algorithms=("iterative", "area",
                                            "optimal"))

    @pytest.fixture(scope="class")
    def cold(self):
        backend = _CountingBackend()
        outcome = run_sweep(small_spec(**self.SPEC),
                            store=ArtifactStore(backend), workers=1)
        return outcome, backend

    def test_warm_workers_sweep_matches_serial(self, cold):
        reference, backend = cold
        spec = small_spec(**self.SPEC)
        serial = run_sweep(spec, store=ArtifactStore(backend), workers=1)
        warm = run_sweep(spec, store=ArtifactStore(backend), workers=2)
        groups = len(spec.ports) * len(spec.workloads)
        assert warm.warm_units == serial.warm_units == 0
        assert len(warm.unit_reports) == groups
        assert all(r["status"] == "ok" and r["size_hint"] > 0
                   for r in warm.unit_reports)
        assert strip_timing(warm.rows) == strip_timing(serial.rows) \
            == strip_timing(reference.rows)
        # The same cache traffic either way, and nothing misses.
        assert warm.cache_stats == serial.cache_stats
        assert warm.cache_stats["misses"] == 0

    def test_warm_chain_lookups_hit_what_cold_missed(self):
        # Iterative and area rows look each chain up once per group:
        # the warm sweep hits exactly the chains the cold one missed.
        spec = small_spec(**dict(self.SPEC,
                                 algorithms=("iterative", "area")))
        store = ArtifactStore(_DictBackend())
        cold = run_sweep(spec, store=store, workers=1)
        warm = run_sweep(spec, store=store, workers=2)
        assert cold.cache_stats["hits"] == 0
        assert warm.cache_stats == {
            "hits": cold.cache_stats["misses"], "misses": 0, "puts": 0}

    def test_warm_sweep_reads_each_search_key_once(self, cold):
        _reference, backend = cold
        backend.loads.clear()
        backend.contains_calls = 0
        warm = run_sweep(small_spec(**self.SPEC),
                         store=ArtifactStore(backend), workers=1)
        assert warm.cache_stats["misses"] == 0
        searched = {key: count for (kind, key), count
                    in backend.loads.items() if kind == SearchCache.KIND}
        stored = {key for kind, key in backend.blobs
                  if kind == SearchCache.KIND}
        # Every stored entry is read, once; reads of absent keys (the
        # first multi entry a block lacks) are single reads too.
        assert stored <= set(searched)
        assert set(searched.values()) == {1}
        assert backend.contains_calls == 0

    def test_covered_group_never_searches(self, cold, monkeypatch):
        import pickle

        # The modules, not the functions the package re-exports.
        multi_cut = importlib.import_module("repro.core.multi_cut")
        select_iterative = importlib.import_module(
            "repro.core.select_iterative")

        def no_search(*_args, **_kwargs):
            raise AssertionError("a covered group searched")

        _reference, backend = cold
        spec = small_spec(**self.SPEC)
        apps = {name: prepare_application(name, n=spec.n)
                for name in spec.workloads}
        models = {name: resolve_model(name) for name in spec.models}
        jobs = _plan_units(spec, apps,
                           SearchCache(backing=ArtifactStore(backend)),
                           models)
        assert jobs and all(job.entries for job in jobs)
        monkeypatch.setattr(select_iterative, "find_best_cut", no_search)
        monkeypatch.setattr(multi_cut, "run_multi_cut", no_search)
        for job in jobs:
            # As a remote worker receives it: no leader cache, no store.
            rows, entries, stats = _group_unit(
                pickle.loads(pickle.dumps(job)))
            assert len(rows) == len(job.points)
            assert entries == [] and stats.misses == 0
            assert stats.hits > 0


class TestUnitsSearchOnDemand:
    """A unit starts from every entry the cache holds for the keys its
    rows can read, and searches only what its rows read."""

    def test_partly_covered_group_reuses_its_chains(self, monkeypatch):
        # An iterative sweep stores every group's chains.  An
        # iterative + Optimal sweep on that store then finds every
        # chain, and misses only the multi-cut values Optimal reads.
        grid = dict(workloads=("fir", "crc32", "gsm"),
                    ports=((4, 2), (3, 1)), ninstrs=(2,))
        store = ArtifactStore(_DictBackend())
        run_sweep(small_spec(**grid, algorithms=("iterative",)),
                  store=store, workers=1)
        lookups: Counter = Counter()
        get = SearchCache.get

        def counting(self, key):
            value = get(self, key)
            lookups[key[0], value is not None] += 1
            return value

        monkeypatch.setattr(SearchCache, "get", counting)
        spec = small_spec(**grid, algorithms=("iterative", "optimal"),
                          max_nodes=24)
        outcome = run_sweep(spec, store=store, workers=1)
        monkeypatch.undo()
        assert lookups["chain", True] > 0
        assert lookups["chain", False] == 0
        assert outcome.cache_stats["misses"] == lookups["multi", False] > 0
        assert strip_timing(outcome.rows) == \
            strip_timing(run_sweep(spec, use_cache=False).rows)

    def test_rows_without_chains_look_none_up(self):
        # Optimal and MaxMISO rows read no collapse chain, so a warm
        # re-sweep of them hits every multi entry and misses nothing.
        spec = small_spec(ninstrs=(2,), algorithms=("optimal", "maxmiso"))
        cache = SearchCache()
        cold = run_sweep(spec, cache=cache, workers=1)
        assert {key[0] for key in cache.store} == {"multi"}
        warm = run_sweep(spec, cache=cache, workers=1)
        assert warm.cache_stats["misses"] == cold.cache_stats["misses"]
        assert warm.warm_units == 0

    def test_cold_iterative_sweep_searches_what_its_rows_read(
            self, monkeypatch):
        # Ninstr-2 iterative rows read link 0 of every block and link 1
        # of the block they take their first cut from: the sweep
        # searches exactly the links the same rows, evaluated serially
        # on one shared chain list per group, search.
        select_iterative = importlib.import_module(
            "repro.core.select_iterative")
        search = select_iterative.find_best_cut
        calls: Counter = Counter()

        def counting(*args, **kwargs):
            calls["find_best_cut"] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(select_iterative, "find_best_cut", counting)
        spec = small_spec(workloads=("crc32", "gsm"),
                          ports=((4, 2), (3, 1)), ninstrs=(2,),
                          algorithms=("iterative",))
        run_sweep(spec, workers=1)
        swept = calls.pop("find_best_cut")
        apps = {name: prepare_application(name, n=spec.n)
                for name in spec.workloads}
        for (model_name, workload, nin, nout), points in groupby(
                spec.expand(),
                key=lambda p: (p.model, p.workload, p.nin, p.nout)):
            dfgs, model = apps[workload].dfgs, resolve_model(model_name)
            chains = [CollapseChain(dfg, Constraints(nin=nin, nout=nout),
                                    model, spec.limits) for dfg in dfgs]
            for point in points:
                dispatch_selection(point.algorithm, dfgs,
                                   point.constraints, model, spec.limits,
                                   spec.max_nodes, spec.area_budget,
                                   chains=chains)
        assert swept == calls["find_best_cut"] > 0
