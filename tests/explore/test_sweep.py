"""Tests for the sweep runner and its artifacts."""

from __future__ import annotations

import csv
import json
from collections import Counter

import pytest

from repro.explore import (
    SearchCache,
    SweepSpec,
    format_table,
    rows_payload,
    run_sweep,
    write_csv,
    write_json,
)
from repro.explore.cache import dfg_digest
from repro.explore.grid import ALGORITHMS


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
        assert outcome.cache_stats["hits"] > 0
        assert outcome.warm_units > 0


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
    def test_each_link_is_looked_up_once_per_group(self, monkeypatch):
        # One (workload, Nin, Nout) group: two iterative and two area
        # rows, iterative reading deeper than the pool depth.  On a
        # warm cache every link of every block's chain is looked up
        # exactly once across the four rows.
        spec = SweepSpec(workloads=("gsm",), ports=((4, 2),),
                         ninstrs=(2, 6), algorithms=("iterative", "area"),
                         n=16, max_per_block=3)
        cache = SearchCache()
        run_sweep(spec, cache=cache)
        lookups: Counter = Counter()
        get_single = SearchCache.get_single

        def counting(self, dfg, *args):
            lookups[(dfg.name, dfg_digest(dfg))] += 1
            return get_single(self, dfg, *args)

        monkeypatch.setattr(SearchCache, "get_single", counting)
        again = run_sweep(spec, cache=cache)
        assert again.warm_units == 0
        assert again.cache_stats["misses"] == 0
        assert lookups and set(lookups.values()) == {1}
        # Deeper than one link per block: the rows did walk chains.
        blocks = {name for name, _digest in lookups}
        assert len(lookups) > len(blocks)


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
        assert outcome.cache_stats["misses"] == 0
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


class TestWarmUnitStore:
    def test_warm_units_close_their_network_store(self, tmp_path):
        # Each store-backed warm unit opens its own store; it must
        # close it, or a tcp:// unit leaks its socket to the collector.
        import gc
        import warnings

        from repro.core import SearchLimits
        from repro.explore.runner import _warm_unit
        from repro.pipeline import prepare_application
        from repro.store import ArtifactStore, SQLiteBackend, StoreServer

        dfg = prepare_application("fir", n=16).hot_dfg
        inner = SQLiteBackend(tmp_path / "served.sqlite")
        server = StoreServer(inner, host="127.0.0.1", port=0).start()
        limits = SearchLimits(max_considered=100_000)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for nin, nout in ((2, 1), (4, 2), (4, 1)):
                    job = (dfg, nin, nout, "default", limits,
                           (("chain", 1),), server.spec)
                    assert _warm_unit(job) == []
                gc.collect()
            leaked = [w for w in caught
                      if issubclass(w.category, ResourceWarning)]
            assert leaked == []
            # The units did spill their entries into the served store.
            store = ArtifactStore(server.spec)
            assert store.info().entries >= 3
            store.close()
        finally:
            server.shutdown()
            inner.close()
