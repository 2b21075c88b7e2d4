"""Warm vs. cold bit-identity: the store may only ever skip work.

Property-tested across three workloads and two algorithm families, at
every layer: selection results, sweep rows/artifacts and measured
speedup rows must be identical with the store disabled, enabled-cold
and pre-warmed.
"""

from __future__ import annotations

import pytest

from repro import Session, SweepSpec
from repro.core import SearchLimits

WORKLOADS = ["fir", "crc32", "gsm"]
ALGORITHMS = ["iterative", "maxmiso"]
LIMITS = SearchLimits(max_considered=200_000)
N = 16


def _selection_fingerprint(result):
    return (
        result.algorithm,
        result.total_merit,
        result.speedup,
        result.num_instructions,
        result.complete,
        [(cut.dfg.name, tuple(sorted(cut.nodes)), cut.merit)
         for cut in result.cuts],
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_select_identical_nostore_cold_warm(tmp_path, workload, algorithm):
    kwargs = dict(algorithm=algorithm, ninstr=4, limits=LIMITS, n=N)
    nostore = Session(store=False).select(workload, **kwargs)
    cold = Session(store=tmp_path).select(workload, **kwargs)
    warm_session = Session(store=tmp_path)
    warm = warm_session.select(workload, **kwargs)

    assert _selection_fingerprint(nostore) == _selection_fingerprint(cold)
    assert _selection_fingerprint(cold) == _selection_fingerprint(warm)
    assert nostore.describe() == cold.describe() == warm.describe()
    if algorithm == "iterative":
        # The warm run actually warm-started (prepare + identification).
        assert warm_session.store.stats.hits >= 1


def _strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "elapsed_s"}
            for row in rows]


def test_sweep_rows_identical_nostore_cold_warm(tmp_path):
    spec = SweepSpec(
        workloads=("fir", "crc32"),
        ports=((2, 1), (4, 2)),
        ninstrs=(2, 4),
        algorithms=tuple(ALGORITHMS),
        limit=LIMITS.max_considered,
        n=N,
    )
    nostore = Session(store=False).sweep(spec)
    cold = Session(store=tmp_path).sweep(spec)
    warm = Session(store=tmp_path).sweep(spec)

    assert _strip_timing(nostore.rows) == _strip_timing(cold.rows)
    assert _strip_timing(cold.rows) == _strip_timing(warm.rows)
    # The pre-warmed run had nothing left to warm: the store already
    # covered every (block, constraint) unit of the grid.
    assert warm.warm_units == 0


def test_sweep_artifacts_byte_identical(tmp_path):
    """The JSON/CSV artifacts (minus timings) of a warm sweep equal the
    cold ones byte for byte."""
    import json

    from repro.explore import write_csv, write_json

    spec = SweepSpec(workloads=("fir",), ports=((4, 2),), ninstrs=(2, 4),
                     algorithms=("iterative",),
                     limit=LIMITS.max_considered, n=N)

    def artifacts(outcome, directory):
        directory.mkdir(exist_ok=True)
        json_path = directory / "sweep.json"
        csv_path = directory / "sweep.csv"
        write_json(outcome, json_path)
        write_csv(outcome, csv_path)
        record = json.loads(json_path.read_text())
        record.pop("meta", None)        # timings/throughput live here
        for row in record["rows"]:
            row.pop("elapsed_s", None)
        return record, csv_path.read_text()

    cold_json, _cold_csv = artifacts(
        Session(store=tmp_path / "store").sweep(spec), tmp_path / "a")
    warm_json, _warm_csv = artifacts(
        Session(store=tmp_path / "store").sweep(spec), tmp_path / "b")
    off_json, _off_csv = artifacts(
        Session(store=False).sweep(spec), tmp_path / "c")
    assert cold_json == warm_json == off_json


def test_speedup_rows_identical_nostore_cold_warm(tmp_path, monkeypatch):
    from repro.exec import speedup as speedup_mod

    kwargs = dict(ninstr=4, limits=LIMITS, n=N)
    names = ["fir", "crc32"]
    nostore = Session(store=False).speedup(names, **kwargs)
    cold = Session(store=tmp_path).speedup(names, **kwargs)
    warm_session = Session(store=tmp_path)
    runs = []
    run_with_cycles = speedup_mod.run_with_cycles
    monkeypatch.setattr(
        speedup_mod, "run_with_cycles",
        lambda module, *args, **kw: runs.append(module)
        or run_with_cycles(module, *args, **kw))
    warm = warm_session.speedup(names, **kwargs)

    as_dicts = lambda rows: [row.as_dict() for row in rows]
    assert as_dicts(nostore) == as_dicts(cold) == as_dicts(warm)
    assert all(row.identical for row in warm)
    # The stored applications were read back, and their kept profiling
    # run is the baseline: the warm run executed only the ISE programs.
    assert warm_session.store.stats.hits >= len(names)
    assert len(runs) == len(names)
    baselines = [warm_session.prepare(name, n=N).module for name in names]
    assert not any(module in baselines for module in runs)
    assert "baseline" not in warm_session.store.info().kinds


def test_measured_sweep_identical_with_stored_application(tmp_path):
    spec = SweepSpec(workloads=("fir",), ports=((4, 2),), ninstrs=(2,),
                     algorithms=("iterative",), measure=True,
                     limit=LIMITS.max_considered, n=N)
    cold = Session(store=tmp_path).sweep(spec)
    warm = Session(store=tmp_path).sweep(spec)
    nostore = Session(store=False).sweep(spec)
    assert _strip_timing(cold.rows) == _strip_timing(warm.rows)
    assert _strip_timing(cold.rows) == _strip_timing(nostore.rows)
    assert all(row["measured_identical"] for row in warm.rows)
