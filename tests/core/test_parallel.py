"""Tests for the warm-phase scheduler and the workers knob."""

from __future__ import annotations

import os
import socket
import time
from dataclasses import fields

import pytest

from repro.cluster import scheduled_map
from repro.core.parallel import WORKERS_ENV, UnitReport, resolve_workers


def _square(x):
    return x * x


def _nap(x):
    time.sleep(float(x))
    return x


def _reciprocal(x):
    return 1 / x


def _dispatch_order(count, hints):
    """Unit order of a serial run: with no forks the leader drains its
    queue inline, so completion order is the dispatch order."""
    _, reports = scheduled_map(_square, list(range(count)), workers=1,
                               size_hints=hints)
    return [r.index for r in reports]


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers() == 5

    def test_unset_env_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_unparsable_env_warns_and_runs_serial(self, monkeypatch,
                                                  capsys):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        assert resolve_workers() == 1
        err = capsys.readouterr().err
        assert "warning" in err
        assert "lots" in err
        assert WORKERS_ENV in err

    def test_parsable_env_does_not_warn(self, monkeypatch, capsys):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert resolve_workers() == 2
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", [0, -1, -8])
    def test_zero_and_negative_mean_one_per_cpu(self, value):
        assert resolve_workers(value) == (os.cpu_count() or 1)

    def test_env_zero_means_one_per_cpu(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers() == (os.cpu_count() or 1)


class TestDispatchOrder:
    def test_no_hints_is_input_order(self):
        assert _dispatch_order(4, None) == [0, 1, 2, 3]

    def test_largest_first(self):
        assert _dispatch_order(4, [1.0, 9.0, 3.0, 7.0]) == [1, 3, 2, 0]

    def test_ties_keep_input_order(self):
        assert _dispatch_order(4, [2.0, 5.0, 2.0, 5.0]) == [1, 3, 0, 2]


class TestScheduledMap:
    def test_results_match_serial_comprehension(self):
        items = list(range(20))
        results, reports = scheduled_map(_square, items, workers=2)
        assert results == [x * x for x in items]
        assert sorted(r.index for r in reports) == items

    def test_hints_reorder_dispatch_not_results(self):
        items = [3, 1, 4, 1, 5]
        hints = [30.0, 10.0, 40.0, 10.0, 50.0]
        results, _ = scheduled_map(_square, items, workers=2,
                                   size_hints=hints)
        assert results == [x * x for x in items]

    def test_reports_carry_hints_and_timing(self):
        items = [0.0, 0.0, 0.0]
        hints = [7.0, 5.0, 3.0]
        _, reports = scheduled_map(_nap, items, workers=1,
                                   size_hints=hints)
        by_index = {r.index: r for r in reports}
        assert by_index[0].size_hint == 7.0
        assert by_index[2].size_hint == 3.0
        assert all(r.elapsed_s >= 0.0 for r in reports)
        assert all(r.worker for r in reports)

    def test_serial_path_reports_serial_worker(self):
        _, reports = scheduled_map(_square, [1, 2, 3], workers=1)
        assert {r.worker for r in reports} == {"leader-inline"}

    def test_serial_dispatch_runs_largest_first(self):
        # With one worker the reports land in dispatch order, which
        # makes the largest-first policy directly observable.
        _, reports = scheduled_map(_square, [1, 2, 3], workers=1,
                                   size_hints=[1.0, 3.0, 2.0])
        assert [r.index for r in reports] == [1, 2, 0]

    def test_serial_path_opens_no_socket(self, monkeypatch):
        def _no_sockets(*_args, **_kwargs):
            raise AssertionError("serial scheduled_map opened a socket")

        monkeypatch.setattr(socket, "socket", _no_sockets)
        results, reports = scheduled_map(_square, [1, 2, 3], workers=1)
        assert results == [1, 4, 9]
        assert len(reports) == 3

    def test_lambda_with_workers_raises(self):
        with pytest.raises(ValueError, match="module-level"):
            scheduled_map(lambda x: x + 1, [1, 2, 3], workers=2)

    def test_lambda_runs_serially(self):
        results, _ = scheduled_map(lambda x: x + 1, [1, 2, 3], workers=1)
        assert results == [2, 3, 4]

    def test_empty_items(self):
        assert scheduled_map(_square, [], workers=2) == ([], [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_unit_is_quarantined(self, workers):
        results, reports = scheduled_map(_reciprocal, [1, 0, 2],
                                         workers=workers, max_attempts=2)
        assert results == [1.0, None, 0.5]
        failed = [r for r in reports if r.status == "error"]
        assert [r.index for r in failed] == [1]
        assert failed[0].attempts == 2
        assert "ZeroDivisionError" in failed[0].error

    def test_unit_report_as_dict(self):
        report = UnitReport(index=2, size_hint=4.0, elapsed_s=0.5,
                            worker="pid9")
        record = report.as_dict()
        assert record == {"index": 2, "size_hint": 4.0,
                          "elapsed_s": 0.5, "worker": "pid9",
                          "status": "ok", "attempts": 1, "error": None}
        # Declaration order, as dataclasses.asdict gives it, and a copy.
        assert list(record) == [f.name for f in fields(UnitReport)]
        record["status"] = "error"
        assert report.status == "ok"
