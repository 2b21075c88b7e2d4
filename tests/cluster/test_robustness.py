"""Robustness tests for the cluster fabric: quarantine, deadlines,
worker naming — the hardening half of the chaos PR."""

from __future__ import annotations

import time

from repro.chaos import FaultPlan, FaultSpec, env_plan
from repro.cluster import ClusterLeader, scheduled_map, worker_loop
from repro.cluster.worker import default_worker_name
from repro.explore import SweepSpec, run_sweep
from repro.store import ArtifactStore


def _echo(payload):
    return ("ran", payload)


def _explode(payload):
    if payload == "bad":
        raise RuntimeError("unit is poisoned")
    return ("ran", payload)


class TestWorkerNames:
    def test_default_names_are_unique_within_a_process(self):
        # The old scheme derived the name from id(object()), which the
        # allocator can reuse — two workers then alias in telemetry
        # and leader logs.  pid + counter cannot collide.
        names = {default_worker_name() for _ in range(100)}
        assert len(names) == 100

    def test_name_carries_the_pid(self):
        import os
        assert str(os.getpid()) in default_worker_name()


class TestPoisonQuarantine:
    def test_inline_poison_unit_is_quarantined(self):
        results, reports = scheduled_map(
            _explode, ["a", "bad", "b"], workers=1, max_attempts=2)
        assert results == [("ran", "a"), None, ("ran", "b")]
        failed = [r for r in reports if r.status == "error"]
        assert len(failed) == 1
        assert failed[0].index == 1
        assert failed[0].attempts == 2
        assert "unit is poisoned" in failed[0].error

    def test_worker_reports_error_and_keeps_serving(self):
        # A thread worker hits the poison unit, reports the failure,
        # and still drains the rest of the queue — the process-level
        # analogue is a worker that survives its own unit exceptions.
        leader = ClusterLeader(
            "tests.cluster.test_robustness:_explode",
            ["a", "bad", "b", "c"], max_attempts=2).start()
        try:
            done = worker_loop(leader.address, name="survivor")
            assert done == 3                  # successes only
            assert leader.wait(timeout=5)
            results, reports = leader.results()
            assert results == [("ran", "a"), None, ("ran", "b"),
                               ("ran", "c")]
            assert leader.failed().keys() == {1}
            assert "unit is poisoned" in leader.failed()[1]
        finally:
            leader.shutdown()

    def test_env_poison_plan_reaches_inline_units(self):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="unit", kind="poison", ops=("1",)),))
        with env_plan(plan):
            results, reports = scheduled_map(
                _echo, ["a", "b", "c"], workers=1, max_attempts=2)
        assert results == [("ran", "a"), None, ("ran", "c")]
        assert [r.index for r in reports if r.status == "error"] == [1]

    def test_late_success_supersedes_failure(self):
        leader = ClusterLeader(
            "tests.cluster.test_robustness:_echo", ["x"],
            max_attempts=1).start()
        try:
            leader.take("w1")
            leader.fail(0, "flaky once", 0.1, "w1")
            assert leader.failed() == {0: "flaky once"}
            leader.complete(0, ("ran", "x"), 0.2, "w1")
            assert leader.failed() == {}
            results, reports = leader.results()
            assert results == [("ran", "x")]
            assert [r.status for r in reports] == ["ok"]
        finally:
            leader.shutdown()


class TestDeadlines:
    def test_unit_deadline_requeues_a_hung_unit(self):
        leader = ClusterLeader(
            "tests.cluster.test_robustness:_echo", ["a"],
            max_attempts=3, unit_deadline=0.05).start()
        try:
            status, index, _payload = leader.take("hung-worker")
            assert status == "unit"
            time.sleep(0.1)
            assert leader.expire_deadlines() == 1
            # The unit is pending again for the next puller.
            status, index, _payload = leader.take("rescuer")
            assert (status, index) == ("unit", 0)
            leader.complete(0, ("ran", "a"), 0.0, "rescuer")
            assert leader.wait(timeout=1)
        finally:
            leader.shutdown()

    def test_unit_deadline_quarantines_at_the_attempts_cap(self):
        leader = ClusterLeader(
            "tests.cluster.test_robustness:_echo", ["a"],
            max_attempts=1, unit_deadline=0.05).start()
        try:
            leader.take("hung-worker")
            time.sleep(0.1)
            leader.expire_deadlines()
            assert leader.wait(timeout=1)
            results, reports = leader.results()
            assert results == [None]
            assert reports[0].status == "error"
            assert "deadline" in reports[0].error
        finally:
            leader.shutdown()

    def test_overall_deadline_abandons_unpulled_units(self):
        # A listening leader with no workers: nothing ever pulls, so
        # the overall deadline must end the run with structured
        # failures instead of hanging.
        results, reports = scheduled_map(
            _echo, ["a", "b"], workers=1, listen="127.0.0.1:0",
            poll_s=0.02, deadline=0.2)
        assert results == [None, None]
        assert all(r.status == "error" for r in reports)
        assert all("deadline" in r.error for r in reports)


class TestSweepFailedUnits:
    def test_failed_units_reach_the_outcome_and_rows_survive(
            self, tmp_path):
        # A poison plan quarantines one warm unit; the sweep still
        # completes and the evaluation phase recomputes the missing
        # piece inline, so the rows match a fault-free run exactly.
        spec = SweepSpec(workloads=("fir",), ports=((4, 2),),
                         ninstrs=(2,), algorithms=("iterative",),
                         limit=100_000, n=8)
        clean_store = ArtifactStore(
            f"sqlite:{tmp_path / 'clean.sqlite'}")
        clean = run_sweep(spec, store=clean_store, workers=1)
        assert clean.warm_units > 0

        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site="unit", kind="poison", ops=("0",)),))
        store = ArtifactStore(f"sqlite:{tmp_path / 'chaos.sqlite'}")
        with env_plan(plan):
            outcome = run_sweep(spec, store=store, workers=2,
                                unit_attempts=2)
        assert [u["index"] for u in outcome.failed_units] == [0]
        assert outcome.failed_units[0]["status"] == "error"
        assert outcome.failed_units[0]["attempts"] == 2

        def _strip(rows):
            return [{k: v for k, v in row.items()
                     if k != "elapsed_s"} for row in rows]
        assert _strip(outcome.rows) == _strip(clean.rows)
        # Key-set identity too: the recompute wrote through.
        assert sorted(store.backend.keys()) \
            == sorted(clean_store.backend.keys())
