"""End-to-end chaos soak smoke tests (small spec, real faults)."""

from __future__ import annotations

from repro.chaos import build_plan, run_chaos


class TestBuildPlan:
    def test_poison_and_kill_are_distinct_units(self):
        plan, poison, kill = build_plan(seed=0, warm_units=10)
        assert poison is not None and kill is not None
        assert poison != kill
        assert 0 <= poison < 10 and 0 <= kill < 10

    def test_seeded_plan_is_reproducible(self):
        first = build_plan(seed=4, warm_units=12)
        second = build_plan(seed=4, warm_units=12)
        assert first[0].specs == second[0].specs
        assert first[1:] == second[1:]

    def test_flags_prune_spec_families(self):
        plan, poison, kill = build_plan(seed=0, warm_units=10,
                                        poison=False, kill=False,
                                        wire=False, flaky_store=False)
        assert poison is None and kill is None
        assert plan.specs == ()


class TestSoak:
    def test_small_soak_server_up(self, tmp_path):
        report = run_chaos(seed=0, workers=2, workloads=("fir",),
                           ports=((4, 2),), ninstrs=(2,),
                           algorithms=("iterative",), n=8,
                           server="up", workdir=tmp_path)
        assert report.ok, report.notes
        assert report.rows_identical
        assert report.keys_identical
        assert report.failed_expected
        assert [u["index"] for u in report.failed_units] \
            == [report.poison_index]
        assert report.warm_units > 0

    def test_small_soak_server_restart(self, tmp_path):
        report = run_chaos(seed=1, workers=2, workloads=("fir",),
                           ports=((2, 1), (4, 2)), ninstrs=(2,),
                           algorithms=("iterative",), n=8,
                           server="restart", workdir=tmp_path)
        assert report.ok, report.notes
        assert report.rows_identical
        assert report.keys_identical
        assert report.server_events == ["stopped", "revived"]

    def test_one_group_soak_server_down(self, tmp_path):
        # The CI `down` step's grid: one workload, one port pair.  Its
        # store traffic is over in well under 0.15 s, so the server
        # event must follow the store's operation count, not the clock.
        report = run_chaos(seed=0, workers=2, workloads=("fir",),
                           ports=((4, 2),), server="down",
                           workdir=tmp_path)
        assert report.ok, report.notes
        assert report.server_events == ["stopped"]
        assert report.degraded_events >= 1

    def test_fault_free_soak_is_clean(self, tmp_path):
        report = run_chaos(seed=0, workers=2, workloads=("fir",),
                           ports=((4, 2),), ninstrs=(2,),
                           algorithms=("iterative",), n=8,
                           server="up", poison=False, kill=False,
                           wire=False, flaky_store=False,
                           workdir=tmp_path)
        assert report.ok, report.notes
        assert report.failed_units == []
        assert report.injected_store == 0
        assert report.injected_wire == 0
