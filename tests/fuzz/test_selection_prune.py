"""The oracle's ``selection-prune`` stage: a completed budgeted selection
(the paper's tree walk) and the default pruned selection must pick the
same cuts."""

from __future__ import annotations

from repro.fuzz import PHASE_OF_STAGE, generate_program, run_differential
from repro.fuzz import oracle


def test_stage_belongs_to_the_selection_phase():
    assert PHASE_OF_STAGE["selection-prune"] == PHASE_OF_STAGE["selection"]


def test_healthy_programs_agree():
    for shape in ("portlimit", "mixed"):
        for seed in range(3):
            report = run_differential(generate_program(seed, shape),
                                      phases=2)
            assert report.ok, report.failures


def test_a_diverging_pruned_search_is_caught(monkeypatch):
    real = oracle.select_iterative

    def drop_last_unbudgeted_cut(dfgs, constraints, model, limits):
        result = real(dfgs, constraints, model, limits)
        if limits is None:
            result.cuts = result.cuts[:-1]
        return result

    monkeypatch.setattr(oracle, "select_iterative",
                        drop_last_unbudgeted_cut)
    report = run_differential(generate_program(0, "mixed"), phases=2)
    assert report.cuts > 0
    assert [f.stage for f in report.failures] == ["selection-prune"]
