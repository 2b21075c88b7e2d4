"""Cycle counts of programs that execute their custom instructions.

The rewritten program runs in the interpreter through its fused units
and is charged by :func:`repro.exec.run_with_cycles`; these tests check
the measured baseline and specialised cycle counts on adpcm-decode
(profiled at n=64).
"""

from __future__ import annotations

import pytest

from repro.core import Constraints, select_iterative
from repro.core.selection import make_result
from repro.exec import measure_baseline, measure_selection
from repro.hwmodel import CostModel

MODEL = CostModel()

CONS = Constraints(nin=4, nout=2, ninstr=4)


def measure(app, selection, n):
    measured = measure_selection(app, selection, MODEL, n=n)
    assert measured.identical
    return measured


class TestBaseline:
    def test_no_cuts_means_no_speedup(self, adpcm_decode_app):
        empty = make_result("Empty", CONS, [], adpcm_decode_app.dfgs, MODEL)
        measured = measure(adpcm_decode_app, empty, 64)
        assert measured.baseline_cycles == measured.ise_cycles
        assert measured.speedup == pytest.approx(1.0)

    def test_baseline_scales_with_input(self, adpcm_decode_app):
        small, _ = measure_baseline(adpcm_decode_app, MODEL, 32)
        large, _ = measure_baseline(adpcm_decode_app, MODEL, 64)
        assert large.cycles > small.cycles


class TestWithCuts:
    def test_cuts_reduce_cycles(self, adpcm_decode_app):
        sel = select_iterative(adpcm_decode_app.dfgs, CONS, MODEL)
        measured = measure(adpcm_decode_app, sel, 64)
        assert measured.ise_cycles < measured.baseline_cycles
        assert measured.speedup > 1.2

    def test_dynamic_matches_static_on_profiled_blocks(
            self, adpcm_decode_app):
        """On the same input as profiling, the measured saved cycles
        equal the selection's total merit exactly (the static model *is*
        profile x per-block cost)."""
        sel = select_iterative(adpcm_decode_app.dfgs, CONS, MODEL)
        measured = measure(adpcm_decode_app, sel, 64)
        saved = measured.baseline_cycles - measured.ise_cycles
        assert saved == pytest.approx(sel.total_merit)

    def test_speedup_generalizes_to_other_inputs(self, adpcm_decode_app):
        sel = select_iterative(adpcm_decode_app.dfgs, CONS, MODEL)
        measured = measure(adpcm_decode_app, sel, 128)   # 2x profile size
        assert measured.speedup > 1.2
