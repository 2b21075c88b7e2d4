"""Integration tests: the full pipeline and the paper's headline shapes."""

from __future__ import annotations

import pytest

from repro import (
    Constraints,
    SearchLimits,
    estimated_speedup,
    find_best_cut,
    prepare_application,
    select_clubbing,
    select_iterative,
    select_maxmiso,
)
from repro.hwmodel import CostModel

MODEL = CostModel()


class TestPrepareApplication:
    def test_dfgs_have_positive_weights(self, adpcm_decode_app):
        assert adpcm_decode_app.dfgs
        assert all(d.weight > 0 for d in adpcm_decode_app.dfgs)

    def test_hot_dfg_is_loop_body(self, adpcm_decode_app):
        assert "for_body" in adpcm_decode_app.hot_dfg.name

    def test_describe_mentions_blocks(self, adpcm_decode_app):
        text = adpcm_decode_app.describe()
        assert "adpcm-decode" in text
        assert "for_body" in text

    def test_profile_scales_with_n(self):
        small = prepare_application("fir", n=16)
        large = prepare_application("fir", n=32)
        assert large.hot_dfg.weight > small.hot_dfg.weight

    def test_oversize_n_is_a_value_error(self):
        # sha's n counts 16-word blocks; its message buffer holds 64.
        with pytest.raises(ValueError, match=r"'sha': n=128 .*'msg'"):
            prepare_application("sha", n=128)


class TestPaperShapes:
    """Qualitative results the reproduction must preserve (Fig. 11)."""

    @pytest.fixture(scope="class")
    def apps(self, adpcm_decode_app, adpcm_encode_app, gsm_app):
        return {
            "adpcm-decode": adpcm_decode_app,
            "adpcm-encode": adpcm_encode_app,
            "gsm": gsm_app,
        }

    @pytest.mark.parametrize("nin,nout", [(2, 1), (4, 2)])
    def test_exact_dominates_baselines_everywhere(self, apps, nin, nout):
        cons = Constraints(nin=nin, nout=nout, ninstr=16)
        limits = SearchLimits(max_considered=500_000)
        for name, app in apps.items():
            iterative = select_iterative(app.dfgs, cons, MODEL, limits)
            clubbing = select_clubbing(app.dfgs, cons, MODEL)
            maxmiso = select_maxmiso(app.dfgs, cons, MODEL)
            assert iterative.total_merit >= clubbing.total_merit - 1e-9, name
            assert iterative.total_merit >= maxmiso.total_merit - 1e-9, name

    def test_speedup_grows_with_ports(self, adpcm_decode_app):
        limits = SearchLimits(max_considered=500_000)
        speedups = []
        for nin, nout in [(2, 1), (4, 2), (6, 3)]:
            cons = Constraints(nin=nin, nout=nout, ninstr=8)
            res = select_iterative(adpcm_decode_app.dfgs, cons, MODEL,
                                   limits)
            speedups.append(res.speedup)
        assert speedups[0] <= speedups[1] <= speedups[2] + 1e-9
        assert speedups[-1] > speedups[0]

    def test_maxmiso_flat_in_nout(self, apps):
        for name, app in apps.items():
            merits = [
                select_maxmiso(app.dfgs,
                               Constraints(nin=4, nout=nout, ninstr=16),
                               MODEL).total_merit
                for nout in (1, 2, 4)
            ]
            assert merits[0] == pytest.approx(merits[1])
            assert merits[0] == pytest.approx(merits[2])

    def test_adpcm_m1_found_at_two_inputs(self, adpcm_decode_app):
        """Paper Section 8(b): with Nin=2 MaxMISO misses the multiply
        cluster (it sits inside a >=3-input MaxMISO), while the exact
        algorithm still finds a profitable 2-input cut."""
        cons = Constraints(nin=2, nout=1, ninstr=1)
        exact = find_best_cut(adpcm_decode_app.hot_dfg,
                              Constraints(nin=2, nout=1), MODEL)
        maxmiso = select_maxmiso([adpcm_decode_app.hot_dfg], cons, MODEL)
        assert exact.cut is not None
        assert exact.cut.merit > maxmiso.total_merit

    def test_disconnected_cut_found_with_multiple_outputs(
            self, adpcm_decode_app):
        """Paper Section 8(c): with several outputs the identifier picks
        disconnected subgraphs (M2+M3-style)."""
        res = find_best_cut(adpcm_decode_app.hot_dfg,
                            Constraints(nin=4, nout=2), MODEL,
                            SearchLimits(max_considered=1_000_000))
        assert res.cut is not None
        assert not res.cut.is_connected()

    def test_speedups_in_plausible_range(self, apps):
        cons = Constraints(nin=4, nout=2, ninstr=16)
        limits = SearchLimits(max_considered=500_000)
        for name, app in apps.items():
            res = select_iterative(app.dfgs, cons, MODEL, limits)
            assert 1.0 < res.speedup < 10.0, name


class TestEstimationConsistency:
    def test_speedup_formula(self, gsm_app):
        cons = Constraints(nin=4, nout=2, ninstr=4)
        res = select_iterative(gsm_app.dfgs, cons, MODEL)
        assert res.speedup == pytest.approx(estimated_speedup(
            res.baseline_cycles, res.total_merit))
