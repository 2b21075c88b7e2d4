"""Section 8 area claim — "the area investment needed to implement the
special datapaths ... was within the area of a couple of
multiply-accumulators".

Regenerates the per-benchmark area bill of the selected datapaths (in
MAC-equivalent units) and asserts the same order of magnitude.
"""

from __future__ import annotations

import pytest

from repro.core import Constraints, SearchLimits, select_iterative
from repro.exec import rewrite_module
from repro.hwmodel import CostModel

from _bench_utils import report

MODEL = CostModel()
LIMITS = SearchLimits(max_considered=1_000_000)


@pytest.mark.parametrize("name", ["adpcm-decode", "adpcm-encode", "gsm"])
def bench_area_of_selected_datapaths(benchmark, paper_apps, name):
    app = paper_apps[name]
    cons = Constraints(nin=4, nout=2, ninstr=16)
    result = select_iterative(app.dfgs, cons, MODEL, LIMITS)
    assert result.cuts

    def build_all():
        return rewrite_module(app.module, result.cuts, MODEL).afus

    afus = benchmark(build_all)

    total = sum(a.area_mac for a in afus)
    largest = max(a.area_mac for a in afus)
    report("area", f"{name}: {len(afus)} AFUs, total area "
                   f"{total:.2f} MAC, largest {largest:.2f} MAC")
    # Paper: within "a couple" of MACs for the largest chosen graphs.
    assert largest < 3.0
    # And the whole extension budget stays small-ASIC sized.
    assert total < 8.0
