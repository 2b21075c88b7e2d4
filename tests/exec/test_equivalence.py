"""Golden-model equivalence of ISE-rewritten programs.

The acceptance property of the execution layer: for every bundled
workload and a spread of sweep points (port budgets x selection
algorithms), the rewritten program's outputs — return value, every
memory word, and the workload's independent golden model — are
bit-identical to the unmodified interpreter, and the dynamically
measured cycle savings equal the selection's static merit exactly
(profiling input == measurement input).
"""

from __future__ import annotations

import pytest

from repro import WORKLOADS, Constraints, prepare_application
from repro.core import SearchLimits, select_clubbing, select_iterative
from repro.exec import measure_selection
from repro.hwmodel import CostModel, uniform_cost_model

#: Small-but-nontrivial run size shared by profiling and measurement.
N = 48

LIMITS = SearchLimits(max_considered=60_000)

MODEL = CostModel()


@pytest.fixture(scope="module")
def apps():
    """One prepared application per workload (expensive; share them)."""
    return {name: prepare_application(name, n=N)
            for name in sorted(WORKLOADS)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("nin,nout", [(2, 1), (4, 2)])
def test_iterative_rewrite_is_bit_identical(apps, name, nin, nout):
    app = apps[name]
    constraints = Constraints(nin=nin, nout=nout, ninstr=16)
    result = select_iterative(app.dfgs, constraints, MODEL, LIMITS)
    measured = measure_selection(app, result, MODEL, n=N)
    assert measured.identical, (
        f"{name} @ {nin}x{nout}: rewritten program diverged")
    # Same input as profiling => measured savings equal static merit.
    saved = measured.baseline_cycles - measured.ise_cycles
    assert saved == pytest.approx(result.total_merit)
    if result.cuts and not measured.skipped_cuts:
        assert measured.speedup > 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clubbing_rewrite_is_bit_identical(apps, name):
    app = apps[name]
    constraints = Constraints(nin=4, nout=2, ninstr=16)
    result = select_clubbing(app.dfgs, constraints, MODEL)
    measured = measure_selection(app, result, MODEL, n=N)
    assert measured.identical
    saved = measured.baseline_cycles - measured.ise_cycles
    assert saved == pytest.approx(result.total_merit)


def test_uniform_model_equivalence(apps):
    """Cost-model ablation changes cycle numbers, never program output."""
    model = uniform_cost_model()
    app = apps["gsm"]
    constraints = Constraints(nin=3, nout=2, ninstr=8)
    result = select_iterative(app.dfgs, constraints, model, LIMITS)
    measured = measure_selection(app, result, model, n=N)
    assert measured.identical
    saved = measured.baseline_cycles - measured.ise_cycles
    assert saved == pytest.approx(result.total_merit)


def test_measurement_generalises_to_other_input_sizes(apps):
    """Measuring on a different n than the profile still runs bit-exact
    and still speeds up (the speedup may differ — that is the
    experiment's point); the baseline grows with n."""
    app = apps["crc32"]
    constraints = Constraints(nin=4, nout=2, ninstr=8)
    result = select_iterative(app.dfgs, constraints, MODEL, LIMITS)
    baselines = []
    for other_n in (16, 96):
        measured = measure_selection(app, result, MODEL, n=other_n)
        assert measured.identical
        assert measured.baseline_cycles > 0
        assert measured.speedup > 1.2
        baselines.append(measured.baseline_cycles)
    assert baselines[0] < baselines[1]      # baseline cycles grow with n


def test_more_instructions_never_slower(apps):
    """Measured speedup is non-decreasing in Ninstr."""
    app = apps["gsm"]
    speedups = []
    for ninstr in (1, 2, 4):
        constraints = Constraints(nin=4, nout=2, ninstr=ninstr)
        result = select_iterative(app.dfgs, constraints, MODEL, LIMITS)
        measured = measure_selection(app, result, MODEL, n=N)
        assert measured.identical
        speedups.append(measured.speedup)
    assert speedups == sorted(speedups)


def test_empty_selection_is_identity(apps):
    """No cuts: the rewrite degenerates to a clone with speedup 1.0."""
    from repro.core.selection import make_result

    app = apps["fir"]
    constraints = Constraints(nin=1, nout=1, ninstr=1)
    result = make_result("Empty", constraints, [], app.dfgs, MODEL)
    measured = measure_selection(app, result, MODEL, n=N)
    assert measured.identical
    assert measured.speedup == pytest.approx(1.0)
    assert measured.num_instructions == 0
