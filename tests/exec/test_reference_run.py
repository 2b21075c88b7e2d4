"""The baseline measurement and the batch reference read the profiling run.

``prepare_application`` keeps its profiling run's outcome on the
``Application``.  At the profiling size ``measure_baseline`` derives its
``CycleReport`` and memory image from it instead of executing the
program again, and ``measure_batch`` takes its reference image from it.
These tests hold the derived values to a fresh execution (exact floats,
every memory word), check that the derived path executes nothing, and
cover the execute-once branch: another size, and an application that
kept no run (hand-built, or pickled by an older store).
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro import WORKLOADS, Constraints, prepare_application
from repro.core import select_iterative
from repro.exec import measure_baseline, measure_batch, measure_selection
from repro.exec import speedup as speedup_mod
from repro.exec.cycles import run_with_cycles
from repro.hwmodel import CostModel
from repro.interp import (
    Memory,
    TrapError,
    driver_lanes,
    image_verifier,
    run_batch,
)
from repro.workloads import registry

NAMES = sorted(WORKLOADS)
BACKENDS = ("walk", "compiled")

#: Fractional software latencies: float summation order matters here.
FRACTIONAL = CostModel(sw_latency={
    op: cost * 1.1 + 1 / 7 for op, cost in CostModel().sw_latency.items()})

MODELS = {"default": CostModel(), "fractional": FRACTIONAL}

#: Fields of the kept profiling run; an older pickle has none of them.
KEPT = ("profile_n", "profile_value", "profile_image")


def _size(name: str) -> int:
    return min(24, WORKLOADS[name].default_n)


@pytest.fixture(scope="module")
def apps():
    """Prepared applications keyed by (workload, profiling backend)."""
    return {(name, backend): prepare_application(name, n=_size(name),
                                                 backend=backend)
            for name in NAMES for backend in BACKENDS}


@pytest.fixture
def run_count(monkeypatch):
    """Counts the program executions ``repro.exec.speedup`` starts."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return run_with_cycles(*args, **kwargs)

    monkeypatch.setattr(speedup_mod, "run_with_cycles", counting)
    return calls


def _fresh_run(app, model, n, backend):
    """Execute the baseline program again on a driver-filled image."""
    workload = WORKLOADS[app.name]
    memory = Memory(app.module)
    args = workload.driver(memory, n)
    report = run_with_cycles(app.module, app.entry, args, memory=memory,
                             model=model, backend=backend)
    return report, memory


def _snapshot(app):
    return {name: list(row) for name, row in app.profile_image.items()}


def _without_kept_run(app):
    """*app* as an older store pickled it: no kept-run fields at all."""
    old = copy.copy(app)
    for field in KEPT:
        del old.__dict__[field]
    return pickle.loads(pickle.dumps(old))


def _patch_verify(monkeypatch, name, verify):
    monkeypatch.setitem(registry.WORKLOADS, name, dataclasses.replace(
        registry.WORKLOADS[name], verify=verify))


def _failing_verify(memory, n):
    raise AssertionError("golden model rejects the image")


def _lane_records(batch):
    return [(lane.value, lane.steps, lane.trap, lane.verified,
             dict(lane.profile.counts)) for lane in batch.lanes]


# ---------------------------------------------------------------------------
# Derived-baseline oracle.


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", NAMES)
def test_derived_baseline_equals_fresh_run(apps, run_count, name, backend,
                                           model_name):
    app = apps[(name, backend)]
    model = MODELS[model_name]
    report, memory = measure_baseline(app, model, n=app.profile_n,
                                      backend=backend)
    assert run_count == []                      # nothing executed
    fresh, fresh_memory = _fresh_run(app, model, app.profile_n, backend)
    assert report == fresh
    assert repr(report.cycles) == repr(fresh.cycles)
    assert memory.arrays == fresh_memory.arrays


@pytest.mark.parametrize("backend", BACKENDS)
def test_other_size_executes_once(apps, run_count, backend):
    app = apps[("crc32", backend)]
    other = app.profile_n * 2
    report, memory = measure_baseline(app, FRACTIONAL, n=other,
                                      backend=backend)
    assert len(run_count) == 1
    fresh, fresh_memory = _fresh_run(app, FRACTIONAL, other, backend)
    assert report == fresh
    assert memory.arrays == fresh_memory.arrays


def test_baseline_memory_is_a_copy(apps):
    app = apps[("fir", "compiled")]
    before = _snapshot(app)
    _report, memory = measure_baseline(app, n=app.profile_n)
    for row in memory.arrays.values():
        row[:] = [7] * len(row)
    assert _snapshot(app) == before


# ---------------------------------------------------------------------------
# Batch reference.


def test_batch_golden_failure_is_not_identical(apps, monkeypatch):
    app = apps[("mixer", "compiled")]
    _patch_verify(monkeypatch, "mixer", _failing_verify)
    result = measure_batch(app, 2, n=app.profile_n)
    assert result.identical is False
    # The lanes still match the (unverified) reference image.
    assert result.baseline.verified_count == 2


def test_batch_checks_golden_model_without_prepare_verify(monkeypatch):
    app = prepare_application("gsm", n=_size("gsm"), verify=False)
    assert measure_batch(app, 1, n=app.profile_n).identical is True
    _patch_verify(monkeypatch, "gsm", _failing_verify)
    assert measure_batch(app, 1, n=app.profile_n).identical is False


def test_measurements_leave_the_kept_image_alone(apps):
    app = apps[("adpcm-decode", "compiled")]
    before = _snapshot(app)
    selection = select_iterative(
        app.dfgs, Constraints(nin=4, nout=2, ninstr=4), CostModel())
    for _ in range(2):
        assert measure_batch(app, 2, n=app.profile_n,
                             selection=selection).identical
        assert measure_selection(app, selection, n=app.profile_n).identical
    assert _snapshot(app) == before


@pytest.mark.parametrize("name", ["adpcm-encode", "g721", "sha"])
def test_batch_at_other_size_matches_reference_lane_protocol(apps, name):
    """At a size other than the profiling size the reference is executed
    once; the lanes come out as under a one-lane reference batch."""
    app = apps[(name, "compiled")]
    workload = WORKLOADS[name]
    other = max(1, app.profile_n // 2)
    selection = select_iterative(
        app.dfgs, Constraints(nin=4, nout=2, ninstr=4), CostModel())
    result = measure_batch(app, 3, n=other, selection=selection)

    lanes = driver_lanes(app.module, workload.driver, other, 3)
    reference = run_batch(
        app.module, app.entry, lanes[:1], keep_arrays=True,
        verify=lambda memory, lane: workload.verify(memory, other))
    ref = reference.lanes[0]
    check = image_verifier(ref.value, ref.arrays)
    baseline = run_batch(app.module, app.entry, lanes, verify=check)
    rewritten = run_batch(speedup_mod.rewrite_module(
        app.module, selection.cuts, CostModel()).module, app.entry, lanes,
        verify=check)
    assert ref.verified is True and result.identical is True
    assert _lane_records(result.baseline) == _lane_records(baseline)
    assert _lane_records(result.rewritten) == _lane_records(rewritten)


def test_batch_reference_fault_raises(apps, monkeypatch):
    app = apps[("fir", "compiled")]

    def trap(*args, **kwargs):
        raise TrapError("load x[9] out of bounds (size 1)")

    monkeypatch.setattr(speedup_mod, "run_with_cycles", trap)
    with pytest.raises(RuntimeError, match="reference lane .* faulted"):
        measure_batch(app, 1, n=app.profile_n + 1)


# ---------------------------------------------------------------------------
# Store compatibility: applications pickled without the kept run.


def test_app_without_kept_run_measures_through_execution(apps, run_count):
    app = apps[("adpcm-encode", "compiled")]
    old = _without_kept_run(app)
    assert all(getattr(old, field) is None for field in KEPT)
    selection = select_iterative(
        app.dfgs, Constraints(nin=4, nout=2, ninstr=4), CostModel())

    derived = measure_baseline(app, FRACTIONAL, n=app.profile_n)
    assert run_count == []
    executed = measure_baseline(old, FRACTIONAL, n=app.profile_n)
    assert len(run_count) == 1
    assert derived[0] == executed[0]
    assert derived[1].arrays == executed[1].arrays

    new_measured = measure_selection(app, selection, n=app.profile_n)
    old_measured = measure_selection(old, selection, n=app.profile_n)
    assert old_measured == new_measured
    assert old_measured.identical

    new_batch = measure_batch(app, 2, n=app.profile_n, selection=selection)
    old_batch = measure_batch(old, 2, n=app.profile_n, selection=selection)
    assert old_batch.identical and new_batch.identical
    assert _lane_records(old_batch.baseline) == _lane_records(
        new_batch.baseline)
    assert _lane_records(old_batch.rewritten) == _lane_records(
        new_batch.rewritten)
