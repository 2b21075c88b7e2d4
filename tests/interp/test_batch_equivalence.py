"""Differential suite: batched execution vs. fresh single runs.

:func:`repro.interp.run_batch` (DESIGN.md §12) promises per-lane
bit-identity: every lane of a batch — value, step count, profile,
trap message, the exact step index a budget expiry fires at — must
match running that lane alone on a fresh single-input interpreter,
and therefore (through the backend-equivalence obligation) the
reference walker.  This suite enforces it:

* every registry workload × {baseline, ISE-rewritten} × both
  backends (``walk``, ``compiled``);
* lane isolation: a lane that traps mid-batch, and a lane that
  exhausts its own step budget, must not poison the lanes after it;
* the verification hook (:func:`repro.interp.image_verifier`) and the
  ``driver_lanes`` overlay-trimming contract.
"""

from __future__ import annotations

import functools

import pytest

from repro.core import Constraints, SearchLimits, select_iterative
from repro.exec.rewrite import rewrite_module
from repro.frontend import compile_source
from repro.hwmodel import CostModel
from repro.interp import (
    BACKENDS,
    ExecutionLimitExceeded,
    Interpreter,
    Lane,
    Memory,
    TrapError,
    driver_lanes,
    image_verifier,
    run_batch,
)
from repro.pipeline import prepare_application
from repro.workloads.registry import WORKLOADS, get_workload

#: Small profiling sizes keep the whole-registry matrix quick.
RUN_SIZES = {
    "adpcm-decode": 48, "adpcm-encode": 48, "gsm": 24, "fir": 24,
    "crc32": 12, "g721": 16, "mixer": 24, "sha": 2,
}

LIMITS = SearchLimits(max_considered=200_000)

DEFAULT_BUDGET = 50_000_000


def _single(module, entry, lane, backend, max_steps=DEFAULT_BUDGET):
    """One lane on a fresh single-input interpreter — the reference a
    batched lane must match bit-for-bit.  Returns the same summary
    tuple :func:`_summary` extracts from a ``LaneResult``."""
    memory = Memory(module)
    for name, values in lane.arrays.items():
        memory.write_array(name, values)
    budget = lane.max_steps if lane.max_steps is not None else max_steps
    interp = Interpreter(module, memory=memory, backend=backend,
                         max_steps=budget)
    try:
        run = interp.run(entry, lane.args)
        return (run.value, run.steps, None, False, interp.profile)
    except TrapError as exc:
        return (None, interp._steps, str(exc), False, interp.profile)
    except ExecutionLimitExceeded as exc:
        return (None, interp._steps, str(exc), True, interp.profile)


def _summary(lane_result):
    """The bit-identity surface of one lane: value, steps, trap,
    budget-expiry flag and the full profile (counts, calls, steps)."""
    return (lane_result.value, lane_result.steps, lane_result.trap,
            lane_result.limit, lane_result.profile)


@functools.lru_cache(maxsize=None)
def _prepared(name, variant):
    """(module, entry) for one workload, baseline or ISE-rewritten —
    cached so the 7×2×3 matrix prepares each application once."""
    app = prepare_application(name, n=RUN_SIZES[name])
    if variant == "baseline":
        return app.module, app.entry
    model = CostModel()
    selection = select_iterative(
        app.dfgs, Constraints(nin=4, nout=2, ninstr=8), model, LIMITS)
    rewritten = rewrite_module(app.module, selection.cuts, model)
    return rewritten.module, app.entry


@pytest.mark.parametrize("variant", ["baseline", "rewritten"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_batch_equivalence(name, variant):
    """Every lane of every backend's batch matches a fresh walker run."""
    module, entry = _prepared(name, variant)
    workload = get_workload(name)
    n = RUN_SIZES[name]
    lanes = driver_lanes(module, workload.driver, n, 3)
    reference = _single(module, entry, lanes[0], "walk")
    assert reference[2] is None     # the workload itself must not trap
    for backend in BACKENDS:
        batch = run_batch(module, entry, lanes, backend=backend)
        assert batch.backend == backend
        assert batch.ok_count == len(lanes)
        for lane_result in batch.lanes:
            assert _summary(lane_result) == reference, (
                f"{name}/{variant} lane {lane_result.index} diverged "
                f"on {backend}")


# ----------------------------------------------------------------------
# Lane isolation: traps and budget expiries stay inside their lane.
# ----------------------------------------------------------------------
TRAP_SOURCE = """
int a[4];
int f(int x, int y) {
  int t = x * 2 + 1;
  a[0] = t;
  int q = t / y;
  a[1] = q;
  return q + t;
}
"""

LOOP_SOURCE = """
int a[4];
int f(int n) {
  int i;
  int s = 1;
  for (i = 0; i < n; i++) {
    s = s + i;
    a[0] = s;
    s = s * 2;
  }
  return s;
}
"""


class TestLaneIsolation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_batch_trap_does_not_poison_later_lanes(self, backend):
        module = compile_source(TRAP_SOURCE)
        lanes = [Lane(args=(10, 3)), Lane(args=(7, 0)),
                 Lane(args=(20, 5))]
        batch = run_batch(module, "f", lanes, backend=backend)
        for lane, result in zip(lanes, batch.lanes):
            assert _summary(result) == _single(module, "f", lane,
                                               backend)
        assert batch.lanes[1].trap is not None
        assert not batch.lanes[1].limit
        assert batch.lanes[0].ok and batch.lanes[2].ok
        assert batch.ok_count == 2
        # The trap message itself is walker-identical.
        assert (batch.lanes[1].trap
                == _single(module, "f", lanes[1], "walk")[2])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_exhausted_lane_is_isolated_and_exact(self, backend):
        module = compile_source(LOOP_SOURCE)
        lanes = [Lane(args=(4,)), Lane(args=(10**6,), max_steps=100),
                 Lane(args=(4,))]
        batch = run_batch(module, "f", lanes, backend=backend)
        for lane, result in zip(lanes, batch.lanes):
            assert _summary(result) == _single(module, "f", lane,
                                               backend)
        starved = batch.lanes[1]
        assert starved.limit and starved.trap is not None
        # The walker increments before checking, so expiry is observed
        # at budget + 1 — on every backend, batched or not.
        assert starved.steps == 101
        assert (_summary(starved)
                == _single(module, "f", lanes[1], "walk"))
        # Neighbours ran under the batch-wide budget, unaffected.
        assert batch.lanes[0].ok and batch.lanes[2].ok
        assert _summary(batch.lanes[0]) == _summary(batch.lanes[2])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_memory_image_resets_between_lanes(self, backend):
        # Lane 0 stores a[0] = 2*x+1; lane 1 overlays a different row
        # prefix; lane 2 must still see the pristine initial image.
        module = compile_source(TRAP_SOURCE)
        lanes = [Lane(args=(10, 1)), Lane(args=(10, 1),
                                          arrays={"a": [99, 98]}),
                 Lane(args=(10, 1))]
        batch = run_batch(module, "f", lanes, backend=backend,
                          keep_arrays=True)
        assert batch.ok_count == 3
        assert _summary(batch.lanes[0]) == _summary(batch.lanes[2])
        assert batch.lanes[0].arrays == batch.lanes[2].arrays
        # The overlay was visible only inside its own lane (a[1] is
        # written by the program either way; a[2:] only by the overlay
        # lane's initial image — which resets afterwards).
        assert batch.lanes[1].arrays["a"][2:] == [0, 0]


# ----------------------------------------------------------------------
# The verification hook and the driver_lanes contract.
# ----------------------------------------------------------------------
class TestVerificationHook:
    def test_image_verifier_accepts_bit_identical_lanes(self):
        module = compile_source(TRAP_SOURCE)
        lanes = [Lane(args=(10, 1))] * 3
        reference = run_batch(module, "f", lanes[:1],
                              keep_arrays=True)
        ref = reference.lanes[0]
        check = image_verifier(ref.value, ref.arrays)
        batch = run_batch(module, "f", lanes, verify=check)
        assert batch.verified_count == 3
        assert all(lane.verified is True for lane in batch.lanes)

    def test_image_verifier_rejects_divergence(self):
        module = compile_source(TRAP_SOURCE)
        batch = run_batch(module, "f", [Lane(args=(10, 1))],
                          verify=image_verifier(-1, {}))
        assert batch.lanes[0].verified is False
        assert batch.verified_count == 0

    def test_faulted_lanes_are_not_verified(self):
        module = compile_source(TRAP_SOURCE)
        batch = run_batch(module, "f", [Lane(args=(7, 0))],
                          verify=image_verifier(None, {}))
        assert batch.lanes[0].verified is None

    def test_driver_lanes_trims_overlays_to_changed_prefix(self):
        workload = get_workload("fir")
        app = prepare_application("fir", n=RUN_SIZES["fir"])
        lanes = driver_lanes(app.module, workload.driver,
                             RUN_SIZES["fir"], 5)
        assert len(lanes) == 5
        assert lanes[0] is lanes[4]     # one shared record
        template = Memory(app.module)
        for name, values in lanes[0].arrays.items():
            row = template.arrays[name]
            assert len(values) <= len(row)
            # Trimmed at the last changed element: the final overlay
            # word differs from the initial image by construction.
            assert values[-1] != row[len(values) - 1]
