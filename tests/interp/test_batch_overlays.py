"""Lane overlays in ``run_batch``: checked and wrapped once per
distinct :class:`Lane` object, restored by slice assignment, and
trapping exactly as :meth:`Memory.write_array` does."""

from __future__ import annotations

import pytest

from repro.frontend import compile_source
from repro.interp import Lane, Memory, TrapError, run_batch

SOURCE = """
int a[4];
int b[2];
int f() {
  int t = a[0] + a[1] + a[2] + a[3];
  a[0] = t;
  return t;
}
"""


@pytest.fixture(scope="module")
def module():
    return compile_source(SOURCE)


class TestOverlays:
    def test_shared_lane_object_reapplies_its_wrapped_overlay(self, module):
        shared = Lane(arrays={"a": [2**32 + 7, -(2**32) + 5]})
        other = Lane(arrays={"a": [1, 2, 3]})
        lanes = [shared, shared, other, shared]
        batch = run_batch(module, "f", lanes, keep_arrays=True)
        wrapped = Memory(module)
        wrapped.write_array("a", shared.arrays["a"])
        assert wrapped.arrays["a"][:2] == [7, 5]
        # Each run of the shared lane starts from the same image: the
        # program's own store to a[0] is reset, the overlay re-applied.
        values = [lane.value for lane in batch.lanes]
        assert values[0] == values[1] == values[3] == 12
        assert values[2] == 6
        assert batch.lanes[0].arrays == batch.lanes[3].arrays

    def test_too_long_overlay_traps_like_write_array(self, module):
        lane = Lane(arrays={"b": [1, 2, 3]})
        with pytest.raises(TrapError) as expected:
            Memory(module).write_array("b", lane.arrays["b"])
        with pytest.raises(TrapError) as got:
            run_batch(module, "f", [Lane(), lane])
        assert str(got.value) == str(expected.value)
        assert "write_array overflows 'b'" in str(got.value)

    def test_unknown_array_overlay_traps_like_write_array(self, module):
        with pytest.raises(TrapError,
                           match="write_array to unknown array 'nope'"):
            run_batch(module, "f", [Lane(arrays={"nope": [1]})])
