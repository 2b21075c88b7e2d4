"""Batched execution: one compiled workload over N input records.

The single-input path (:func:`repro.interp.interpreter.execute`) pays,
for *every* input: a fresh :class:`~repro.interp.memory.Memory` (one
list per global array), a driver run to fill it, a fresh
:class:`~repro.interp.interpreter.Interpreter` and — first call per
function — a dispatch-table build, which hashes every basic block to
key the code memo.  At serving scale those costs dwarf the compiled
loop itself.  :func:`run_batch` hoists all of it out of the input loop:

* **one** interpreter executes every lane, so dispatch tables (and the
  function closures behind them) are built once per function, not once
  per input;
* **one** memory image is reset in place between lanes — each row is
  restored from a precomputed template with a slice assignment, then
  the lane's overlay rows are written on top, also by slice assignment
  (checked and 32-bit wrapped once per distinct :class:`Lane` object)
  — instead of rebuilding the dict-of-lists per input;
* per-lane state stays **isolated**: the step counter restarts at zero
  with the lane's own budget, each lane gets a fresh
  :class:`~repro.interp.profile.ProfileData`, and a lane that traps or
  exhausts its budget is recorded in its :class:`LaneResult` without
  poisoning the lanes after it.

Lane semantics are walker-exact by construction: a batch is
bit-identical — per lane: value, steps, profile, trap message — to
running each lane on a fresh single-input interpreter with the same
backend, and therefore (through the backend-equivalence obligation) to
the reference walker.  ``tests/interp/test_batch_equivalence.py``
enforces this across every workload, backend and rewritten module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.function import Module
from ..ir.opcodes import Opcode
from ..ir.values import wrap32
from .interpreter import ExecutionLimitExceeded, Interpreter
from .memory import Memory, TrapError
from .profile import ProfileData

__all__ = ["BatchResult", "Lane", "LaneResult", "driver_lanes",
           "image_verifier", "run_batch"]


@dataclass(frozen=True)
class Lane:
    """One input record of a batch.

    Attributes:
        args: argument values for the entry function.
        arrays: overlay written on top of the module's initial memory
            image before the lane runs — array name to the values
            stored from index 0 (a *partial* row is fine; untouched
            suffixes keep their initial values).
        max_steps: per-lane step budget override; ``None`` uses the
            batch-wide budget.
    """

    args: Tuple[int, ...] = ()
    arrays: Mapping[str, Sequence[int]] = field(default_factory=dict)
    max_steps: Optional[int] = None


@dataclass
class LaneResult:
    """Outcome of one lane: the single-input result, isolated.

    ``trap`` carries the walker-identical trap message when the lane
    faulted (``limit`` distinguishes a step-budget expiry from a
    semantic trap); ``steps`` is exact in every case — on a fault it is
    the step index the exception fired at.  ``verified`` is ``None``
    when no verifier ran (no verifier given, or the lane faulted),
    else the verifier's verdict.  ``arrays`` holds the lane's final
    memory image only when the batch was run with ``keep_arrays``.
    """

    index: int
    value: Optional[int] = None
    steps: int = 0
    trap: Optional[str] = None
    limit: bool = False
    profile: ProfileData = field(default_factory=ProfileData)
    verified: Optional[bool] = None
    arrays: Optional[Dict[str, List[int]]] = None

    @property
    def ok(self) -> bool:
        """True when the lane completed without trap or budget expiry."""
        return self.trap is None


@dataclass
class BatchResult:
    """All lane results of one :func:`run_batch` call, in lane order."""

    entry: str
    backend: str
    lanes: List[LaneResult] = field(default_factory=list)

    @property
    def ok_count(self) -> int:
        """How many lanes completed without a trap or budget expiry."""
        return sum(1 for lane in self.lanes if lane.ok)

    @property
    def verified_count(self) -> int:
        """How many lanes a verifier ran on and accepted."""
        return sum(1 for lane in self.lanes if lane.verified)

    @property
    def total_steps(self) -> int:
        """Steps executed across all lanes (faulted lanes included)."""
        return sum(lane.steps for lane in self.lanes)


def run_batch(module: Module, entry: str, lanes: Sequence[Lane],
              backend: Optional[str] = None,
              max_steps: int = 50_000_000,
              verify: Optional[Callable[[Memory, LaneResult], None]] = None,
              keep_arrays: bool = False) -> BatchResult:
    """Execute ``entry`` over every lane with hoisted setup (module doc).

    Args:
        module: the program to execute.
        entry: function every lane calls.
        lanes: the input records, executed in order.
        backend: execution backend (``None`` defers to
            ``$REPRO_BACKEND``, default compiled).
        max_steps: step budget per lane unless the lane overrides it.
        verify: optional check called with the memory image and the
            lane's result while the image still holds that lane's
            final state; an :class:`AssertionError` marks the lane
            ``verified=False``, any other outcome ``True``.  Faulted
            lanes are not verified.
        keep_arrays: copy each lane's final memory image into its
            result (meant for small differential batches, not for
            serving-scale runs).

    Returns:
        A :class:`BatchResult` with one :class:`LaneResult` per lane.
    """
    memory = Memory(module)
    arrays = memory.arrays
    # Only rows a STORE can reach — or an overlay writes — ever change;
    # resetting just those keeps the per-lane fixed cost proportional
    # to the mutable working set, not the whole memory image.
    mutable = _stored_arrays(module)
    for lane in lanes:
        mutable.update(lane.arrays.keys())
    resets = [(arrays[name], list(arrays[name]))
              for name in sorted(mutable) if name in arrays]
    interp = Interpreter(module, memory=memory, max_steps=max_steps,
                         backend=backend)
    result = BatchResult(entry=entry, backend=interp.backend)
    # Keyed on the Lane object (which the entry pins): driver_lanes
    # repeats one lane, so its overlay is checked and wrapped once.
    overlays: Dict[int, Tuple[Lane, list]] = {}
    for index, lane in enumerate(lanes):
        for row, init in resets:
            row[:] = init
        pinned = overlays.get(id(lane))
        if pinned is None:
            pinned = overlays[id(lane)] = (lane, _overlay_rows(memory, lane))
        for row, values in pinned[1]:
            row[:len(values)] = values
        interp._steps = 0
        interp.max_steps = (lane.max_steps if lane.max_steps is not None
                            else max_steps)
        profile = ProfileData()
        interp.profile = profile
        lane_result = LaneResult(index=index, profile=profile)
        try:
            run = interp.run(entry, lane.args)
            lane_result.value = run.value
            lane_result.steps = run.steps
        except TrapError as exc:
            lane_result.trap = str(exc)
            lane_result.steps = interp._steps
        except ExecutionLimitExceeded as exc:
            lane_result.trap = str(exc)
            lane_result.limit = True
            lane_result.steps = interp._steps
        if verify is not None and lane_result.ok:
            try:
                verify(memory, lane_result)
            except AssertionError:
                lane_result.verified = False
            else:
                lane_result.verified = True
        if keep_arrays:
            lane_result.arrays = {name: list(row)
                                  for name, row in arrays.items()}
        result.lanes.append(lane_result)
    return result


def _overlay_rows(memory: Memory, lane: Lane
                  ) -> List[Tuple[List[int], List[int]]]:
    """*lane*'s overlay as ``(row, wrapped values)`` pairs, checked as
    :meth:`Memory.write_array` checks it (an unknown array or a too
    long overlay traps with its text).  A same-length slice assignment
    then restores each row without resizing it."""
    overlay = []
    for name, values in lane.arrays.items():
        row = memory._row(name, "write_array to")
        if len(values) > len(row):
            raise TrapError(f"write_array overflows {name!r}")
        overlay.append((row, [wrap32(value) for value in values]))
    return overlay


def _stored_arrays(module: Module) -> set:
    """Names of every global array some ``STORE`` can write.

    Static over-approximation of the mutable memory rows: MiniC has no
    pointers and AFUs are pure, so a row no STORE names (and no lane
    overlay touches) holds its initial values for the whole batch.
    """
    names: set = set()
    for func in module.functions.values():
        for block in func.blocks:
            for insn in block.instructions:
                if insn.opcode is Opcode.STORE:
                    names.add(insn.array)
    return names


def image_verifier(expected_value: Optional[int],
                   expected_arrays: Mapping[str, Sequence[int]],
                   ) -> Callable[[Memory, LaneResult], None]:
    """Per-lane bit-identity check against one golden lane's final state.

    The returned callable plugs into :func:`run_batch`'s ``verify``
    hook: it asserts the lane's return value and the *entire* memory
    image match the expected state word-for-word.  ``measure_batch``
    takes the expected state from ``measure_baseline``'s kept
    profiling run, checks it against the workload's golden model, and
    holds every lane to it (``repro run --inputs`` and the batch
    benchmark take a golden-verified one-lane ``keep_arrays=True``
    batch instead) — the comparison is two C-speed equality checks per
    lane, cheap enough to keep inside the timed loop.
    """
    def check(memory: Memory, lane: LaneResult) -> None:
        assert lane.value == expected_value
        assert memory.arrays == expected_arrays
    return check


def driver_lanes(module: Module,
                 driver: Callable[[Memory, int], Sequence[int]],
                 n: int, count: int) -> List[Lane]:
    """Materialise *count* identical lanes from one driver run.

    The driver executes **once** against a scratch memory image; the
    rows it touched become the lanes' shared overlay, trimmed to the
    prefix up to the last element the driver actually changed (rows —
    and suffixes — left at their initial values are omitted: the batch
    loop's template reset already restores those, and writing a full
    2048-element row per lane would swamp a small workload's own run
    time).  This models the serving-scale shape — many requests over
    one prepared workload — without paying the driver per input.
    """
    scratch = Memory(module)
    args = tuple(driver(scratch, n))
    lane = Lane(args=args, arrays=scratch.changed_rows(module))
    return [lane] * count
