"""Machine-speed calibration of the benchmark's timings.

On a shared machine the same Python work runs up to 1.5x slower for
minutes at a time, and a CPU timer slows with it, so two runs of one
commit can disagree by more than any useful regression bound.  The
benchmark therefore runs a fixed pure-Python loop (it calls nothing of
the program under test, so no change to the program can move it)
between the calls that make up each timed operation, and reports the
operation normalised to the loop's speed::

    normalised_s = wall_s * REFERENCE_S / calibration_s

where ``calibration_s`` is the mean of the two loops around each call,
weighted by the call's wall time.  A normalised second is a wall second
on a machine that runs the loop in ``REFERENCE_S``.  Raw wall seconds
are kept in the result record beside the normalised ones.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from tracing import ROOT

#: Seconds the calibration loop takes on the reference machine.
REFERENCE_S = 0.015


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: int, left, right) -> None:
        self.op, self.left, self.right = op, left, right


def _build(depth: int, leaf: int):
    if depth == 0:
        return leaf
    return _Node(depth % 3, _build(depth - 1, 2 * leaf + 1),
                 _build(depth - 1, 3 * leaf + 2))


def _evaluate(node) -> int:
    if not isinstance(node, _Node):
        return node
    left, right = _evaluate(node.left), _evaluate(node.right)
    if node.op == 0:
        return (left + right) & 0xFFFFFFFF
    if node.op == 1:
        return left ^ right
    return (31 * left + right) & 0xFFFFFFFF


def calibrate() -> float:
    """Seconds one run of the fixed loop takes now: object allocation,
    attribute reads, recursion and dict updates, the operations the
    toolchain itself is made of."""
    start = time.perf_counter()
    tree = _build(12, 1)
    for _ in range(3):
        _evaluate(tree)
    counts: dict = {}
    for i in range(60000):
        key = (7 * i) & 4095
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class Clock:
    """Times operations of one repetition, calibrating around each."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.last = calibrate()

    @contextmanager
    def op(self, name: str, sample: dict):
        """Time one call of an operation: ``sample[name]`` adds up the
        wall seconds of its calls and ``sample["cal"][name]`` keeps the
        calibration seconds around them, weighted by call time, so an
        operation made of several calls is calibrated between each.
        Under a tracer each call is also a root span."""
        tracer = self.tracer
        index = tracer.begin(name, ROOT) if tracer is not None else None
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            if index is not None:
                tracer.end(index)
        after = calibrate()
        cal = sample.setdefault("cal", {})
        earlier = sample.get(name, 0.0)
        sample[name] = earlier + wall
        cal[name] = ((cal.get(name, 0.0) * earlier
                      + (self.last + after) / 2 * wall) / sample[name])
        self.last = after


def normalised(seconds: float, calibration: float) -> float:
    """Wall *seconds* at the reference machine's speed."""
    return seconds * REFERENCE_S / calibration
