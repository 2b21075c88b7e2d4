"""Differential testing: generated MiniC programs through the pipeline.

The seeded generator (:mod:`repro.fuzz.generator`, via the shared
``tests/strategies.py`` module) produces terminating, trap-free
programs in paper-relevant shapes; each is executed (a) unoptimised,
(b) with the cleanup pipeline, (c) with cleanup + if-conversion, and
(d) unrolled where applicable.  All variants must agree on the
returned value and the final global-array state.  A second property
drives whole programs through :func:`repro.fuzz.run_differential` —
the same oracle ``repro fuzz`` soaks, asserting bit-identity across
both backends, baseline vs rewritten modules and single vs
batched lanes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import strategies as sh
from repro.frontend import analyze, lower_program, parse
from repro.fuzz import SHAPES, generate_program, run_differential
from repro.interp import Interpreter, Memory
from repro.passes import optimize_module, unroll_loops


def run_variant(source: str, args, optimize: bool, if_convert: bool,
                unroll=None):
    program = parse(source)
    if unroll:
        unroll_loops(program, unroll)
    module = lower_program(program, analyze(program))
    if optimize:
        optimize_module(module, if_convert=if_convert)
    memory = Memory(module)
    interp = Interpreter(module, memory=memory, max_steps=2_000_000)
    value = interp.run("f", args).value
    return value, memory.arrays


@settings(max_examples=60, deadline=None)
@given(sh.programs(), sh.small_args, sh.small_args, sh.small_args)
def test_optimizations_preserve_semantics(program, a, b, c):
    args = [a, b, c]
    reference = run_variant(program.source, args, optimize=False,
                            if_convert=False)
    cleaned = run_variant(program.source, args, optimize=True,
                          if_convert=False)
    converted = run_variant(program.source, args, optimize=True,
                            if_convert=True)
    assert cleaned == reference
    assert converted == reference


@settings(max_examples=30, deadline=None)
@given(sh.programs(), st.integers(-20, 20))
def test_unrolling_preserves_semantics(program, a):
    args = [a, a + 1, a + 2]
    reference = run_variant(program.source, args, optimize=True,
                            if_convert=True)
    for factor in (2, 3):
        unrolled = run_variant(program.source, args, optimize=True,
                               if_convert=True, unroll=factor)
        assert unrolled == reference


@settings(max_examples=15, deadline=None)
@given(sh.seeds, st.sampled_from(SHAPES))
def test_full_differential_oracle(seed, shape):
    """The complete fuzz oracle holds on arbitrary (seed, shape):
    backends, rewrite and batch lanes all bit-identical."""
    report = run_differential(generate_program(seed, shape))
    assert report.ok, "\n".join(str(f) for f in report.failures)
