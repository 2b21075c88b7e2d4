"""Issuing cuts as single instructions: the rewritten block's schedule.

A selected cut becomes one custom instruction spliced into its block
(:func:`repro.exec.rewrite_module`); the fused-schedule test
(:func:`repro.analysis.verifier.check_fused_schedule`, ``V306``) decides
whether the block can still be ordered around it.  These tests hold the
rewritten block to the schedule properties: no cuts changes nothing,
every producer precedes its consumers, a whole-chain cut occupies one
issue slot, and cuts may not share a node.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.verifier import check_fused_schedule
from repro.core.cut import evaluate_cut
from repro.exec import RewriteError, rewrite_module
from repro.hwmodel import CostModel
from repro.interp import Interpreter, Memory
from repro.ir.dfg import function_dfgs
from repro.ir.opcodes import Opcode
from repro.ir.printer import parse_module

MODEL = CostModel()

BINARY_OPS = ("add", "sub", "mul", "and", "or", "xor")


def _dfg_of(module):
    [dfg] = [d for d in function_dfgs(module.function("f")) if d.n >= 1]
    return dfg


def _body(module):
    return module.function("f").entry.instructions


def _run_both(module, rewritten, args):
    base_mem, ise_mem = Memory(module), Memory(rewritten.module)
    base = Interpreter(module, memory=base_mem).run("f", args)
    ise = Interpreter(rewritten.module, memory=ise_mem).run("f", args)
    assert base.value == ise.value
    assert base_mem.arrays == ise_mem.arrays


def _random_block(n: int, rng: random.Random) -> str:
    """A straight-line function of *n* random binary operations, each
    reading two earlier values; every value is stored so all of them
    stay live."""
    values = ["%a", "%b"]
    lines = []
    for k in range(n):
        lhs, rhs = rng.choice(values), rng.choice(values)
        lines.append(f"  %v{k} = {rng.choice(BINARY_OPS)} {lhs}, {rhs}")
        values.append(f"%v{k}")
    lines += [f"  store out[{k}] = %v{k}" for k in range(n)]
    lines.append(f"  ret %v{n - 1}")
    return (f"global out[{n}]\n\nfunc f(a, b):\nentry:\n"
            + "\n".join(lines) + "\n")


class TestSchedule:
    def test_empty_cut_list(self):
        module = parse_module("""
global out[1]

func f(a, b):
entry:
  %t0 = add %a, %b
  %t1 = mul %t0, %a
  store out[0] = %t1
  ret %t1
""")
        body = _body(module)
        assert check_fused_schedule(body, []) is None
        rewritten = rewrite_module(module, [], MODEL)
        assert rewritten.num_instructions == 0
        assert rewritten.rewritten_blocks == 0
        assert [str(i) for i in _body(rewritten.module)] == \
            [str(i) for i in body]

    def test_respects_dependences(self):
        rng = random.Random(1)
        module = parse_module(_random_block(10, rng))
        dfg = _dfg_of(module)
        legal = [i for i in range(dfg.n) if not dfg.nodes[i].forbidden]
        cuts = []
        while len(cuts) < 8:
            members = {i for i in legal if rng.random() < 0.4}
            if members and dfg.is_convex(members):
                cuts.append(evaluate_cut(dfg, members, MODEL))
        for cut in cuts:
            rewritten = rewrite_module(module, [cut], MODEL)
            assert rewritten.num_instructions == 1
            defined = {"a", "b"}
            for insn in _body(rewritten.module):
                assert set(insn.uses()) <= defined, str(insn)
                defined.update(insn.defs())
            _run_both(module, rewritten, (5, -3))

    def test_cut_becomes_one_slot(self):
        module = parse_module("""
global out[1]

func f(a, b):
entry:
  %t0 = mul %a, %b
  %t1 = add %t0, %a
  %t2 = xor %t1, %b
  ret %t2
""")
        dfg = _dfg_of(module)
        chain = [n.index for n in dfg.nodes]
        assert check_fused_schedule(_body(module), [{0, 1, 2}]) is None
        rewritten = rewrite_module(module, [evaluate_cut(dfg, chain, MODEL)],
                                   MODEL)
        body = _body(rewritten.module)
        ops = [i.opcode for i in body if not i.is_terminator]
        assert ops == [Opcode.ISE]
        _run_both(module, rewritten, (6, 7))

    def test_overlapping_cuts_rejected(self):
        module = parse_module("""
global out[1]

func f(a, b):
entry:
  %t0 = mul %a, %b
  %t1 = add %t0, %a
  ret %t1
""")
        dfg = _dfg_of(module)
        both = evaluate_cut(dfg, range(dfg.n), MODEL)
        one = evaluate_cut(dfg, [0], MODEL)
        with pytest.raises(RewriteError, match="overlap"):
            rewrite_module(module, [both, one], MODEL)
