"""Differential suite for compiled loops and inline memory access.

A function's closure runs each natural loop as ``while True:``, and
``LOAD``/``STORE`` index the bound memory rows inline
(``repro.interp.compile``).  Every test here
runs hand-built IR on both backends and compares value, step count,
memory, profile counts and calls, and trap or budget text:

* budget sweeps over every step index of loops with a mid-body side
  exit (a register defined after the exit is read after the loop), a
  one-block self-loop (also one whose exit block has no other
  predecessor), a back edge on one side of a ``BR`` and a ``CALL`` in
  the body;
* out-of-bounds and negative indices at a later iteration, and an
  array the memory image does not have.
"""

from __future__ import annotations

import pytest

from repro.analysis import NaturalLoops
from repro.interp import ExecutionLimitExceeded, Interpreter, Memory, TrapError
from repro.interp.compile import (
    build_function_table,
    clear_code_memo,
    code_memo_stats,
    compile_region,
)
from repro.ir.function import Function, GlobalArray, Module
from repro.ir.instructions import (
    binop,
    br,
    call,
    copy_reg,
    jmp,
    load,
    ret,
    store,
)
from repro.ir.opcodes import Opcode
from repro.ir.values import Const, Reg

R, C = Reg, Const


def _module(blocks, params=("n",), extra=(), arrays=(("a", 8),)):
    """A module whose function ``f(*params)`` has *blocks* (label ->
    instructions, the first one the entry), plus *extra* functions."""
    module = Module("m")
    for name, size in arrays:
        module.add_global(GlobalArray(name, size, range(1, size + 1)))
    func = Function("f", params=list(params))
    for label, insns in blocks.items():
        block = func.add_block(label)
        for insn in insns:
            block.append(insn)
    module.add_function(func)
    for other in extra:
        module.add_function(other)
    return module


def _enter():
    """The tail of an entry block into a one-block ``loop``: ``done``
    gets two predecessors, so ``loop`` is a loop unit of its own."""
    return [binop(Opcode.SLT, "c", C(0), R("n")),
            br(R("c"), "loop", "done")]


def _outcome(module, args, backend, max_steps=10**6, poke=()):
    memory = Memory(module)
    for array, index, value in poke:
        memory.arrays[array][index] = value
    interp = Interpreter(module, memory=memory, max_steps=max_steps,
                         backend=backend)
    try:
        result = ("ok", interp.run("f", args).value)
    except TrapError as exc:
        result = ("trap", str(exc))
    except ExecutionLimitExceeded as exc:
        result = ("limit", str(exc))
    profile = interp.profile
    return result + (interp._steps, memory.arrays, dict(profile.counts),
                     dict(profile.calls))


def _same(module, args, max_steps=10**6, poke=()):
    walk = _outcome(module, args, "walk", max_steps, poke)
    comp = _outcome(module, args, "compiled", max_steps, poke)
    assert comp == walk, f"max_steps={max_steps}"
    return walk


def _sweep_budget(module, args):
    """Compare the backends at every budget up to one past the run."""
    total = _same(module, args)[2]
    for max_steps in range(1, total + 2):
        _same(module, args, max_steps)
    return total


def _loop_units(module):
    """Headers of the loops f's closure iterates in place: one
    ``while True:`` per natural loop."""
    func = module.functions["f"]
    code = compile_region(func.blocks, params=func.params)
    headers = sorted(NaturalLoops(func).body)
    assert code.source.count("while True:") == len(headers)
    return headers


def _mid_exit_loop():
    """``head -> body -> latch -> head``: the body leaves early to
    ``early`` once ``s`` passes 40, and ``t`` — read by both exits —
    is defined in the latch, after that side exit."""
    return _module({
        "entry": [copy_reg("i", C(0)), copy_reg("s", C(0)),
                  copy_reg("t", C(0)), jmp("head")],
        "head": [binop(Opcode.SLT, "c", R("i"), R("n")),
                 br(R("c"), "body", "done")],
        "body": [binop(Opcode.ADD, "s", R("s"), R("i")),
                 binop(Opcode.AND, "k", R("i"), C(7)),
                 store("a", R("k"), R("s")),
                 binop(Opcode.SGT, "e", R("s"), C(40)),
                 br(R("e"), "early", "latch")],
        "latch": [binop(Opcode.MUL, "t", R("s"), C(3)),
                  binop(Opcode.ADD, "i", R("i"), C(1)),
                  jmp("head")],
        "early": [binop(Opcode.SUB, "u", R("t"), R("s")), ret(R("u"))],
        "done": [binop(Opcode.ADD, "u", R("t"), R("s")), ret(R("u"))],
    })


class TestLoopBudgetSweeps:
    def test_mid_body_exit_every_index(self):
        """Both exits read ``t`` from the register dict, which only the
        loop-back writes back once a later iteration exits early."""
        module = _mid_exit_loop()
        assert _loop_units(module) == ["head"]
        assert _same(module, [20])[:2] == ("ok", 3 * 36 - 45)
        assert _same(module, [5])[:2] == ("ok", 3 * 10 + 10)
        assert _sweep_budget(module, [20]) > 50

    def test_one_block_self_loop_every_index(self):
        module = _module({
            "entry": [copy_reg("i", C(0)), copy_reg("s", C(0))] + _enter(),
            "loop": [load("x", "a", R("i")),
                     binop(Opcode.ADD, "s", R("s"), R("x")),
                     store("a", R("i"), R("s")),
                     binop(Opcode.ADD, "i", R("i"), C(1)),
                     binop(Opcode.SLT, "c", R("i"), R("n")),
                     br(R("c"), "loop", "done")],
            "done": [ret(R("s"))],
        })
        assert _loop_units(module) == ["loop"]
        assert _same(module, [8])[:2] == ("ok", 36)
        _sweep_budget(module, [8])

    def test_self_loop_into_single_predecessor_exit(self):
        """``done`` has one predecessor: it follows the loop, and
        ``loop`` iterates in place, all in the entry's closure."""
        module = _module({
            "entry": [copy_reg("i", C(0)), copy_reg("s", C(0)),
                      jmp("loop")],
            "loop": [load("x", "a", R("i")),
                     binop(Opcode.ADD, "s", R("s"), R("x")),
                     binop(Opcode.ADD, "i", R("i"), C(1)),
                     binop(Opcode.SLT, "c", R("i"), R("n")),
                     br(R("c"), "loop", "done")],
            "done": [binop(Opcode.MUL, "u", R("s"), R("i")), ret(R("u"))],
        })
        table = build_function_table(module.functions["f"])
        assert list(table) == ["entry", "loop", "done"]
        assert table["entry"] is not None
        assert table["loop"] is table["done"] is None
        assert _loop_units(module) == ["loop"]
        assert _same(module, [8])[:2] == ("ok", 36 * 8)
        _sweep_budget(module, [8])

    def test_back_edge_on_one_side_of_br_every_index(self):
        """A two-block chain whose last block branches back to its head
        on the else side and leaves on the then side (to a block with
        two predecessors, so the chain ends there)."""
        module = _module({
            "entry": [copy_reg("i", C(0)), copy_reg("s", C(0)),
                      jmp("head")],
            "head": [binop(Opcode.SLT, "c", R("i"), R("n")),
                     br(R("c"), "body", "done")],
            "body": [load("x", "a", R("i")),
                     binop(Opcode.ADD, "s", R("s"), R("x")),
                     binop(Opcode.ADD, "i", R("i"), C(1)),
                     binop(Opcode.SGT, "e", R("s"), C(20)),
                     br(R("e"), "done", "head")],
            "done": [binop(Opcode.MUL, "u", R("s"), R("i")), ret(R("u"))],
        })
        assert _loop_units(module) == ["head"]
        assert _same(module, [8])[:2] == ("ok", 21 * 6)
        assert _same(module, [3])[:2] == ("ok", 6 * 3)
        _sweep_budget(module, [8])

    def test_call_in_loop_body_every_index(self):
        """A CALL in the body: the resume check after it writes back
        only what was defined so far, so the loop-back must write back
        the rest for a later iteration's replay."""
        g = Function("g", params=["x"])
        block = g.add_block("entry")
        block.append(binop(Opcode.MUL, "y", R("x"), C(3)))
        block.append(ret(R("y")))
        module = _module({
            "entry": [copy_reg("i", C(0)), copy_reg("s", C(1)),
                      copy_reg("t", C(0)), jmp("head")],
            "head": [binop(Opcode.SLT, "c", R("i"), R("n")),
                     br(R("c"), "body", "done")],
            "body": [call("s", "g", [R("s")]),
                     binop(Opcode.AND, "s", R("s"), C(1023)),
                     binop(Opcode.AND, "k", R("i"), C(7)),
                     store("a", R("k"), R("s")),
                     binop(Opcode.ADD, "t", R("t"), R("s")),
                     binop(Opcode.ADD, "i", R("i"), C(1)),
                     jmp("head")],
            "done": [binop(Opcode.SUB, "u", R("t"), R("s")), ret(R("u"))],
        }, extra=[g])
        assert _loop_units(module) == ["head"]
        _same(module, [10])
        _sweep_budget(module, [10])

    def test_loop_units_are_counted(self):
        """The loop is part of the function's one unit, counted as a
        multi-block unit (``regions``)."""
        clear_code_memo()
        _outcome(_mid_exit_loop(), [20], "compiled")
        stats = code_memo_stats()
        assert stats.regions == stats.compiled == 1
        assert stats.as_dict()["regions"] == 1
        assert _loop_units(_mid_exit_loop()) == ["head"]


def _indexed_loop(op, offset, array="a"):
    """``for i in 0..n: a[i + offset]`` loaded (``op="load"``) or
    stored, with a running sum, so iteration ``k`` touches index
    ``k + offset``."""
    access = (load("x", array, R("j")) if op == "load"
              else store(array, R("j"), R("i")))
    return _module({
        "entry": [copy_reg("i", C(0)), copy_reg("s", C(0)),
                  copy_reg("x", C(5))] + _enter(),
        "loop": [binop(Opcode.ADD, "j", R("i"), C(offset)),
                 access,
                 binop(Opcode.ADD, "s", R("s"), R("x")),
                 binop(Opcode.ADD, "i", R("i"), C(1)),
                 binop(Opcode.SLT, "c", R("i"), R("n")),
                 br(R("c"), "loop", "done")],
        "done": [ret(R("s"))],
    })


class TestMemoryTraps:
    @pytest.mark.parametrize("op", ["load", "store"])
    @pytest.mark.parametrize("offset", [3, -3], ids=["past-end", "negative"])
    def test_out_of_bounds_at_a_later_iteration(self, op, offset):
        """Index ``i + 3`` leaves the 8-word row at iteration 5; index
        ``i - 3`` is negative for the first three iterations, which
        Python would wrap to the row's end without the lower bound."""
        module = _indexed_loop(op, offset)
        assert _loop_units(module) == ["loop"]
        outcome = _same(module, [8])
        assert outcome[0] == "trap"
        assert f"{op} a[{5 + offset if offset > 0 else offset}]" \
            in outcome[1]
        if offset > 0:
            assert outcome[2] > 5 * 6      # trapped at a later iteration
        else:
            assert outcome[2] == 5 + 2     # first access of iteration 0

    @pytest.mark.parametrize("op", ["load", "store"])
    def test_negative_index_after_clean_iterations(self, op):
        """Walk the index down through 0: iterations 0..3 are in
        bounds, iteration 4 reads or writes index -1."""
        access = (load("x", "a", R("j")) if op == "load"
                  else store("a", R("j"), R("i")))
        module = _module({
            "entry": [copy_reg("i", C(0)), copy_reg("x", C(0))] + _enter(),
            "loop": [binop(Opcode.SUB, "j", C(3), R("i")),
                     access,
                     binop(Opcode.ADD, "i", R("i"), C(1)),
                     binop(Opcode.SLT, "c", R("i"), R("n")),
                     br(R("c"), "loop", "done")],
            "done": [ret(R("x"))],
        })
        assert _loop_units(module) == ["loop"]
        outcome = _same(module, [8])
        assert outcome[0] == "trap" and f"{op} a[-1]" in outcome[1]
        assert outcome[2] == 4 + 4 * 5 + 2

    @pytest.mark.parametrize("op", ["load", "store"])
    def test_unknown_array(self, op):
        module = _indexed_loop(op, 0, array="nope")
        outcome = _same(module, [8])
        assert outcome[0] == "trap"
        assert "unknown array 'nope'" in outcome[1]

    def test_in_bounds_store_wraps_like_memory_store(self):
        """``Memory.store`` wraps what it writes and ``Memory.load``
        does not: a word poked into the image past 32 bits is copied
        by a load and a store as its 32-bit wrap."""
        module = _module({
            "entry": [copy_reg("i", C(0))] + _enter(),
            "loop": [load("x", "a", R("i")),
                     binop(Opcode.ADD, "j", R("i"), C(4)),
                     store("a", R("j"), R("x")),
                     binop(Opcode.ADD, "i", R("i"), C(1)),
                     binop(Opcode.SLT, "c", R("i"), R("n")),
                     br(R("c"), "loop", "done")],
            "done": [ret(R("i"))],
        })
        assert _loop_units(module) == ["loop"]
        outcome = _same(module, [4], poke=[("a", 1, 2**40 + 5)])
        assert outcome[0] == "ok" and outcome[3]["a"][5] == 5
