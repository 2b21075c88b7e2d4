"""Differential suite for compiled call frames.

A compiled frame tallies block entries in its function's run-long
tally, which ``Interpreter.run`` folds into the profile once, also when
the run traps; loop units count in locals and add them on every exit;
``CALL`` is one callback per call depth (``repro.interp.interpreter``).
Every test here runs hand-built IR on both backends and compares value,
step count, profile counts and calls, and trap or budget text:

* a trap and every budget expiry two frames deep, inside a loop unit
  whose callers are loop units too, and a loop unit that never
  iterates;
* a batch lane that traps inside a callee, followed by clean lanes;
* the call-depth, unknown-callee and arity traps raised through a
  compiled ``CALL``, in the walker's order and with its text;
* one hash per block when a dispatch table is built, and memo keys
  equal to :func:`region_digest` / :func:`block_digest`.
"""

from __future__ import annotations

import pytest

from repro.interp import (
    BACKENDS,
    ExecutionLimitExceeded,
    Interpreter,
    Lane,
    TrapError,
    run_batch,
)
from repro.interp import compile as codegen
from repro.ir.function import Function, GlobalArray, Module
from repro.ir.instructions import binop, br, call, copy_reg, jmp, load, ret
from repro.ir.opcodes import Opcode
from repro.ir.values import Const, Reg

R, C = Reg, Const


def _function(name, params, blocks):
    """A function with *blocks* (label -> instructions, entry first)."""
    func = Function(name, params=list(params))
    for label, insns in blocks.items():
        block = func.add_block(label)
        for insn in insns:
            block.append(insn)
    return func


def _module(*functions):
    module = Module("m")
    module.add_global(GlobalArray("a", 8, range(1, 9)))
    for func in functions:
        module.add_function(func)
    return module


def _counted_loop(name, bound, callee, arg):
    """``name(p)``: ``for i in 0..bound: t += callee(arg(p, i))``, a
    loop unit headed by ``head`` whose body calls *callee*."""
    return _function(name, ["p"], {
        "entry": [copy_reg("i", C(0)), copy_reg("t", C(0)), jmp("head")],
        "head": [binop(Opcode.SLT, "c", R("i"), bound),
                 br(R("c"), "body", "done")],
        "body": [arg,
                 call("r", callee, [R("x")]),
                 binop(Opcode.ADD, "t", R("t"), R("r")),
                 binop(Opcode.ADD, "i", R("i"), C(1)),
                 jmp("head")],
        "done": [ret(R("t"))],
    })


def _nested_loops():
    """``f(n)`` loops ``n`` times over ``g(i)``, which loops 3 times
    over ``h(p + i)``, a one-block self-loop summing ``a[x .. x+3]``:
    ``h`` runs two frames deep and reads past the 8-word row once
    ``f``'s and ``g``'s indices add up to 5 (so ``f(3)`` is clean and
    ``f(4)`` traps in the last iteration of ``h``'s twelfth call)."""
    h = _function("h", ["x"], {
        "entry": [copy_reg("i", C(0)), copy_reg("s", C(0)), jmp("loop")],
        "loop": [binop(Opcode.ADD, "j", R("x"), R("i")),
                 load("v", "a", R("j")),
                 binop(Opcode.ADD, "s", R("s"), R("v")),
                 binop(Opcode.ADD, "i", R("i"), C(1)),
                 binop(Opcode.SLT, "c", R("i"), C(4)),
                 br(R("c"), "loop", "done")],
        "done": [ret(R("s"))],
    })
    g = _counted_loop("g", C(3), "h", binop(Opcode.ADD, "x", R("p"), R("i")))
    f = _counted_loop("f", R("p"), "g", copy_reg("x", R("i")))
    return _module(f, g, h)


def _outcome(module, func, args, backend, max_steps=10**6):
    interp = Interpreter(module, max_steps=max_steps, backend=backend)
    try:
        result = ("ok", interp.run(func, args).value)
    except TrapError as exc:
        result = ("trap", str(exc))
    except ExecutionLimitExceeded as exc:
        result = ("limit", str(exc))
    profile = interp.profile
    return result + (interp._steps, dict(profile.counts),
                     dict(profile.calls))


def _same(module, func, args, max_steps=10**6):
    walk = _outcome(module, func, args, "walk", max_steps)
    comp = _outcome(module, func, args, "compiled", max_steps)
    assert comp == walk, f"max_steps={max_steps}"
    return walk


class TestNestedLoopUnits:
    def test_every_frame_runs_a_loop_unit(self):
        module = _nested_loops()
        for name, head in (("f", "head"), ("g", "head"), ("h", "loop")):
            (chain,) = [chain for chain
                        in codegen.discover_regions(module.functions[name])
                        if chain[0].label == head]
            code = (codegen.compile_region(chain) if len(chain) > 1
                    else codegen.compile_block(chain[0]))
            assert code.loop, name

    def test_trap_two_frames_deep(self):
        module = _nested_loops()
        assert _same(module, "f", [3])[0] == "ok"
        outcome = _same(module, "f", [4])
        assert outcome[:2] == ("trap", "load a[8] out of bounds (size 8)")
        assert outcome[4] == {"f": 1, "g": 4, "h": 12}
        assert outcome[3][("h", "loop")] == 12 * 4
        assert outcome[3][("h", "done")] == 11

    def test_loop_unit_that_never_iterates(self):
        """``f(0)`` leaves its loop unit at the head: the body's local
        count is 0, and a zero is never a profile entry."""
        outcome = _same(_nested_loops(), "f", [0])
        assert outcome[:2] == ("ok", 0)
        assert ("f", "body") not in outcome[3]

    def test_budget_expiry_at_every_index(self):
        module = _nested_loops()
        total = _same(module, "f", [3])[2]
        assert total > 300
        for max_steps in range(1, total + 2):
            _same(module, "f", [3], max_steps)

    def test_one_interpreter_over_several_runs(self):
        """The tally is folded and cleared per run: a trapped run's
        counts neither vanish nor come back in the next run."""
        module = _nested_loops()
        profiles = []
        for backend in BACKENDS:
            interp = Interpreter(module, backend=backend)
            with pytest.raises(TrapError):
                interp.run("f", [4])
            trapped = dict(interp.profile.counts)
            interp.run("f", [2])
            profiles.append((trapped, dict(interp.profile.counts),
                             dict(interp.profile.calls),
                             interp.profile.steps))
        assert profiles[0] == profiles[1]


class TestBatchLanes:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trap_in_a_callee_leaves_no_counts_behind(self, backend):
        module = _nested_loops()
        lanes = [Lane(args=(4,)), Lane(args=(2,)), Lane(args=(4,)),
                 Lane(args=(1,))]
        batch = run_batch(module, "f", lanes, backend=backend)
        assert [lane.ok for lane in batch.lanes] == [False, True,
                                                     False, True]
        for lane, result in zip(lanes, batch.lanes):
            alone = _outcome(module, "f", list(lane.args), "walk")
            assert result.steps == alone[2]
            assert dict(result.profile.counts) == alone[3]
            assert dict(result.profile.calls) == alone[4]


def _recursion(limit, target, nargs):
    """``r(d)`` recurses to ``r(d + 1)`` while ``d < limit``, then
    calls *target* with *nargs* arguments at depth ``limit + 1``."""
    args = [R("d")] * nargs
    r = _function("r", ["d"], {
        "entry": [binop(Opcode.SLT, "c", R("d"), C(limit)),
                  br(R("c"), "deeper", "base")],
        "deeper": [binop(Opcode.ADD, "e", R("d"), C(1)),
                   call("y", "r", [R("e")]),
                   ret(R("y"))],
        "base": [call("y", target, args), ret(R("y"))],
    })
    g = _function("g", ["x"], {"entry": [ret(R("x"))]})
    return _module(r, g)


class TestCallTraps:
    @pytest.mark.parametrize("limit, target, nargs, message", [
        (10**6, "r", 1, "call depth exceeded at 'r'"),
        (200, "nope", 1, "call depth exceeded at 'nope'"),
        (200, "g", 2, "call depth exceeded at 'g'"),
        (199, "nope", 2, "call to unknown function 'nope'"),
        (199, "g", 2, "'g' expects 1 args, got 2"),
        (199, "g", 0, "'g' expects 1 args, got 0"),
        (199, "g", 1, None),
    ])
    def test_walker_text_and_order(self, limit, target, nargs, message):
        module = _recursion(limit, target, nargs)
        outcome = _same(module, "r", [0])
        if message is None:
            assert outcome[:2] == ("ok", 199)
        else:
            assert outcome[:2] == ("trap", message)
        assert outcome[4]["r"] == min(limit, 200) + 1

    def test_one_callback_per_depth(self):
        """Every frame at one depth gets the same ``CALL`` object, over
        runs too: 201 frames per run (depths 0 to 200), 201 callbacks."""
        module = _recursion(10**6, "r", 1)
        interp = Interpreter(module, backend="compiled")
        table = interp._frame("r")[2]
        fn = table["entry"]
        seen = []

        def spy(I, R, M, CALL, C):
            seen.append(CALL)
            return fn(I, R, M, CALL, C)

        table["entry"] = spy
        for _ in range(2):
            with pytest.raises(TrapError, match="call depth exceeded"):
                interp.run("r", [0])
        assert len(seen) == 2 * 201
        assert all(a is b for a, b in zip(seen[:201], seen[201:]))
        assert len({id(callback) for callback in seen}) == 201


class TestTableDigests:
    def test_each_block_hashed_once(self, monkeypatch):
        calls = []
        digest = codegen.block_digest

        def counting(block):
            calls.append(block.label)
            return digest(block)

        monkeypatch.setattr(codegen, "block_digest", counting)
        func = _nested_loops().functions["f"]
        codegen.clear_code_memo()
        codegen.build_function_table(func)
        assert sorted(calls) == sorted(b.label for b in func.blocks)

    def test_memo_keys_match_the_public_digests(self):
        module = _nested_loops()
        for func in module.functions.values():
            codegen.clear_code_memo()
            table = codegen.build_function_table(func)
            expected = {}
            for chain in codegen.discover_regions(func):
                key = (codegen.region_digest(chain) if len(chain) > 1
                       else codegen.block_digest(chain[0]))
                expected[key] = table[chain[0].label]
            assert {key: code.fn for key, code in codegen._MEMO.items()
                    } == expected
