"""Structured control flow in a function's one closure.

:mod:`repro.interp.compile` turns each function into one closure whose
Python control flow follows the dominator tree: a loop is ``while
True:``, its back edge ``continue``, its exit ``break``, a forward
branch ``if``/``else``.  Every test here builds one shape, checks that
the function compiles whole (its entry is the table's only closure) and
compares both backends unlimited and at every step budget up to one
past the run: value, step count, memory, profile counts and calls, and
trap or budget text.  The shapes:

* a loop whose latch joins the two arms of an ``if`` (a diamond latch);
* a two-deep nest with ``break`` in the inner loop;
* a call inside a loop;
* a call inside an inner loop, where budgets that expire in the callee
  hand the frame to the walker from the inner loop;
* a division that traps in a later iteration of an inner loop;
* a ``continue``, nested in an ``if``, to a ``for`` loop's step block,
  which the closure emits once more at the ``continue``;
* a read of a register that one path into it leaves undefined.

A function of hundreds of ``if`` statements and loops in a row compiles
whole, and one whose structuring runs out of Python stack falls back
to the walker (``C004``) instead of raising.
"""

from __future__ import annotations

import inspect
import sys

import pytest

from repro.frontend import compile_source
from repro.interp import ExecutionLimitExceeded, Interpreter, Memory, TrapError
from repro.interp.compile import build_function_table, compile_region
from repro.ir.function import Function, Module
from repro.ir.instructions import binop, br, copy_reg, jmp, ret
from repro.ir.opcodes import Opcode
from repro.ir.values import Const, Reg


def _outcome(module, args, backend, max_steps=10**6, walked=None):
    memory = Memory(module)
    interp = Interpreter(module, memory=memory, max_steps=max_steps,
                         backend=backend)
    if walked is not None:
        run_block = interp._exec_block_ref

        def recording(func_name, block, regs, depth, start=0):
            walked.add((func_name, block.label, start))
            return run_block(func_name, block, regs, depth, start)

        interp._exec_block_ref = recording
    try:
        result = ("ok", interp.run("f", args).value)
    except TrapError as exc:
        result = ("trap", str(exc))
    except ExecutionLimitExceeded as exc:
        result = ("limit", str(exc))
    profile = interp.profile
    return result + (interp._steps, memory.arrays, dict(profile.counts),
                     dict(profile.calls))


def _sweep(module, args):
    """Compare the backends unlimited and at every budget up to one
    past the run; returns the unlimited outcome and the ``(function,
    label, start)`` of every block the compiled runs left to the
    walker."""
    for func in module.functions.values():
        table = build_function_table(func)
        assert [label for label, fn in table.items()
                if fn is not None] == [func.entry.label], func.name
    walked = set()
    walk = _outcome(module, args, "walk")
    assert _outcome(module, args, "compiled", walked=walked) == walk
    assert not walked
    for max_steps in range(1, walk[2] + 2):
        assert (_outcome(module, args, "compiled", max_steps, walked)
                == _outcome(module, args, "walk", max_steps)), max_steps
    return walk, walked


def _source(text):
    return compile_source(text, "m")


def test_diamond_latch():
    module = _source("""
        int a[4];
        int f(int n) {
          int i = 0; int s = 0;
          while (i < n) {
            if (i & 1) { s = s + i; } else { s = s - 1; a[i & 3] = s; }
            i = i + 1;
          }
          return s;
        }""")
    outcome, _ = _sweep(module, [7])
    assert outcome[:2] == ("ok", 1 + 3 + 5 - 4)


def test_two_deep_nest_with_inner_break():
    module = _source("""
        int a[8];
        int f(int n) {
          int i; int j; int s = 0;
          for (i = 0; i < n; i++) {
            for (j = 0; j < n; j++) {
              if (j > i) break;
              s = s + i * j;
              a[j & 7] = s;
            }
          }
          return s;
        }""")
    outcome, _ = _sweep(module, [4])
    assert outcome[:2] == ("ok", sum(i * j for i in range(4)
                                     for j in range(i + 1)))


def test_call_inside_a_loop():
    module = _source("""
        int g(int x) { return x * 3 + 1; }
        int f(int n) {
          int i; int s = 0;
          for (i = 0; i < n; i++) { s = s + g(i); }
          return s;
        }""")
    outcome, _ = _sweep(module, [5])
    assert outcome[:2] == ("ok", sum(3 * i + 1 for i in range(5)))


def test_resume_inside_an_inner_loop():
    module = _source("""
        int g(int x) { int k; int t = 0;
                       for (k = 0; k < x; k++) { t = t + k; }
                       return t; }
        int f(int n) {
          int i; int j; int s = 0;
          for (i = 0; i < n; i++) {
            for (j = 0; j < 3; j++) { s = s + g(i + j); }
          }
          return s;
        }""")
    _, walked = _sweep(module, [3])
    func = module.functions["f"]
    inner = {block.label for block in func.blocks
             if any(insn.opcode is Opcode.CALL
                    for insn in block.instructions)}
    # A budget that runs out in g leaves f's frame to the walker from
    # the op after its CALL, inside the inner loop.
    assert any(name == "f" and label in inner and start > 0
               for name, label, start in walked)


def test_trap_in_an_inner_loop():
    module = _source("""
        int a[4];
        int f(int n) {
          int i; int j; int s = 0;
          for (i = 0; i < n; i++) {
            for (j = 0; j < 3; j++) { s = s + 12 / (i - 2); a[j] = s; }
          }
          return s;
        }""")
    outcome, _ = _sweep(module, [4])
    assert outcome[0] == "trap"
    assert "division by zero" in outcome[1]


def test_continue_to_the_for_step_block():
    module = _source("""
        int a[4];
        int f(int n) {
          int i; int s = 0;
          for (i = 0; i < n; i++) {
            if (i > 1) { if (i & 1) continue; s = s + 100; }
            s = s + i;
            a[i & 3] = s;
          }
          return s;
        }""")
    func = module.functions["f"]
    step = next(block for block in func.blocks
                if block.label.startswith("for_step"))
    outcome, _ = _sweep(module, [7])
    assert outcome[:2] == ("ok", 0 + 1 + 102 + 104 + 106)
    # The step block runs once per iteration, the skipped ones too.
    assert outcome[4][("f", step.label)] == 7


def _one_sided_definition():
    """``t`` is set only when ``n`` is non-zero, then read at the
    join."""
    func = Function("f", params=["n"])
    blocks = {
        "entry": [br(Reg("n"), "set", "join")],
        "set": [copy_reg("t", Const(5)), jmp("join")],
        "join": [binop(Opcode.ADD, "u", Reg("t"), Const(1)),
                 ret(Reg("u"))],
    }
    for label, insns in blocks.items():
        block = func.add_block(label)
        for insn in insns:
            block.append(insn)
    module = Module("m")
    module.add_function(func)
    return module


@pytest.mark.parametrize("n, expected", [
    (1, ("ok", 6)),
    (0, ("trap", "read of undefined register %t")),
])
def test_read_of_a_register_undefined_on_one_path(n, expected):
    outcome, _ = _sweep(_one_sided_definition(), [n])
    assert outcome[:2] == expected


def test_long_runs_of_ifs_and_loops_compile_whole():
    body = "\n".join(f"if (x > {i}) {{ s = s + {i}; }}\n"
                     f"for (i = 0; i < x; i++) {{ s = s ^ i; }}"
                     for i in range(400))
    module = _source(f"int f(int x) {{ int s = 0; int i;\n{body}\n"
                     f"return s; }}")
    func = module.functions["f"]
    assert len(func.blocks) > 2000
    table = build_function_table(func)
    assert table[func.entry.label] is not None
    walk = _outcome(module, [3], "walk")
    assert _outcome(module, [3], "compiled") == walk
    for max_steps in (1, walk[2] // 2, walk[2]):
        assert (_outcome(module, [3], "compiled", max_steps)
                == _outcome(module, [3], "walk", max_steps))


def test_running_out_of_stack_refuses_the_function():
    text = "s = s + 1;"
    for depth in range(12):
        text = f"if (x > {depth}) {{ {text} }}"
    func = _source(f"int f(int x) {{ int s = 0; {text} return s; }}"
                   ).functions["f"]

    def compiled_at(depth):
        if depth > 0:
            return compiled_at(depth - 1)
        return compile_region(func.blocks, params=func.params)

    assert compile_region(func.blocks, params=func.params).fn is not None
    left = 20
    code = compiled_at(sys.getrecursionlimit() - len(inspect.stack(0))
                       - left)
    assert (code.fn, code.reason) == (None, "C004")
    assert code.detail == "nesting: recursion limit"
