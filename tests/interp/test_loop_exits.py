"""Loop units write interpreter state only on the paths that leave them.

A compiled loop unit (``repro.interp.compile``) keeps registers and the
step count in locals while it iterates.  No path inside it writes a
register: its ``finally`` writes each register the body defines back
to ``R`` once, on every exit (side exits, post-``CALL`` resume checks,
the loop-back budget exit and traps).  A register that is not a
live-in starts as ``None`` and is written back only once defined.  An
internal ``BR`` commits ``I._steps`` inside its side-exit branch and a
division inside its trap branch.  This suite checks:

* the source shape, on every loop unit of the 8 workloads, baseline and
  ISE-rewritten: the iteration path outside exit branches commits no
  step count (except the commit a ``CALL`` needs), no line outside the
  ``finally`` stores into ``R``, the ``finally`` stores each defined
  register exactly once, and every store of a register that is not a
  live-in is guarded;
* differentials against the walker at every step budget: a side exit
  in the first iteration into a block that reads a register the body
  defines only after that exit, a two-exit loop whose second exit
  fires in a later iteration, a division that traps in a later
  iteration, and a constant-zero division in a loop latch after a side
  exit, which ends the unit's emission before its loop-back;
* an ISE whose dest is also its operand, beside an output forwarding a
  port and one a gate writes straight into its dest's local.
"""

from __future__ import annotations

import re
from functools import lru_cache

import pytest

from repro.core import Constraints, SearchLimits, select_iterative
from repro.exec.rewrite import FusedAFU, FusedGate, rewrite_module
from repro.hwmodel import CostModel
from repro.interp import ExecutionLimitExceeded, Interpreter, Memory, TrapError
from repro.interp.compile import (
    compile_block,
    compile_region,
    discover_regions,
)
from repro.ir.function import Function, GlobalArray, Module
from repro.ir.instructions import (
    ISEInstruction,
    binop,
    br,
    copy_reg,
    jmp,
    ret,
    store,
)
from repro.ir.opcodes import Opcode
from repro.ir.values import Const, Reg
from repro.pipeline import prepare_application
from repro.workloads.registry import WORKLOADS

R, C = Reg, Const

#: Small profiling sizes keep the whole-registry checks quick.
RUN_SIZES = {
    "adpcm-decode": 48, "adpcm-encode": 48, "gsm": 24, "fir": 24,
    "crc32": 12, "g721": 16, "mixer": 24, "sha": 2,
}


@lru_cache(maxsize=None)
def _workload_module(name, kind):
    app = prepare_application(name, n=RUN_SIZES[name])
    if kind == "baseline":
        return app.module
    model = CostModel()
    selection = select_iterative(
        app.dfgs, Constraints(nin=4, nout=2, ninstr=16), model,
        SearchLimits(max_considered=200_000))
    return rewrite_module(app.module, selection.cuts, model).module


def _unit(chain):
    if len(chain) > 1:
        return compile_region(chain)
    return compile_block(chain[0])


def _loop_sources(module):
    return [code.source
            for func in module.functions.values()
            for code in map(_unit, discover_regions(func)) if code.loop]


def _iteration_path(source):
    """The lines of the ``while True:`` body outside every branch."""
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.strip() == "while True:")
    base = len(lines[start + 1]) - len(lines[start + 1].lstrip())
    path = []
    for line in lines[start + 1:]:
        indent = len(line) - len(line.lstrip())
        if indent < base:
            break
        if indent == base:
            path.append(line.strip())
    return path


@pytest.mark.parametrize("kind", ["baseline", "rewritten"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_iteration_path_writes_no_state(name, kind):
    # adpcm-encode's loop latch joins two arms of an ``if``, so it heads
    # a unit of its own and no unit loops; the other 7 programs have at
    # least one loop unit.
    sources = _loop_sources(_workload_module(name, kind))
    assert bool(sources) == (name != "adpcm-encode")
    for source in sources:
        path = _iteration_path(source)
        assert path[-1] == "_k0 += 1"
        for number, line in enumerate(path):
            assert not line.startswith("R["), source
            if line.startswith("I._steps ="):
                # A CALL's commit: the callee counts on from it.
                assert "CALL(" in path[number + 1], source


_ASSIGNED = re.compile(r"(v\d+(?:, v\d+)*) = ")
_STORE = re.compile(r"(?:if (v\d+) is not None: )?R\['([^']+)'\] = (v\d+)")


@pytest.mark.parametrize("kind", ["baseline", "rewritten"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_finally_is_the_only_writeback(name, kind):
    """No line outside a loop unit's ``finally`` stores into ``R``; the
    ``finally`` stores each register the body defines once, a live-in
    unconditionally and any other behind ``if v is not None:``, after
    the header set it to ``None``."""
    for source in _loop_sources(_workload_module(name, kind)):
        assert "if _k0" not in source
        lines = [line.strip() for line in source.splitlines()]
        loop = lines.index("while True:")
        tail = lines.index("finally:")
        assert not any(_STORE.search(line) for line in lines[:tail]), source
        live_in = {line.split(" = R[")[0] for line in lines[:loop]
                   if " = R[" in line}
        defined = {local for line in lines[loop:tail]
                   for match in [_ASSIGNED.match(line)] if match
                   for local in match.group(1).split(", ")}
        unset = [line.split(" = ")[:-1] for line in lines[:loop]
                 if line.endswith(" = None")]
        assert set(sum(unset, [])) == defined - live_in, source
        stores = [_STORE.fullmatch(line) for line in lines[tail + 1:]
                  if "R[" in line]
        assert all(stores), source
        stored = [match.group(3) for match in stores]
        assert sorted(stored) == sorted(defined), source
        assert len({match.group(2) for match in stores}) == len(stores)
        for match in stores:
            guard, local = match.group(1, 3)
            assert guard in (None, local), source
            assert (guard is None) == (local in live_in), source


# ----------------------------------------------------------------------
# Differentials against the walker.
# ----------------------------------------------------------------------
def _module(blocks, params=("n", "m"), arrays=(("a", 8),)):
    """A module whose function ``f(*params)`` has *blocks* (label ->
    instructions, the first one the entry)."""
    module = Module("m")
    for name, size in arrays:
        module.add_global(GlobalArray(name, size, range(1, size + 1)))
    func = Function("f", params=list(params))
    for label, insns in blocks.items():
        block = func.add_block(label)
        for insn in insns:
            block.append(insn)
    module.add_function(func)
    return module


def _outcome(module, args, backend, max_steps=10**6):
    memory = Memory(module)
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


def _sweep_budget(module, args):
    """Compare the backends unlimited and at every budget up to one
    past the run; returns the unlimited outcome."""
    walk = _outcome(module, args, "walk")
    assert _outcome(module, args, "compiled") == walk
    for max_steps in range(1, walk[2] + 2):
        assert (_outcome(module, args, "compiled", max_steps)
                == _outcome(module, args, "walk", max_steps)), max_steps
    return walk


def _loop_heads(module):
    return sorted(code.label for code in map(
        _unit, discover_regions(module.functions["f"])) if code.loop)


def _late_def_loop(t_before):
    """``head -> body -> latch -> head``.  ``body`` leaves to ``early``
    once ``s`` passes ``m``, and ``early`` reads ``t``, which only the
    latch defines, after that exit.  *t_before* defines ``t`` before
    the loop; otherwise a first-iteration exit reads it undefined."""
    entry = [copy_reg("i", C(0)), copy_reg("s", C(0))]
    if t_before:
        entry.append(copy_reg("t", C(7)))
    return _module({
        "entry": entry + [jmp("head")],
        "head": [binop(Opcode.SLT, "c", R("i"), R("n")),
                 br(R("c"), "body", "done")],
        "body": [binop(Opcode.ADD, "s", R("s"), R("i")),
                 binop(Opcode.SGT, "e", R("s"), R("m")),
                 br(R("e"), "early", "latch")],
        "latch": [binop(Opcode.MUL, "t", R("s"), C(3)),
                  binop(Opcode.AND, "k", R("i"), C(7)),
                  store("a", R("k"), R("t")),
                  binop(Opcode.ADD, "i", R("i"), C(1)),
                  jmp("head")],
        "early": [binop(Opcode.SUB, "u", R("t"), R("s")), ret(R("u"))],
        "done": [ret(R("s"))],
    })


class TestLateDefinitions:
    @pytest.mark.parametrize("t_before", [True, False],
                             ids=["t-defined", "t-undefined"])
    def test_first_iteration_exit(self, t_before):
        """``m = -1``: the first iteration leaves before the latch, so
        ``early`` reads the entry ``t`` — or traps on it."""
        module = _late_def_loop(t_before)
        assert _loop_heads(module) == ["head"]
        outcome = _sweep_budget(module, [6, -1])
        if t_before:
            assert outcome[:2] == ("ok", 7)
        else:
            assert outcome[:2] == ("trap", "read of undefined register %t")

    @pytest.mark.parametrize("t_before", [True, False],
                             ids=["t-defined", "t-undefined"])
    def test_later_iteration_exit(self, t_before):
        """``m = 5``: ``s`` passes it at ``i = 3``, so ``early`` reads
        the ``t`` of the iteration before, ``3 * 3``."""
        module = _late_def_loop(t_before)
        assert _sweep_budget(module, [6, 5])[:2] == ("ok", 9 - 6)

    def test_no_exit(self):
        assert _sweep_budget(_late_def_loop(False), [3, 100])[:2] == (
            "ok", 3)


def _two_exit_loop():
    """Two side exits after the head's: ``x1`` once ``s`` passes ``m``
    (never, with the arguments below) and ``x2`` once ``t`` passes 20,
    in a later iteration.  ``x2`` reads ``w``, defined in the latch."""
    return _module({
        "entry": [copy_reg("i", C(0)), copy_reg("s", C(0)),
                  copy_reg("t", C(0)), copy_reg("w", C(0)), jmp("head")],
        "head": [binop(Opcode.SLT, "c", R("i"), R("n")),
                 br(R("c"), "b1", "done")],
        "b1": [binop(Opcode.ADD, "s", R("s"), R("i")),
               binop(Opcode.SGT, "e1", R("s"), R("m")),
               br(R("e1"), "x1", "b2")],
        "b2": [binop(Opcode.ADD, "t", R("t"), R("s")),
               binop(Opcode.SGT, "e2", R("t"), C(20)),
               br(R("e2"), "x2", "latch")],
        "latch": [binop(Opcode.XOR, "w", R("t"), R("s")),
                  binop(Opcode.ADD, "i", R("i"), C(1)),
                  jmp("head")],
        "x1": [binop(Opcode.SUB, "u", R("s"), R("w")), ret(R("u"))],
        "x2": [binop(Opcode.MUL, "u", R("w"), R("t")), ret(R("u"))],
        "done": [ret(R("w"))],
    })


class TestTwoExits:
    def test_second_exit_in_a_later_iteration_every_index(self):
        module = _two_exit_loop()
        assert _loop_heads(module) == ["head"]
        # t: 0, 1, 4, 10, 20, 35 -> exits at i = 5 with w = 20 ^ 10.
        assert _sweep_budget(module, [8, 100])[:2] == ("ok", 30 * 35)

    def test_first_exit_in_a_later_iteration_every_index(self):
        module = _two_exit_loop()
        # s: 0, 1, 3, 6 -> x1 at i = 3, w = 4 ^ 3 from i = 2.
        assert _sweep_budget(module, [8, 4])[:2] == ("ok", 6 - 7)


def test_division_trap_in_a_later_iteration_every_index():
    """The divisor ``3 - i`` reaches 0 in the fourth iteration: the
    trap branch commits the walker's step count."""
    module = _module({
        "entry": [copy_reg("i", C(0)), copy_reg("s", C(0)), jmp("loop")],
        "loop": [binop(Opcode.SUB, "d", C(3), R("i")),
                 binop(Opcode.DIV, "q", C(60), R("d")),
                 binop(Opcode.ADD, "s", R("s"), R("q")),
                 binop(Opcode.ADD, "i", R("i"), C(1)),
                 binop(Opcode.SLT, "c", R("i"), R("n")),
                 br(R("c"), "loop", "done")],
        "done": [ret(R("s"))],
    })
    assert _loop_heads(module) == ["loop"]
    outcome = _sweep_budget(module, [8, 0])
    assert outcome[0] == "trap" and outcome[2] == 3 + 3 * 6 + 2


def _dead_latch_loop(op):
    """``head -> latch -> head`` whose latch divides by a constant 0
    after ``head``'s side exit to ``done``.  The trap ends emission
    before the loop-back, so the unit runs its body at most once and
    keeps only its ``try``/``finally``."""
    return _module({
        "entry": [copy_reg("i", C(2)), jmp("head")],
        "head": [binop(Opcode.MUL, "t", R("i"), C(3)),
                 binop(Opcode.SLT, "c", R("i"), R("n")),
                 br(R("c"), "latch", "done")],
        "latch": [binop(Opcode.ADD, "s", R("t"), C(1)),
                  binop(op, "q", R("s"), C(0)),
                  binop(Opcode.ADD, "i", R("i"), R("q")),
                  jmp("head")],
        "done": [binop(Opcode.SUB, "u", R("t"), R("c")), ret(R("u"))],
    })


class TestDeadLatch:
    @pytest.mark.parametrize("op", [Opcode.DIV, Opcode.REM],
                             ids=["div", "rem"])
    def test_exit_taken_every_index(self, op):
        module = _dead_latch_loop(op)
        (source,) = [code.source for code in map(
            _unit, discover_regions(module.functions["f"]))
            if code.label == "head"]
        assert "finally:" in source and "while True:" not in source
        assert _sweep_budget(module, [0, 0])[:2] == ("ok", 6)

    @pytest.mark.parametrize("op", [Opcode.DIV, Opcode.REM],
                             ids=["div", "rem"])
    def test_trap_taken_every_index(self, op):
        outcome = _sweep_budget(_dead_latch_loop(op), [5, 0])
        assert outcome[0] == "trap" and outcome[2] == 2 + 3 + 2


# ----------------------------------------------------------------------
# ISE dests written straight from their gate.
# ----------------------------------------------------------------------
#: Outputs: ``w1 = (p0 + p1) * 3``, the port ``p0`` itself, and
#: ``w0 = p0 + p1``.
FORWARD_AFU = FusedAFU(
    name="ise0", block="f/loop",
    gates=(FusedGate(Opcode.ADD, "w0", ("p0", "p1")),
           FusedGate(Opcode.MUL, "w1", ("w0", 3))),
    input_ports=("p0", "p1"), output_wires=("w1", "p0", "w0"),
    latency_cycles=1, software_cycles=2.0, area_mac=0.1)


def _forwarding_ise_loop():
    """``a, b, c = ISE(a, b)``: ``a`` is a dest and an operand, ``b``
    takes ``a``'s entry value through the forwarded port, and ``c`` —
    neither read by a port nor forwarded — is written by its gate."""
    return _module({
        "entry": [copy_reg("i", C(0)), copy_reg("a", C(1)),
                  copy_reg("b", C(2)), jmp("loop")],
        "loop": [ISEInstruction(FORWARD_AFU, (R("a"), R("b")),
                                ("a", "b", "c")),
                 binop(Opcode.AND, "k", R("i"), C(7)),
                 store("out", R("k"), R("c")),
                 binop(Opcode.ADD, "i", R("i"), C(1)),
                 binop(Opcode.SLT, "e", R("i"), R("n")),
                 br(R("e"), "loop", "done")],
        "done": [binop(Opcode.SUB, "u", R("a"), R("b")), ret(R("u"))],
    }, arrays=(("out", 8),))


class TestIseDests:
    def test_dest_that_is_an_operand_and_a_forwarded_port(self):
        module = _forwarding_ise_loop()
        assert _loop_heads(module) == ["loop"]
        outcome = _sweep_budget(module, [5, 0])
        a, b = 1, 2
        for _ in range(5):
            a, b = (a + b) * 3, a
        assert outcome[:2] == ("ok", a - b)

    def test_only_the_unread_dest_is_written_by_its_gate(self):
        source = _unit([_forwarding_ise_loop().functions["f"]
                        .block("loop")]).source
        body = [line.strip() for line in source.splitlines()]
        # c (v2) takes w0 from its gate; a (v0) and b (v1) are read by
        # the ports, so w1 goes through g0, and a, b are assigned after
        # the last gate, b from a's entry value.
        assert any(re.fullmatch(r"v2 = .*\(v0 \+ v1\).*", line)
                   for line in body)
        assert "v0, v1 = g0, v0" in body
