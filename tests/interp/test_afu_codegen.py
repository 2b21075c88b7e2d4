"""Inlined AFU netlists: the compiled ISE path vs. the walker's reference.

The compiled backends emit every fused instruction's gate netlist as
straight-line locals (:mod:`repro.interp.compile`) instead of calling
:meth:`~repro.exec.rewrite.FusedAFU.evaluate`, which stays the walker's
reference.  This suite holds the two together:

* a golden trap: a division by zero inside a custom instruction must
  leave the identical message, step counter, committed memory and
  profile on walk and compiled — single runs, ``run_batch`` lanes, and
  every step budget that expires around the ISE;
* a hypothesis differential over random netlists of every AFU-legal
  opcode (register shift amounts, SELECT, DIV/REM with zero divisors);
* the compiled path never calls ``FusedAFU.evaluate`` and never falls
  back to the walker on any rewritten workload.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Constraints, SearchLimits, select_iterative
from repro.exec.rewrite import FusedAFU, FusedGate, rewrite_module
from repro.hwmodel import CostModel
from repro.interp import (
    BACKENDS,
    ExecutionLimitExceeded,
    Interpreter,
    Lane,
    Memory,
    TrapError,
    run_batch,
)
from repro.interp.compile import (
    build_function_table,
    clear_code_memo,
    code_memo_stats,
    compile_block,
)
from repro.ir.function import Function, GlobalArray, Module
from repro.ir.instructions import ISEInstruction, jmp, ret, store
from repro.ir.opcodes import Opcode, opinfo
from repro.ir.values import Const, Reg
from repro.pipeline import prepare_application
from repro.workloads.registry import WORKLOADS, get_workload

INT_MIN, INT_MAX = -(1 << 31), (1 << 31) - 1


def _afu(gates, ports, outputs, name="ise0"):
    return FusedAFU(name=name, block="f/body", gates=tuple(gates),
                    input_ports=tuple(ports), output_wires=tuple(outputs),
                    latency_cycles=1, software_cycles=float(len(gates)),
                    area_mac=0.1)


#: q = (a + 1) / b, r = a % 3 — the divisor of the first DIV is a port,
#: so the instruction traps exactly when b == 0.
DIV_AFU = _afu(
    gates=(FusedGate(Opcode.ADD, "w0", ("p0", 1)),
           FusedGate(Opcode.DIV, "w1", ("w0", "p1")),
           FusedGate(Opcode.REM, "w2", ("p0", 3)),
           FusedGate(Opcode.XOR, "w3", ("w1", "w2"))),
    ports=("p0", "p1"), outputs=("w3", "w2"))


def _div_module():
    """``f(x, a, b)``: a STORE commits state, then the fused division.

    ``entry`` jumps into a single-predecessor ``body``, so the compiled
    backend runs both as one region — and, when the step budget could
    expire inside it, replays ``entry`` on the walker and runs ``body``
    as its own per-block closure.  Both paths must match the walker.
    """
    module = Module("m")
    module.add_global(GlobalArray("out", 4))
    func = Function("f", params=["x", "a", "b"])
    entry = func.add_block("entry")
    entry.append(store("out", Const(0), Reg("x")))
    entry.append(jmp("body"))
    body = func.add_block("body")
    body.append(store("out", Const(1), Reg("a")))
    body.append(ISEInstruction(DIV_AFU, (Reg("a"), Reg("b")), ("q", "r")))
    body.append(store("out", Const(2), Reg("q")))
    body.append(store("out", Const(3), Reg("r")))
    body.append(ret(Reg("q")))
    module.add_function(func)
    return module


def _outcome(backend, args, max_steps=10**9):
    """Run ``f(*args)``: (kind, value-or-message, steps, memory, profile)."""
    module = _div_module()
    memory = Memory(module)
    interp = Interpreter(module, memory=memory, max_steps=max_steps,
                         backend=backend)
    try:
        kind, detail = "ok", interp.run("f", args).value
    except (TrapError, ExecutionLimitExceeded) as exc:
        kind, detail = type(exc).__name__, str(exc)
    return (kind, detail, interp._steps, memory.arrays,
            dict(interp.profile.counts), dict(interp.profile.calls))


class TestTrapInsideCustomInstruction:
    def test_golden_trap_identical_on_every_backend(self):
        walk = _outcome("walk", [9, 5, 0])
        assert walk[:3] == (
            "TrapError",
            "trap inside custom instruction %q, %r = ise ise0(%a, %b) "
            "(division by zero)",
            4)
        assert walk[3]["out"] == [9, 5, 0, 0]   # both stores committed
        assert _outcome("compiled", [9, 5, 0]) == walk

    def test_clean_path_identical(self):
        walk = _outcome("walk", [9, -7, 2])
        assert walk[0] == "ok"
        assert _outcome("compiled", [9, -7, 2]) == walk

    @pytest.mark.parametrize("args", [[9, 5, 0], [9, 5, 3]])
    def test_budget_expiring_around_the_ise(self, args):
        """Every budget from the first step past the last: the entry
        guard's replay and the tail's per-block closure must trap, or
        hand over to the limit, at the walker's exact step with the
        walker's side effects."""
        total = _outcome("walk", args)[2]
        for max_steps in range(1, total + 2):
            walk = _outcome("walk", args, max_steps)
            got = _outcome("compiled", args, max_steps)
            assert got == walk, max_steps

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_lanes_match_the_walker(self, backend):
        """A trapping lane, a budget expiring inside the ISE's segment,
        and clean lanes around them: per-lane walker identity."""
        lanes = [Lane(args=(1, 2, 3)), Lane(args=(9, 5, 0)),
                 Lane(args=(4, INT_MIN, -1), max_steps=5),
                 Lane(args=(4, INT_MIN, -1))]
        module = _div_module()
        reference = run_batch(module, "f", lanes, backend="walk",
                              keep_arrays=True)
        batch = run_batch(module, "f", lanes, backend=backend,
                          keep_arrays=True)

        def summary(lane):
            return (lane.value, lane.steps, lane.trap, lane.limit,
                    dict(lane.profile.counts), lane.arrays)

        assert ([summary(lane) for lane in batch.lanes]
                == [summary(lane) for lane in reference.lanes])
        assert reference.lanes[1].trap.startswith(
            "trap inside custom instruction")
        assert reference.lanes[2].limit


class TestEmission:
    def _single_ise_block(self, afu, operands, dests):
        func = Function("f", params=["a", "b"])
        block = func.add_block("entry")
        block.append(ISEInstruction(afu, operands, dests))
        block.append(ret(Reg(dests[0])))
        return block

    def test_no_afu_objects_pinned_and_no_step_commit(self):
        """A netlist without division compiles to plain gate locals:
        no ``evaluate`` binding, and the segment commits its steps
        once — an ISE that cannot trap needs no exact counter write."""
        afu = _afu(gates=(FusedGate(Opcode.MUL, "w0", ("p0", "p1")),),
                   ports=("p0", "p1"), outputs=("w0",))
        code = compile_block(self._single_ise_block(
            afu, (Reg("a"), Reg("b")), ("t",)))
        assert code.fn is not None
        assert "evaluate" not in code.source and "_A" not in code.source
        assert code.source.count("I._steps = _s +") == 1

    def test_outputs_are_assigned_in_parallel(self):
        """Swapped outputs that forward ports must both read the entry
        values, as the walker's evaluate-then-write-back does."""
        afu = _afu(gates=(), ports=("p0", "p1"), outputs=("p1", "p0"))
        module = Module("m")
        func = Function("f", params=["a", "b"])
        block = func.add_block("entry")
        block.append(ISEInstruction(afu, (Reg("a"), Reg("b")),
                                    ("a", "b")))
        block.append(ret(Reg("a")))
        module.add_function(func)
        for backend in BACKENDS:
            assert Interpreter(module, backend=backend).run(
                "f", [3, 8]).value == 8

    @pytest.mark.parametrize("gate, code", [
        (FusedGate(Opcode.ADD, "w0", ("p0", "nope")), "V303"),
        (FusedGate(Opcode.ADD, "w0", ("p0",)), "V101"),
        (FusedGate(Opcode.ADD, "w0", ("p0", 1 << 40)), "C002"),
        (FusedGate(Opcode.LOAD, "w0", ("p0",)), "C001"),
    ])
    def test_untranslatable_netlists_fall_back(self, gate, code):
        """Netlists the walker cannot evaluate cleanly punt to it."""
        afu = _afu(gates=(gate,), ports=("p0",), outputs=("w0",))
        compiled = compile_block(self._single_ise_block(
            afu, (Reg("a"),), ("t",)))
        assert compiled.fn is None and compiled.reason == code


# ----------------------------------------------------------------------
# Hypothesis differential: random netlists vs. FusedAFU.evaluate.
# ----------------------------------------------------------------------
AFU_OPCODES = [op for op in Opcode if opinfo(op).afu_legal]

#: Edge values first: zero divisors, shift amounts past 31, the
#: INT_MIN / -1 overflow.
EDGES = [0, 1, -1, 2, 31, 32, 33, INT_MIN, INT_MAX]
values = st.one_of(st.sampled_from(EDGES),
                   st.integers(INT_MIN, INT_MAX))


@st.composite
def netlists(draw):
    """A random AFU (1–4 ports, 1–8 gates) plus its port values."""
    ports = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    wires = list(ports)
    gates = []
    for index in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(AFU_OPCODES))
        inputs = tuple(
            draw(st.one_of(st.sampled_from(wires), values))
            for _ in range(opinfo(op).arity))
        gates.append(FusedGate(op, f"w{index}", inputs))
        wires.append(f"w{index}")
    outputs = draw(st.lists(st.sampled_from(wires), min_size=1,
                            max_size=3))
    inputs = draw(st.lists(values, min_size=len(ports),
                           max_size=len(ports)))
    return _afu(gates, ports, outputs), inputs


def _netlist_module(afu):
    """``f(p0..pk)``: the ISE, then every output stored to ``out``.

    Dests reuse the parameter names where they can, so a gate reading
    a port whose register is also a dest exercises the deferred
    write-back.
    """
    params = list(afu.input_ports)
    dests = [params[i] if i < len(params) and i % 2 == 0 else f"d{i}"
             for i in range(len(afu.output_wires))]
    module = Module("m")
    module.add_global(GlobalArray("out", len(dests)))
    func = Function("f", params=params)
    block = func.add_block("entry")
    block.append(ISEInstruction(afu, tuple(Reg(p) for p in params),
                                tuple(dests)))
    for i, dest in enumerate(dests):
        block.append(store("out", Const(i), Reg(dest)))
    block.append(ret(Const(0)))
    module.add_function(func)
    return module


@settings(max_examples=300, deadline=None)
@given(case=netlists())
def test_inlined_netlist_matches_evaluate(case):
    afu, inputs = case
    try:
        expected = ("ok", afu.evaluate(inputs))
    except ZeroDivisionError:
        expected = ("trap", [0] * len(afu.output_wires))
    module = _netlist_module(afu)
    (fn,) = build_function_table(module.functions["f"]).values()
    assert fn is not None
    memory = Memory(module)
    try:
        Interpreter(module, memory=memory, backend="compiled").run(
            "f", inputs)
        got = ("ok", memory.read_array("out"))
    except TrapError as exc:
        assert "trap inside custom instruction" in str(exc)
        got = ("trap", memory.read_array("out"))
    assert got == expected


# ----------------------------------------------------------------------
# Rewritten workloads: no evaluate() call, no walker fallback.
# ----------------------------------------------------------------------
def _rewritten(name, n):
    app = prepare_application(name, n=n)
    model = CostModel()
    selection = select_iterative(
        app.dfgs, Constraints(nin=4, nout=2, ninstr=16), model,
        SearchLimits(max_considered=200_000))
    rewritten = rewrite_module(app.module, selection.cuts, model)
    assert rewritten.num_instructions > 0
    return app, rewritten.module


def test_compiled_path_never_calls_evaluate(monkeypatch):
    app, module = _rewritten("adpcm-decode", 24)
    workload = get_workload("adpcm-decode")

    def refuse(self, values):
        raise AssertionError("FusedAFU.evaluate called")

    monkeypatch.setattr(FusedAFU, "evaluate", refuse)
    clear_code_memo()
    memory = Memory(module)
    args = workload.driver(memory, 24)
    Interpreter(module, memory=memory, backend="compiled").run(
        app.entry, args)
    workload.verify(memory, 24)
    assert code_memo_stats().fallbacks == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rewritten_workloads_compile_without_fallback(name):
    _, module = _rewritten(name, 2 if name == "sha" else 8)
    for func in module.functions.values():
        for block in func.blocks:
            code = compile_block(block)
            assert code.fn is not None, (block.label, code.reason)
