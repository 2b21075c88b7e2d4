"""One compiled unit per function.

:func:`repro.interp.compile.build_function_table` compiles each
function into one closure keyed on its entry label; every other label
maps to ``None``.  This suite checks:

* on all 8 workloads, baseline and ISE-rewritten (iterative, Nin 4,
  Nout 2): every function compiles, its table maps the entry to the
  memoised closure, whose source is the function's, and every other
  label to ``None``; the baseline modules hold 11 units, one per
  function;
* on random CFGs, reducible or not: the table holds at most the entry's
  closure, and every run matches the walker at several step budgets;
* a compiled run of every workload never runs a block on the walker;
* a function whose codegen falls back (``C002``) is ``None`` at every
  label, and every run stays bit-identical to the walker.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Constraints, SearchLimits, select_iterative
from repro.exec.rewrite import FusedAFU, FusedGate, rewrite_module
from repro.hwmodel import CostModel
from repro.interp import ExecutionLimitExceeded, Interpreter, Memory
from repro.interp import compile as codegen
from repro.interp.compile import (
    block_digest,
    build_function_table,
    code_memo_stats,
    compile_region,
    function_digest,
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
from repro.workloads.registry import WORKLOADS, get_workload

#: Small profiling sizes keep the whole-registry runs quick.
RUN_SIZES = {
    "adpcm-decode": 48, "adpcm-encode": 48, "gsm": 24, "fir": 24,
    "crc32": 12, "g721": 16, "mixer": 24, "sha": 2,
}

#: Units of the 8 baseline modules: one per function (55 chains and
#: loop units before functions were compiled whole).
BASELINE_UNITS = 11


@lru_cache(maxsize=None)
def _modules(name):
    """``(app, {"baseline": module, "rewritten": module})`` for *name*."""
    app = prepare_application(name, n=RUN_SIZES[name])
    model = CostModel()
    selection = select_iterative(
        app.dfgs, Constraints(nin=4, nout=2, ninstr=16), model,
        SearchLimits(max_considered=200_000))
    rewritten = rewrite_module(app.module, selection.cuts, model)
    return app, {"baseline": app.module, "rewritten": rewritten.module}


def _key(func):
    return function_digest(func.params,
                           [block_digest(block) for block in func.blocks])


@pytest.mark.parametrize("kind", ["baseline", "rewritten"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_units_partition_the_blocks(name, kind):
    """Each function is one unit: its closure covers every block."""
    module = _modules(name)[1][kind]
    for func in module.functions.values():
        table = build_function_table(func)
        assert set(table) == {block.label for block in func.blocks}
        assert {label for label, fn in table.items()
                if fn is not None} == {func.entry.label}
        unit = compile_region(func.blocks, params=func.params)
        code = codegen._MEMO[_key(func)]
        assert code.source == unit.source
        assert code.fn is not None
        assert table[func.entry.label] is code.fn


def test_baseline_unit_count():
    funcs = [func for name in sorted(WORKLOADS)
             for func in _modules(name)[1]["baseline"].functions.values()]
    tables = [build_function_table(func) for func in funcs]
    assert sum(fn is not None for table in tables
               for fn in table.values()) == BASELINE_UNITS
    assert len(funcs) == BASELINE_UNITS


@st.composite
def cfgs(draw):
    """A random function of 1–10 blocks: each ends in ``RET``, a
    ``JMP`` or a ``BR`` (possibly degenerate) to any block, or has no
    terminator at all."""
    count = draw(st.integers(1, 10))
    labels = [f"b{i}" for i in range(count)]
    pick = st.sampled_from(labels)
    func = Function("f", params=["x"])
    for label in labels:
        block = func.add_block(label)
        kind = draw(st.sampled_from(("ret", "jmp", "br", "none")))
        if kind == "ret":
            block.append(ret(Reg("x")))
        elif kind == "jmp":
            block.append(jmp(draw(pick)))
        elif kind == "br":
            block.append(br(Reg("x"), draw(pick), draw(pick)))
    return func


def _cfg_outcome(func, backend, max_steps):
    module = Module("m")
    module.add_function(func)
    interp = Interpreter(module, max_steps=max_steps, backend=backend)
    try:
        result = ("ok", interp.run("f", [3]).value)
    except ExecutionLimitExceeded as exc:
        result = ("limit", str(exc))
    except Exception as exc:  # noqa: BLE001 - the walker's own failure
        result = (type(exc).__name__, str(exc))
    return result + (interp._steps, dict(interp.profile.counts))


@settings(max_examples=300, deadline=None)
@given(cfgs())
def test_random_cfgs_partition_into_maximal_walks(func):
    """Reducible or not, a random CFG is one unit (or none), and runs
    as the walker does at every budget up to 40 steps."""
    table = build_function_table(func)
    assert [label for label, fn in table.items()
            if fn is not None] in ([], [func.entry.label])
    for max_steps in range(1, 41):
        assert (_cfg_outcome(func, "compiled", max_steps)
                == _cfg_outcome(func, "walk", max_steps)), max_steps


@pytest.mark.parametrize("kind", ["baseline", "rewritten"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tails_are_never_dispatched(name, kind, monkeypatch):
    """No block of a workload run reaches the walker: no replay, so no
    tail (a ``None`` table entry) is ever dispatched."""
    app, modules = _modules(name)
    module = modules[kind]
    memory = Memory(module)
    args = get_workload(name).driver(memory, RUN_SIZES[name])
    walked = []
    exec_block_ref = Interpreter._exec_block_ref

    def counting(self, func_name, block, *rest):
        walked.append((func_name, block.label))
        return exec_block_ref(self, func_name, block, *rest)

    monkeypatch.setattr(Interpreter, "_exec_block_ref", counting)
    replays = code_memo_stats().replays
    interp = Interpreter(module, memory=memory, backend="compiled")
    interp.run(app.entry, args)
    assert interp._frames
    assert walked == []
    assert code_memo_stats().replays == replays


#: ``p0 + 2**40``: the constant is no 32-bit word, so codegen refuses
#: the netlist (``C002``) while the walker evaluates it.
WIDE_AFU = FusedAFU(name="ise0", block="f/body",
                    gates=(FusedGate(Opcode.ADD, "w0", ("p0", 1 << 40)),),
                    input_ports=("p0",), output_wires=("w0",),
                    latency_cycles=1, software_cycles=1.0, area_mac=0.1)


def _fallback_loop():
    """``head -> body -> latch -> head``, ``body`` holding the
    untranslatable ISE: the function falls back, and every block runs
    on the walker, one per dispatch."""
    module = Module("m")
    module.add_global(GlobalArray("a", 8, range(1, 9)))
    func = Function("f", params=["n"])
    blocks = {
        "entry": [copy_reg("i", Const(0)), copy_reg("s", Const(0)),
                  jmp("head")],
        "head": [binop(Opcode.SLT, "c", Reg("i"), Reg("n")),
                 br(Reg("c"), "body", "done")],
        "body": [ISEInstruction(WIDE_AFU, (Reg("i"),), ("t",)),
                 binop(Opcode.XOR, "s", Reg("s"), Reg("t")),
                 jmp("latch")],
        "latch": [binop(Opcode.AND, "k", Reg("i"), Const(7)),
                  store("a", Reg("k"), Reg("s")),
                  binop(Opcode.ADD, "i", Reg("i"), Const(1)),
                  jmp("head")],
        "done": [ret(Reg("s"))],
    }
    for label, insns in blocks.items():
        block = func.add_block(label)
        for insn in insns:
            block.append(insn)
    module.add_function(func)
    return module


def _outcome(module, backend, max_steps):
    memory = Memory(module)
    interp = Interpreter(module, memory=memory, max_steps=max_steps,
                         backend=backend)
    try:
        result = ("ok", interp.run("f", [5]).value)
    except ExecutionLimitExceeded as exc:
        result = ("limit", str(exc))
    return (result + (interp._steps, memory.arrays,
                      dict(interp.profile.counts)), interp)


def test_refused_chain_runs_on_the_walker():
    """The refused function runs on the walker, every label ``None``."""
    module = _fallback_loop()
    func = module.functions["f"]
    assert compile_region(func.blocks, params=func.params).reason == "C002"
    total = _outcome(module, "walk", 10**6)[0][2]
    for max_steps in range(1, total + 2):
        walk = _outcome(module, "walk", max_steps)[0]
        comp, interp = _outcome(module, "compiled", max_steps)
        assert comp == walk, f"max_steps={max_steps}"
    table = interp._frames["f"][2]
    assert table == {"entry": None, "head": None, "body": None,
                     "latch": None, "done": None}
