"""Chain partition of the compiled backend's dispatch units.

:func:`repro.interp.compile.discover_regions` fixes its chain heads —
every block that is not a chain candidate — before any walk starts,
so each block belongs to exactly one unit.  This suite checks:

* on all 8 workloads, baseline and ISE-rewritten (iterative, Nin 4,
  Nout 2): every block is in exactly one chain; every chain is, label
  for label, a chain of :func:`_reference_regions` (the earlier walk,
  which tested candidacy while walks were consuming candidates and so
  also compiled consumed tails as units of their own); the dispatch
  table maps each head to its memoised closure, whose source is the
  chain's, and every tail to ``None``; the baseline modules hold 55
  units;
* on random CFGs: the partition holds and each chain is the maximal
  :func:`_chain_continuation` walk from its head;
* a compiled run of every workload never runs a block on the walker;
* a chain whose codegen falls back (``C002``) is ``None`` at every
  label, and every run stays bit-identical to the walker.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Constraints, SearchLimits, select_iterative
from repro.exec.rewrite import FusedAFU, FusedGate, rewrite_module
from repro.hwmodel import CostModel
from repro.interp import ExecutionLimitExceeded, Interpreter, Memory
from repro.interp import compile as codegen
from repro.interp.compile import (
    _chain_continuation,
    build_function_table,
    code_memo_stats,
    compile_block,
    compile_region,
    discover_regions,
)
from repro.ir.cfg import predecessors
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

#: Units of the 8 baseline modules (78 under the reference walk).
BASELINE_UNITS = 55


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


def _candidates(func):
    """Blocks with one predecessor that are neither the entry nor
    their own predecessor."""
    preds = predecessors(func)
    return {block.label: block for block in func.blocks
            if block is not func.entry
            and len(preds[block.label]) == 1
            and preds[block.label][0] != block.label}


def _walk(head, candidates):
    """Follow :func:`_chain_continuation` from *head*, consuming
    *candidates*, up to the first block that targets the head."""
    chain = [head]
    current = head
    while True:
        terminator = current.terminator
        if terminator is not None and head.label in terminator.targets:
            return chain
        target = _chain_continuation(current, candidates)
        if target is None:
            return chain
        current = candidates.pop(target)
        chain.append(current)


def _reference_regions(func):
    """The earlier chain walk: a head is any block *still* in the
    candidate dict when the head loop reaches it, so a tail that an
    earlier walk consumed heads a unit of its own too."""
    candidates = _candidates(func)
    regions = [_walk(block, candidates) for block in func.blocks
               if block.label not in candidates]
    while candidates:
        block = next(b for b in func.blocks if b.label in candidates)
        del candidates[block.label]
        regions.append(_walk(block, candidates))
    return regions


def _labels(chains):
    return [[block.label for block in chain] for chain in chains]


def _assert_partition(func, chains):
    members = Counter(block.label for chain in chains for block in chain)
    assert members == Counter(block.label for block in func.blocks)


def _unit(chain):
    """*chain*'s unit compiled afresh, outside the code memo (its
    ``digest`` is the memo key)."""
    if len(chain) > 1:
        return compile_region(chain)
    return compile_block(chain[0])


@pytest.mark.parametrize("kind", ["baseline", "rewritten"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_units_partition_the_blocks(name, kind):
    module = _modules(name)[1][kind]
    for func in module.functions.values():
        chains = discover_regions(func)
        _assert_partition(func, chains)
        reference = _labels(_reference_regions(func))
        assert all(labels in reference for labels in _labels(chains))
        table = build_function_table(func)
        heads = {chain[0].label for chain in chains}
        assert {label for label, fn in table.items()
                if fn is not None} == heads
        for chain in chains:
            unit = _unit(chain)
            code = codegen._MEMO[unit.digest]
            assert code.source == unit.source
            assert code.fn is not None
            assert table[chain[0].label] is code.fn


def test_baseline_unit_count():
    funcs = [func for name in sorted(WORKLOADS)
             for func in _modules(name)[1]["baseline"].functions.values()]
    assert sum(len(discover_regions(f)) for f in funcs) == BASELINE_UNITS
    assert sum(len(_reference_regions(f)) for f in funcs) == 78


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


@settings(max_examples=300, deadline=None)
@given(cfgs())
def test_random_cfgs_partition_into_maximal_walks(func):
    chains = discover_regions(func)
    _assert_partition(func, chains)
    candidates = _candidates(func)
    heads = [chain[0].label for chain in chains]
    # Every non-candidate heads a chain, in block order, before any
    # leftover candidate does.
    fixed = [block.label for block in func.blocks
             if block.label not in candidates]
    assert heads[:len(fixed)] == fixed
    for chain in chains:
        candidates.pop(chain[0].label, None)
        assert _labels([chain]) == _labels([_walk(chain[0], candidates)])
    assert not candidates


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
    untranslatable ISE: the loop unit falls back, and all three blocks
    run on the walker, one per dispatch."""
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
    module = _fallback_loop()
    func = module.functions["f"]
    chains = _labels(discover_regions(func))
    assert ["head", "body", "latch"] in chains
    loop = [func.block(label) for label in ("head", "body", "latch")]
    assert compile_region(loop).reason == "C002"
    total = _outcome(module, "walk", 10**6)[0][2]
    for max_steps in range(1, total + 2):
        walk = _outcome(module, "walk", max_steps)[0]
        comp, interp = _outcome(module, "compiled", max_steps)
        assert comp == walk, f"max_steps={max_steps}"
    table = interp._frames["f"][2]
    assert table == {"entry": table["entry"], "head": None,
                     "body": None, "latch": None, "done": table["done"]}
    assert table["entry"] is not None and table["done"] is not None
