"""Tests for CFG utilities and liveness analysis."""

from __future__ import annotations

from repro.analysis import errors_of, verify_function
from repro.ir import (
    Const,
    Function,
    Liveness,
    Opcode,
    Reg,
    binop,
    br,
    copy_reg,
    jmp,
    predecessors,
    reachable_blocks,
    ret,
    reverse_postorder,
    successors,
)


def diamond_function():
    """entry -> (t|f) -> join, with x defined on both arms and used at
    the join; y defined only on the t arm and dead."""
    func = Function("f", params=["c", "a"])
    entry = func.add_block("entry")
    t = func.add_block("t")
    f = func.add_block("f")
    join = func.add_block("join")
    entry.append(br(Reg("c"), "t", "f"))
    t.append(copy_reg("x", Reg("a")))
    t.append(copy_reg("y", Const(1)))
    t.append(jmp("join"))
    f.append(copy_reg("x", Const(0)))
    f.append(jmp("join"))
    join.append(binop(Opcode.ADD, "r", Reg("x"), Const(1)))
    join.append(ret(Reg("r")))
    return func


class TestStructure:
    def test_successors(self):
        func = diamond_function()
        succs = successors(func)
        assert succs["entry"] == ["t", "f"]
        assert succs["t"] == ["join"]
        assert succs["join"] == []

    def test_predecessors(self):
        func = diamond_function()
        preds = predecessors(func)
        assert preds["join"] == ["t", "f"]
        assert preds["entry"] == []

    def test_reachable(self):
        func = diamond_function()
        dead = func.add_block("dead")
        dead.append(ret())
        assert reachable_blocks(func) == {"entry", "t", "f", "join"}

    def test_reverse_postorder_starts_at_entry(self):
        func = diamond_function()
        order = reverse_postorder(func)
        assert order[0] == "entry"
        assert order[-1] == "join"
        assert set(order) == {"entry", "t", "f", "join"}


class TestLiveness:
    def test_use_flows_backward(self):
        func = diamond_function()
        liveness = Liveness(func)
        # x is live out of both arms (used at join).
        assert "x" in liveness.live_out_of("t")
        assert "x" in liveness.live_out_of("f")
        # y is dead after t.
        assert "y" not in liveness.live_out_of("t")
        # a is live into t only (used to define x there).
        assert "a" in liveness.live_in_of("t")
        assert "a" not in liveness.live_in_of("f")

    def test_params_live_at_entry(self):
        func = diamond_function()
        liveness = Liveness(func)
        assert "c" in liveness.live_in_of("entry")
        assert "a" in liveness.live_in_of("entry")

    def test_loop_liveness(self):
        # i is live around the back edge.
        func = Function("loop", params=["n"])
        entry = func.add_block("entry")
        head = func.add_block("head")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        entry.append(copy_reg("i", Const(0)))
        entry.append(jmp("head"))
        head.append(binop(Opcode.SLT, "c", Reg("i"), Reg("n")))
        head.append(br(Reg("c"), "body", "exit"))
        body.append(binop(Opcode.ADD, "i", Reg("i"), Const(1)))
        body.append(jmp("head"))
        exit_.append(ret(Reg("i")))
        liveness = Liveness(func)
        assert "i" in liveness.live_out_of("body")
        assert "i" in liveness.live_in_of("head")
        assert "n" in liveness.live_out_of("body")


class TestVerifier:
    def test_well_formed(self):
        assert errors_of(verify_function(diamond_function())) == []

    def test_missing_terminator(self):
        func = Function("g")
        func.add_block("entry")
        problems = errors_of(verify_function(func))
        assert any(d.code == "V002" and "terminator" in d.message
                   for d in problems)

    def test_unknown_target(self):
        func = Function("g")
        block = func.add_block("entry")
        block.append(jmp("nowhere"))
        problems = errors_of(verify_function(func))
        assert any(d.code == "V004" and "nowhere" in d.message
                   for d in problems)

    def test_workload_functions_verify(self, adpcm_decode_app, gsm_app):
        for app in (adpcm_decode_app, gsm_app):
            for func in app.module.functions.values():
                assert errors_of(verify_function(func, app.module)) == []
