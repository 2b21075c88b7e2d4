"""Unit tests for the individual optimisation passes."""

from __future__ import annotations

import pytest

from repro.analysis import errors_of, verify_function
from repro.ir import (
    Const,
    Function,
    Opcode,
    Reg,
    binop,
    br,
    copy_reg,
    jmp,
    load,
    ret,
    store,
)
from repro.passes import (
    coalesce_copies,
    eliminate_dead_code,
    fold_constants,
    local_value_numbering,
    propagate_copies,
    simplify_cfg,
)
from repro.passes.constant_folding import evaluate_pure_op


def single_block(*insns, params=()):
    func = Function("f", params=list(params))
    bb = func.add_block("entry")
    for insn in insns:
        bb.append(insn)
    return func, bb


class TestConstantFolding:
    def test_folds_pure_constants(self):
        func, bb = single_block(
            binop(Opcode.ADD, "x", Const(2), Const(3)),
            ret(Reg("x")),
        )
        assert fold_constants(func)
        assert bb.instructions[0].opcode is Opcode.COPY
        assert bb.instructions[0].operands[0] == Const(5)

    def test_division_by_zero_untouched(self):
        func, bb = single_block(
            binop(Opcode.DIV, "x", Const(1), Const(0)),
            ret(Reg("x")),
        )
        assert not fold_constants(func)
        assert bb.instructions[0].opcode is Opcode.DIV

    @pytest.mark.parametrize("op,a,b,expected", [
        (Opcode.ADD, 2 ** 31 - 1, 1, -(2 ** 31)),
        (Opcode.MUL, 65536, 65536, 0),
        (Opcode.ASHR, -8, 1, -4),
        (Opcode.LSHR, -8, 1, 0x7FFFFFFC),
        (Opcode.SHL, 1, 33, 2),        # shift amounts mod 32
        (Opcode.DIV, -7, 2, -3),
        (Opcode.REM, -7, 2, -1),
    ])
    def test_evaluate_semantics(self, op, a, b, expected):
        assert evaluate_pure_op(op, [a, b]) == expected

    def test_identity_simplifications(self):
        func, bb = single_block(
            binop(Opcode.ADD, "x", Reg("a"), Const(0)),
            binop(Opcode.MUL, "y", Reg("a"), Const(1)),
            binop(Opcode.MUL, "z", Reg("a"), Const(0)),
            binop(Opcode.AND, "w", Reg("a"), Const(0)),
            ret(Reg("x")),
            params=["a"],
        )
        assert fold_constants(func)
        assert all(i.opcode is Opcode.COPY
                   for i in bb.instructions[:4])

    def test_select_constant_condition(self):
        func, bb = single_block(
            binop(Opcode.ADD, "t", Reg("a"), Const(1)),
            params=["a"],
        )
        bb.append(
            __import__("repro.ir", fromlist=["select"]).select(
                "s", Const(1), Reg("t"), Reg("a")))
        bb.append(ret(Reg("s")))
        assert fold_constants(func)
        assert bb.instructions[1].opcode is Opcode.COPY


class TestCopyPropagation:
    def test_local_propagation(self):
        func, bb = single_block(
            copy_reg("x", Reg("a")),
            binop(Opcode.ADD, "y", Reg("x"), Reg("x")),
            ret(Reg("y")),
            params=["a"],
        )
        assert propagate_copies(func)
        assert bb.instructions[1].operands == (Reg("a"), Reg("a"))

    def test_invalidated_by_redefinition(self):
        func, bb = single_block(
            copy_reg("x", Reg("a")),
            binop(Opcode.ADD, "a", Reg("a"), Const(1)),
            binop(Opcode.ADD, "y", Reg("x"), Const(0)),
            ret(Reg("y")),
            params=["a"],
        )
        propagate_copies(func)
        # x must NOT read the incremented a.
        assert bb.instructions[2].operands[0] == Reg("x")

    def test_coalescing_removes_temp(self):
        func, bb = single_block(
            binop(Opcode.ADD, "t", Reg("a"), Const(1)),
            copy_reg("x", Reg("t")),
            ret(Reg("x")),
            params=["a"],
        )
        assert coalesce_copies(func)
        assert len(bb.instructions) == 2
        assert bb.instructions[0].dest == "x"

    def test_coalescing_requires_single_use(self):
        func, bb = single_block(
            binop(Opcode.ADD, "t", Reg("a"), Const(1)),
            copy_reg("x", Reg("t")),
            binop(Opcode.ADD, "y", Reg("t"), Const(2)),
            ret(Reg("y")),
            params=["a"],
        )
        assert not coalesce_copies(func)


class TestDCE:
    def test_removes_unused_pure(self):
        func, bb = single_block(
            binop(Opcode.MUL, "dead", Reg("a"), Reg("a")),
            ret(Reg("a")),
            params=["a"],
        )
        assert eliminate_dead_code(func)
        assert len(bb.instructions) == 1

    def test_keeps_stores_and_calls(self):
        func, bb = single_block(
            store("m", Const(0), Reg("a")),
            ret(Reg("a")),
            params=["a"],
        )
        assert not eliminate_dead_code(func)

    def test_removes_overwritten_def(self):
        func, bb = single_block(
            copy_reg("x", Const(1)),
            copy_reg("x", Const(2)),
            ret(Reg("x")),
        )
        assert eliminate_dead_code(func)
        assert len(bb.instructions) == 2
        assert bb.instructions[0].operands[0] == Const(2)

    def test_keeps_def_with_intervening_use(self):
        func, bb = single_block(
            copy_reg("x", Const(1)),
            binop(Opcode.ADD, "y", Reg("x"), Const(1)),
            copy_reg("x", Const(2)),
            binop(Opcode.ADD, "z", Reg("y"), Reg("x")),
            ret(Reg("z")),
        )
        assert not eliminate_dead_code(func)


class TestLVN:
    def test_common_subexpression(self):
        func, bb = single_block(
            binop(Opcode.ADD, "x", Reg("a"), Reg("b")),
            binop(Opcode.ADD, "y", Reg("a"), Reg("b")),
            binop(Opcode.MUL, "z", Reg("x"), Reg("y")),
            ret(Reg("z")),
            params=["a", "b"],
        )
        assert local_value_numbering(func)
        assert bb.instructions[1].opcode is Opcode.COPY

    def test_commutative_matching(self):
        func, bb = single_block(
            binop(Opcode.ADD, "x", Reg("a"), Reg("b")),
            binop(Opcode.ADD, "y", Reg("b"), Reg("a")),
            ret(Reg("y")),
            params=["a", "b"],
        )
        assert local_value_numbering(func)
        assert bb.instructions[1].opcode is Opcode.COPY

    def test_noncommutative_not_matched(self):
        func, bb = single_block(
            binop(Opcode.SUB, "x", Reg("a"), Reg("b")),
            binop(Opcode.SUB, "y", Reg("b"), Reg("a")),
            ret(Reg("y")),
            params=["a", "b"],
        )
        assert not local_value_numbering(func)

    def test_redefinition_blocks_reuse(self):
        func, bb = single_block(
            binop(Opcode.ADD, "x", Reg("a"), Reg("b")),
            binop(Opcode.ADD, "a", Reg("a"), Const(1)),
            binop(Opcode.ADD, "y", Reg("a"), Reg("b")),
            ret(Reg("y")),
            params=["a", "b"],
        )
        assert not local_value_numbering(func)

    def test_loads_killed_by_store(self):
        func, bb = single_block(
            load("x", "m", Reg("i")),
            store("m", Reg("i"), Const(0)),
            load("y", "m", Reg("i")),
            ret(Reg("y")),
            params=["i"],
        )
        assert not local_value_numbering(func)

    def test_loads_cse_without_store(self):
        func, bb = single_block(
            load("x", "m", Reg("i")),
            load("y", "m", Reg("i")),
            binop(Opcode.ADD, "z", Reg("x"), Reg("y")),
            ret(Reg("z")),
            params=["i"],
        )
        assert local_value_numbering(func)
        assert bb.instructions[1].opcode is Opcode.COPY


class TestSimplifyCFG:
    def test_constant_branch_folded(self):
        func = Function("f")
        entry = func.add_block("entry")
        t = func.add_block("t")
        f_ = func.add_block("f")
        entry.append(br(Const(1), "t", "f"))
        t.append(ret(Const(1)))
        f_.append(ret(Const(0)))
        assert simplify_cfg(func)
        labels = [b.label for b in func.blocks]
        assert "f" not in labels

    def test_straightline_merge(self):
        func = Function("f", params=["a"])
        entry = func.add_block("entry")
        next_ = func.add_block("next")
        entry.append(copy_reg("x", Reg("a")))
        entry.append(jmp("next"))
        next_.append(ret(Reg("x")))
        assert simplify_cfg(func)
        assert len(func.blocks) == 1
        assert errors_of(verify_function(func)) == []

    def test_empty_block_forwarding(self):
        func = Function("f", params=["c"])
        entry = func.add_block("entry")
        hop = func.add_block("hop")
        t = func.add_block("t")
        f_ = func.add_block("f")
        entry.append(br(Reg("c"), "hop", "f"))
        hop.append(jmp("t"))
        t.append(ret(Const(1)))
        f_.append(ret(Const(0)))
        assert simplify_cfg(func)
        assert func.entry.terminator.targets == ("t", "f")
