"""Unit tests for BasicBlock / Function / GlobalArray / Module."""

from __future__ import annotations

import pytest

from repro.ir import (
    BasicBlock,
    Const,
    Function,
    GlobalArray,
    Module,
    Opcode,
    Reg,
    binop,
    copy_reg,
    count_real_instructions,
    jmp,
    ret,
)


class TestBasicBlock:
    def test_append_after_terminator_rejected(self):
        block = BasicBlock("b")
        block.append(ret())
        with pytest.raises(ValueError):
            block.append(copy_reg("x", Const(1)))

    def test_body_excludes_terminator(self):
        block = BasicBlock("b")
        block.append(copy_reg("x", Const(1)))
        block.append(ret(Reg("x")))
        assert len(block.body) == 1
        assert block.terminator is not None

    def test_successors(self):
        block = BasicBlock("b")
        block.append(jmp("next"))
        assert block.successors() == ["next"]

    def test_str_contains_label(self):
        block = BasicBlock("mylabel")
        block.append(ret())
        assert str(block).startswith("mylabel:")


class TestFunction:
    def test_entry_is_first_block(self):
        func = Function("f")
        a = func.add_block("a")
        func.add_block("b")
        assert func.entry is a

    def test_entry_requires_blocks(self):
        with pytest.raises(ValueError):
            Function("f").entry

    def test_duplicate_label_rejected(self):
        func = Function("f")
        func.add_block("a")
        with pytest.raises(ValueError):
            func.add_block("a")

    def test_new_label_avoids_collisions(self):
        func = Function("f")
        func.add_block("bb0")
        label = func.new_label()
        assert label != "bb0"
        func.add_block(label)

    def test_new_temp_unique(self):
        func = Function("f")
        names = {func.new_temp() for _ in range(10)}
        assert len(names) == 10

    def test_remove_block(self):
        func = Function("f")
        func.add_block("a")
        func.add_block("b")
        func.remove_block("b")
        assert not func.has_block("b")
        assert len(func.blocks) == 1

    def test_instructions_iterates_all(self):
        func = Function("f")
        a = func.add_block("a")
        a.append(copy_reg("x", Const(1)))
        a.append(jmp("b"))
        b = func.add_block("b")
        b.append(ret(Reg("x")))
        assert len(list(func.instructions())) == 3

    def test_count_real_instructions(self):
        func = Function("f")
        a = func.add_block("a")
        a.append(binop(Opcode.ADD, "x", Const(1), Const(2)))
        a.append(ret(Reg("x")))
        assert count_real_instructions(func) == 1


class TestGlobalArray:
    def test_zero_fill(self):
        g = GlobalArray("a", 4, [1, 2])
        assert g.init == [1, 2, 0, 0]

    def test_init_wraps_to_32_bits(self):
        g = GlobalArray("a", 1, [0xFFFFFFFF])
        assert g.init == [-1]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            GlobalArray("a", 0)
        with pytest.raises(ValueError):
            GlobalArray("a", 1, [1, 2])

    def test_copy_owns_its_values(self):
        g = GlobalArray("a", 3, [0xFFFFFFFF, 7])
        clone = g.copy()
        assert (clone.name, clone.size, clone.init) == ("a", 3, [-1, 7, 0])
        clone.init[1] = 9
        assert g.init == [-1, 7, 0]


class TestModule:
    def test_duplicate_function_rejected(self):
        module = Module()
        module.add_function(Function("f"))
        with pytest.raises(ValueError):
            module.add_function(Function("f"))

    def test_duplicate_global_rejected(self):
        module = Module()
        module.add_global(GlobalArray("g", 1))
        with pytest.raises(ValueError):
            module.add_global(GlobalArray("g", 2))

    def test_lookup(self):
        module = Module()
        func = module.add_function(Function("f"))
        assert module.function("f") is func
