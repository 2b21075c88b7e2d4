"""Tests for MiniC semantic analysis."""

from __future__ import annotations

import pytest

from repro.frontend import SemanticError, analyze, parse
from repro.frontend.sema import MAX_ARRAY_WORDS, MAX_TOTAL_WORDS


def check(source):
    return analyze(parse(source))


class TestDeclarations:
    def test_symbols_collected(self):
        symbols = check("int g; int a[4]; int f(int x) { return x; }")
        assert "g" in symbols.scalars
        assert symbols.arrays["a"] == 4
        assert symbols.functions["f"].num_params == 1

    def test_duplicate_global(self):
        with pytest.raises(SemanticError):
            check("int g; int g;")

    def test_duplicate_function(self):
        with pytest.raises(SemanticError):
            check("void f() {} void f() {}")

    def test_function_global_collision(self):
        with pytest.raises(SemanticError):
            check("int f; void f() {}")

    def test_zero_size_array(self):
        with pytest.raises(SemanticError):
            check("int a[0];")

    def test_too_many_initialisers(self):
        with pytest.raises(SemanticError):
            check("int a[2] = {1, 2, 3};")


class TestNames:
    def test_undeclared_use(self):
        with pytest.raises(SemanticError):
            check("int f() { return nope; }")

    def test_undeclared_assignment(self):
        with pytest.raises(SemanticError):
            check("void f() { x = 1; }")

    def test_redeclaration_same_scope(self):
        with pytest.raises(SemanticError):
            check("void f() { int x; int x; }")

    def test_shadowing_in_nested_scope_ok(self):
        check("void f() { int x; { int x; x = 1; } x = 2; }")

    def test_scope_ends_at_block(self):
        with pytest.raises(SemanticError):
            check("void f() { { int x; } x = 1; }")

    def test_params_visible(self):
        check("int f(int a) { return a + 1; }")

    def test_duplicate_params(self):
        with pytest.raises(SemanticError):
            check("int f(int a, int a) { return a; }")


class TestArrays:
    def test_array_needs_index(self):
        with pytest.raises(SemanticError):
            check("int a[4]; int f() { return a; }")

    def test_index_on_non_array(self):
        with pytest.raises(SemanticError):
            check("int g; int f() { return g[0]; }")

    def test_assign_to_whole_array(self):
        with pytest.raises(SemanticError):
            check("int a[4]; void f() { a = 1; }")

    def test_global_scalar_assignment_ok(self):
        check("int g; void f() { g = 1; }")

    def test_local_cannot_shadow_array(self):
        with pytest.raises(SemanticError):
            check("int a[4]; void f() { int a; }")

    def test_array_size_limit(self):
        """Sema rejects the size before lowering would allocate it."""
        check(f"int a[{MAX_ARRAY_WORDS}]; void f() {{ }}")
        with pytest.raises(SemanticError,
                           match=f"array 'a' has 4000000000 words; "
                                 f"the limit is {MAX_ARRAY_WORDS}"):
            check("int a[4000000000]; void f() { }")

    def test_total_words_limit(self):
        arrays = " ".join(f"int a{k}[{MAX_ARRAY_WORDS}];"
                          for k in range(MAX_TOTAL_WORDS
                                         // MAX_ARRAY_WORDS))
        check(arrays + " void f() { }")
        with pytest.raises(SemanticError,
                           match=f"array 'z' brings the arrays to "
                                 f"{MAX_TOTAL_WORDS + 1} words; the "
                                 f"limit is {MAX_TOTAL_WORDS}"):
            check(arrays + " int z[1]; void f() { }")


class TestCalls:
    def test_arity_mismatch(self):
        with pytest.raises(SemanticError):
            check("int g(int x) { return x; } void f() { g(1, 2); }")

    def test_unknown_function(self):
        with pytest.raises(SemanticError):
            check("void f() { nothing(); }")

    def test_void_as_value(self):
        with pytest.raises(SemanticError):
            check("void g() {} int f() { return g(); }")

    def test_void_call_statement_ok(self):
        check("void g() {} void f() { g(); }")


class TestReturnsAndLoops:
    def test_void_returns_value(self):
        with pytest.raises(SemanticError):
            check("void f() { return 1; }")

    def test_int_returns_nothing(self):
        with pytest.raises(SemanticError):
            check("int f() { return; }")

    def test_break_outside_loop(self):
        with pytest.raises(SemanticError):
            check("void f() { break; }")

    def test_continue_outside_loop(self):
        with pytest.raises(SemanticError):
            check("void f() { continue; }")

    def test_break_in_loop_ok(self):
        check("void f() { while (1) { break; } }")
