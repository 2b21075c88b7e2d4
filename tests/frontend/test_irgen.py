"""Tests for AST -> IR lowering, checked by executing the result."""

from __future__ import annotations

import pytest

from repro.analysis import errors_of, verify_function
from repro.frontend import compile_source
from repro.interp import execute
from repro.passes import optimize_module


def run(source, func, args=(), optimize=False):
    module = compile_source(source)
    if optimize:
        optimize_module(module)
    for f in module.functions.values():
        assert errors_of(verify_function(f, module)) == []
    return execute(module, func, args).value


class TestExpressions:
    @pytest.mark.parametrize("expr,expected", [
        ("1 + 2 * 3", 7),
        ("(1 + 2) * 3", 9),
        ("10 / 3", 3),
        ("-10 / 3", -3),          # C truncates toward zero
        ("10 % 3", 1),
        ("-10 % 3", -1),
        ("1 << 4", 16),
        ("-8 >> 1", -4),          # arithmetic shift
        ("5 & 3", 1),
        ("5 | 2", 7),
        ("5 ^ 1", 4),
        ("~0", -1),
        ("!5", 0),
        ("!0", 1),
        ("-(3)", -3),
        ("3 < 4", 1),
        ("4 <= 3", 0),
        ("2147483647 + 1", -2147483648),   # wraparound
    ])
    def test_constant_expressions(self, expr, expected):
        assert run(f"int f() {{ return {expr}; }}", "f") == expected

    @pytest.mark.parametrize("expr,a,expected", [
        ("a ? 10 : 20", 1, 10),
        ("a ? 10 : 20", 0, 20),
        ("a && (a > 2)", 3, 1),
        ("a && (a > 2)", 1, 0),
        ("a || (a > 2)", 0, 0),
        ("(a == 0) || (a > 2)", 0, 1),
    ])
    def test_conditional_expressions(self, expr, a, expected):
        src = f"int f(int a) {{ return {expr}; }}"
        assert run(src, "f", [a]) == expected

    def test_short_circuit_skips_side_effect(self):
        # Division by zero on the right of && must not execute.
        src = "int f(int a) { return (a != 0) && (10 / a > 1); }"
        assert run(src, "f", [0]) == 0
        assert run(src, "f", [5]) == 1


class TestControlFlow:
    def test_while_loop(self):
        src = """
        int f(int n) {
          int s = 0;
          int i = 0;
          while (i < n) { s += i; i++; }
          return s;
        }
        """
        assert run(src, "f", [5]) == 10

    def test_for_with_break_continue(self):
        src = """
        int f(int n) {
          int s = 0;
          int i;
          for (i = 0; i < n; i++) {
            if (i == 2) continue;
            if (i == 5) break;
            s += i;
          }
          return s;
        }
        """
        assert run(src, "f", [10]) == 0 + 1 + 3 + 4

    def test_nested_loops(self):
        src = """
        int f(int n) {
          int s = 0;
          int i; int j;
          for (i = 0; i < n; i++)
            for (j = 0; j < i; j++)
              s++;
          return s;
        }
        """
        assert run(src, "f", [5]) == 10

    def test_early_return(self):
        src = """
        int f(int a) {
          if (a > 0) return 1;
          return -1;
        }
        """
        assert run(src, "f", [5]) == 1
        assert run(src, "f", [-5]) == -1


class TestMemoryAndCalls:
    def test_global_arrays(self):
        src = """
        int a[4] = {10, 20, 30, 40};
        int f(int i) { a[i] = a[i] + 1; return a[i]; }
        """
        assert run(src, "f", [2]) == 31

    def test_global_scalar(self):
        src = """
        int g = 7;
        int f() { g += 1; return g; }
        """
        assert run(src, "f") == 8

    def test_function_calls(self):
        src = """
        int square(int x) { return x * x; }
        int f(int a) { return square(a) + square(a + 1); }
        """
        assert run(src, "f", [3]) == 9 + 16

    def test_recursion(self):
        src = """
        int fact(int n) {
          if (n <= 1) return 1;
          return n * fact(n - 1);
        }
        """
        assert run(src, "fact", [6]) == 720

    def test_shadowed_variables(self):
        src = """
        int f(int a) {
          int x = a;
          { int x = 100; x += 1; }
          return x;
        }
        """
        assert run(src, "f", [7]) == 7


class TestOptimizedEquivalence:
    """Optimisation must not change observable results."""

    @pytest.mark.parametrize("args", [[0], [1], [7], [-3], [100]])
    def test_mixed_program(self, args):
        src = """
        int table[8] = {3, 1, 4, 1, 5, 9, 2, 6};
        int f(int a) {
          int s = 0;
          int i;
          for (i = 0; i < 8; i++) {
            int v = table[i];
            s += (v > a) ? v - a : a - v;
            if (s > 100 && v != 2) s = s - 50;
          }
          return s;
        }
        """
        plain = run(src, "f", args, optimize=False)
        optimized = run(src, "f", args, optimize=True)
        assert plain == optimized
