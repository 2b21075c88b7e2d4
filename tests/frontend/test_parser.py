"""Tests for the MiniC parser."""

from __future__ import annotations

import pytest

from repro.frontend import ParseError, parse
from repro.frontend import ast_nodes as ast


class TestTopLevel:
    def test_global_scalar(self):
        prog = parse("int g;")
        assert prog.globals[0].name == "g"
        assert prog.globals[0].size is None

    def test_global_with_init(self):
        prog = parse("int g = -5;")
        assert prog.globals[0].init == [-5]

    def test_global_array(self):
        prog = parse("int a[4] = {1, 2, 3, 4};")
        decl = prog.globals[0]
        assert decl.size == 4 and decl.init == [1, 2, 3, 4]

    def test_trailing_comma_in_initialiser(self):
        prog = parse("int a[2] = {1, 2,};")
        assert prog.globals[0].init == [1, 2]

    def test_function_params(self):
        prog = parse("int f(int a, int b) { return a; }")
        func = prog.functions[0]
        assert [p.name for p in func.params] == ["a", "b"]
        assert func.returns_value

    def test_void_function(self):
        prog = parse("void f() { }")
        assert not prog.functions[0].returns_value

    def test_void_param_list(self):
        prog = parse("int f(void) { return 0; }")
        assert prog.functions[0].params == []

    def test_junk_at_top_level(self):
        with pytest.raises(ParseError):
            parse("return 1;")


class TestStatements:
    def _body(self, stmts):
        return parse("void f() { " + stmts + " }").functions[0].body

    def test_declaration_list(self):
        body = self._body("int a = 1, b;")
        inner = body.statements[0]
        assert isinstance(inner, ast.Block)
        assert [d.name for d in inner.statements] == ["a", "b"]

    def test_if_else(self):
        body = self._body("if (1) { } else { }")
        stmt = body.statements[0]
        assert isinstance(stmt, ast.If) and stmt.else_body is not None

    def test_if_without_braces(self):
        body = self._body("if (1) return;")
        stmt = body.statements[0]
        assert isinstance(stmt.then_body, ast.Block)

    def test_dangling_else_binds_inner(self):
        body = self._body("if (1) if (2) return; else return;")
        outer = body.statements[0]
        assert outer.else_body is None
        inner = outer.then_body.statements[0]
        assert inner.else_body is not None

    def test_for_loop_parts(self):
        body = self._body("int i; for (i = 0; i < 4; i++) { }")
        loop = body.statements[1]
        assert isinstance(loop, ast.For)
        assert loop.init is not None and loop.cond is not None
        assert isinstance(loop.step, ast.Assign)

    def test_for_with_decl_init(self):
        body = self._body("for (int i = 0; i < 4; i++) { }")
        loop = body.statements[0]
        assert isinstance(loop.init, ast.Decl)

    def test_empty_for_parts(self):
        body = self._body("for (;;) { break; }")
        loop = body.statements[0]
        assert loop.init is None and loop.cond is None and loop.step is None

    def test_compound_assignment_desugars(self):
        body = self._body("int x; x += 3;")
        assign = body.statements[1]
        assert isinstance(assign, ast.Assign)
        assert isinstance(assign.value, ast.Binary)
        assert assign.value.op == "+"

    def test_increment_desugars(self):
        body = self._body("int x; x++;")
        assign = body.statements[1]
        assert isinstance(assign.value, ast.Binary)
        assert assign.value.op == "+"
        assert isinstance(assign.value.right, ast.IntLit)

    def test_assignment_to_rvalue_rejected(self):
        with pytest.raises(ParseError):
            self._body("1 = 2;")


class TestExpressions:
    def _expr(self, text):
        prog = parse(f"int f(int a, int b, int c) {{ return {text}; }}")
        return prog.functions[0].body.statements[0].value

    def test_precedence_mul_over_add(self):
        e = self._expr("a + b * c")
        assert e.op == "+" and e.right.op == "*"

    def test_precedence_shift_vs_compare(self):
        e = self._expr("a << 2 < b")
        assert e.op == "<" and e.left.op == "<<"

    def test_left_associativity(self):
        e = self._expr("a - b - c")
        assert e.op == "-" and e.left.op == "-"

    def test_parentheses(self):
        e = self._expr("(a + b) * c")
        assert e.op == "*" and e.left.op == "+"

    def test_ternary_right_associative(self):
        e = self._expr("a ? 1 : b ? 2 : 3")
        assert isinstance(e, ast.Ternary)
        assert isinstance(e.if_false, ast.Ternary)

    def test_unary_chain(self):
        e = self._expr("-~!a")
        assert e.op == "-" and e.operand.op == "~" \
            and e.operand.operand.op == "!"

    def test_logical_precedence(self):
        e = self._expr("a == 1 && b == 2 || c")
        assert e.op == "||" and e.left.op == "&&"

    def test_call_and_index(self):
        prog = parse("""
            int t[4];
            int g(int x) { return x; }
            int f(int a) { return g(t[a + 1]); }
        """)
        ret = prog.functions[1].body.statements[0]
        call = ret.value
        assert isinstance(call, ast.Call) and call.callee == "g"
        assert isinstance(call.args[0], ast.Index)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            self._expr("(a + b")


class TestNestingLimit:
    """Deep nesting is a ParseError with a position, never a
    RecursionError, in the parser or in sema/irgen after it."""

    HOSTILE = {
        "parentheses": "int f(int x) { return " + "(" * 200 + "x"
                       + ")" * 200 + "; }",
        "ifs": "int f(int x) { " + "if (x) " * 400 + "x = 1; return x; }",
        "blocks": "int f(int x) { " + "{" * 1000 + "}" * 1000
                  + " return x; }",
        "unary-minuses": "int f(int x) { return " + "- " * 1000 + "x; }",
        "plus-chain": "int f(int x) { return x" + " + x" * 1000 + "; }",
        "parenthesised-chains": "int f(int x) { return " + "(" * 30 + "x"
                                + " + x + x + x + x + x)" * 30 + "; }",
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_deep_source_is_a_parse_error(self, case):
        from repro.frontend import compile_source

        with pytest.raises(ParseError, match="nesting deeper than") as err:
            compile_source(self.HOSTILE[case])
        assert err.value.line == 1

    def test_nesting_at_the_limit_compiles(self):
        from repro.frontend import compile_source
        from repro.frontend.parser import MAX_NESTING

        # A chain whose tree is as deep as the limit allows (function,
        # block and return take three levels) goes through sema and
        # irgen.
        folds = MAX_NESTING - 4
        compile_source("int f(int x) { return x" + " + x" * folds + "; }")
        with pytest.raises(ParseError):
            compile_source("int f(int x) { return x"
                           + " + x" * (folds + 1) + "; }")

    def test_every_workload_compiles(self):
        from repro.frontend import compile_source
        from repro.workloads import WORKLOADS

        for workload in WORKLOADS.values():
            compile_source(workload.source)
