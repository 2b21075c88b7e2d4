"""Tests for the if-conversion pass."""

from __future__ import annotations

import pytest

from repro.analysis import errors_of, verify_function
from repro.frontend import compile_source
from repro.interp import execute
from repro.ir import Opcode
from repro.passes import IfConverter, optimize_module
from repro.passes.pass_manager import optimize_function


def compile_and_convert(source, speculate_loads=True):
    module = compile_source(source)
    optimize_module(module)   # default pipeline includes if-conversion
    return module


def count_blocks(module, func):
    return len(module.functions[func].blocks)


def count_selects(module, func):
    return sum(1 for insn in module.functions[func].instructions()
               if insn.opcode is Opcode.SELECT)


class TestDiamond:
    SRC = """
    int f(int a, int b) {
      int r;
      if (a > b) { r = a - b; } else { r = b - a; }
      return r;
    }
    """

    def test_collapses_to_one_block(self):
        module = compile_and_convert(self.SRC)
        assert count_blocks(module, "f") == 1

    def test_produces_select(self):
        module = compile_and_convert(self.SRC)
        assert count_selects(module, "f") == 1

    @pytest.mark.parametrize("a,b", [(5, 3), (3, 5), (4, 4), (-2, 7)])
    def test_semantics_preserved(self, a, b):
        plain = compile_source(self.SRC)
        converted = compile_and_convert(self.SRC)
        assert execute(plain, "f", [a, b]).value == \
            execute(converted, "f", [a, b]).value


class TestTriangle:
    SRC = """
    int f(int a) {
      int r = a;
      if (a < 0) { r = -a; }
      return r;
    }
    """

    def test_collapses(self):
        module = compile_and_convert(self.SRC)
        assert count_blocks(module, "f") == 1
        assert count_selects(module, "f") == 1

    @pytest.mark.parametrize("a", [5, -5, 0])
    def test_abs_semantics(self, a):
        module = compile_and_convert(self.SRC)
        assert execute(module, "f", [a]).value == abs(a)


class TestGuards:
    def test_stores_not_speculated(self):
        src = """
        int m[4];
        void f(int a) {
          if (a > 0) { m[0] = a; }
        }
        """
        module = compile_and_convert(src)
        # The store arm cannot be converted: branch remains.
        assert count_blocks(module, "f") > 1

    def test_calls_not_speculated(self):
        src = """
        int g(int x) { return x; }
        int f(int a) {
          int r = 0;
          if (a > 0) { r = g(a); }
          return r;
        }
        """
        module = compile_and_convert(src)
        assert count_blocks(module, "f") > 1

    def test_loads_speculated_by_default(self):
        src = """
        int t[4] = {1, 2, 3, 4};
        int f(int a) {
          int r = 0;
          if (a > 0) { r = t[a & 3]; }
          return r;
        }
        """
        module = compile_and_convert(src)
        assert count_blocks(module, "f") == 1

    def test_loads_not_speculated_when_disabled(self):
        src = """
        int t[4] = {1, 2, 3, 4};
        int f(int a) {
          int r = 0;
          if (a > 0) { r = t[a & 3]; }
          return r;
        }
        """
        module = compile_source(src)
        for func in module.functions.values():
            optimize_function(func, if_convert=False)
            IfConverter(speculate_loads=False).run(func)
        assert count_blocks(module, "f") > 1

    def test_size_guard(self):
        # 12 assignments in the arm; with max_speculated=4 nothing fires.
        body = "; ".join(f"r = r + {i}" for i in range(12))
        src = f"""
        int f(int a) {{
          int r = 0;
          if (a > 0) {{ {body}; }}
          return r;
        }}
        """
        module = compile_source(src)
        func = module.functions["f"]
        optimize_function(func, if_convert=False)
        before = len(func.blocks)
        IfConverter(max_speculated=4).run(func)
        assert len(func.blocks) == before


class TestNestedAndChained:
    def test_nested_diamonds_fully_convert(self):
        src = """
        int f(int a, int b) {
          int r;
          if (a > 0) {
            r = (b > 0) ? a + b : a - b;
          } else {
            r = (b > 0) ? b - a : -a - b;
          }
          return r;
        }
        """
        module = compile_and_convert(src)
        assert count_blocks(module, "f") == 1
        assert count_selects(module, "f") >= 3
        for a in (-2, 0, 3):
            for b in (-1, 0, 4):
                expected = (a + b if b > 0 else a - b) if a > 0 else \
                    (b - a if b > 0 else -a - b)
                assert execute(module, "f", [a, b]).value == expected

    def test_condition_clobber_guard(self):
        # The merged register is also the branch condition.
        src = """
        int f(int c) {
          if (c > 0) { c = c - 1; } else { c = c + 1; }
          return c;
        }
        """
        module = compile_and_convert(src)
        assert execute(module, "f", [5]).value == 4
        assert execute(module, "f", [-5]).value == -4

    def test_adpcm_decode_body_is_one_block(self, adpcm_decode_app):
        # The paper's Fig. 3: the whole decoder loop body if-converts.
        func = adpcm_decode_app.module.functions["adpcm_decode"]
        body_blocks = [b for b in func.blocks
                       if b.label.startswith("for_body")]
        assert len(body_blocks) == 1
        selects = sum(1 for i in body_blocks[0].instructions
                      if i.opcode is Opcode.SELECT)
        assert selects >= 8

    def test_functions_verify_after_conversion(self, adpcm_encode_app):
        for func in adpcm_encode_app.module.functions.values():
            assert errors_of(verify_function(
                func, adpcm_encode_app.module)) == []
