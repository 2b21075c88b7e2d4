"""Semantic analysis for MiniC.

Everything is a 32-bit ``int``, so "type checking" reduces to shape rules:

* names must be declared before use (params, locals, global scalars);
* indexing is only valid on global arrays, and arrays are only valid when
  indexed (no array-to-pointer decay);
* calls must target a defined function with matching arity; calls to
  ``void`` functions cannot be used as values;
* functions declared ``int`` must return a value on every ``return``;
* ``break``/``continue`` must be inside a loop;
* local names may shadow globals but not be redeclared in the same scope;
* an array holds at most :data:`MAX_ARRAY_WORDS` words, and all arrays
  together at most :data:`MAX_TOTAL_WORDS`: lowering allocates every
  word up front.

The checker also annotates the program with a :class:`SymbolTable` the IR
generator consumes, avoiding a second resolution pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from . import ast_nodes as ast
from .errors import SemanticError

#: Words one global array may hold, and all of them together.  The
#: largest workload array has 4,096 words; these limits only stop a
#: declaration from allocating gigabytes when it is lowered.
MAX_ARRAY_WORDS = 1 << 20
MAX_TOTAL_WORDS = 1 << 22


@dataclass
class FunctionSignature:
    name: str
    num_params: int
    returns_value: bool


@dataclass
class SymbolTable:
    """Resolved global information of a program."""

    scalars: Set[str] = field(default_factory=set)
    arrays: Dict[str, int] = field(default_factory=dict)   # name -> size
    functions: Dict[str, FunctionSignature] = field(default_factory=dict)


class _FunctionChecker:
    def __init__(self, symbols: SymbolTable, func: ast.FuncDef) -> None:
        self.symbols = symbols
        self.func = func
        self.scopes: List[Set[str]] = [set(p.name for p in func.params)]
        if len(self.scopes[0]) != len(func.params):
            raise SemanticError(f"duplicate parameter in {func.name}",
                                func.line)
        self.loop_depth = 0

    # ------------------------------------------------------------------
    def _declared(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def _declare(self, name: str, line: int) -> None:
        if name in self.scopes[-1]:
            raise SemanticError(f"redeclaration of {name!r}", line)
        if name in self.symbols.arrays:
            raise SemanticError(
                f"local {name!r} shadows a global array", line)
        self.scopes[-1].add(name)

    # ------------------------------------------------------------------
    def check(self) -> None:
        self._check_block(self.func.body, new_scope=False)

    def _check_block(self, block: ast.Block, new_scope: bool = True) -> None:
        if new_scope:
            self.scopes.append(set())
        for stmt in block.statements:
            self._check_stmt(stmt)
        if new_scope:
            self.scopes.pop()

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt)
        elif isinstance(stmt, ast.Decl):
            if stmt.init is not None:
                self._check_expr(stmt.init)
            self._declare(stmt.name, stmt.line)
        elif isinstance(stmt, ast.Assign):
            self._check_expr(stmt.value)
            self._check_assign_target(stmt.target)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, allow_void_call=True)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.cond)
            self._check_block(stmt.then_body)
            if stmt.else_body is not None:
                self._check_block(stmt.else_body)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.cond)
            self.loop_depth += 1
            self._check_block(stmt.body)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.For):
            self.scopes.append(set())
            if stmt.init is not None:
                self._check_stmt(stmt.init)
            if stmt.cond is not None:
                self._check_expr(stmt.cond)
            self.loop_depth += 1
            self._check_block(stmt.body)
            self.loop_depth -= 1
            if stmt.step is not None:
                self._check_stmt(stmt.step)
            self.scopes.pop()
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                if not self.func.returns_value:
                    raise SemanticError(
                        f"void function {self.func.name!r} returns a value",
                        stmt.line)
                self._check_expr(stmt.value)
            elif self.func.returns_value:
                raise SemanticError(
                    f"function {self.func.name!r} must return a value",
                    stmt.line)
        elif isinstance(stmt, ast.Break):
            if self.loop_depth == 0:
                raise SemanticError("break outside a loop", stmt.line)
        elif isinstance(stmt, ast.Continue):
            if self.loop_depth == 0:
                raise SemanticError("continue outside a loop", stmt.line)
        else:  # pragma: no cover - parser produces no other nodes
            raise SemanticError(f"unknown statement {stmt!r}", stmt.line)

    def _check_assign_target(self, target) -> None:
        if isinstance(target, ast.Name):
            name = target.ident
            if self._declared(name) or name in self.symbols.scalars:
                return
            if name in self.symbols.arrays:
                raise SemanticError(
                    f"cannot assign to array {name!r} without an index",
                    target.line)
            raise SemanticError(f"assignment to undeclared {name!r}",
                                target.line)
        elif isinstance(target, ast.Index):
            self._check_index(target)
        else:  # pragma: no cover - parser enforces lvalue shapes
            raise SemanticError("invalid assignment target", target.line)

    def _check_index(self, expr: ast.Index) -> None:
        if expr.array not in self.symbols.arrays:
            raise SemanticError(f"{expr.array!r} is not a global array",
                                expr.line)
        self._check_expr(expr.index)

    def _check_expr(self, expr: ast.Expr,
                    allow_void_call: bool = False) -> None:
        if isinstance(expr, ast.IntLit):
            return
        if isinstance(expr, ast.Name):
            name = expr.ident
            if self._declared(name) or name in self.symbols.scalars:
                return
            if name in self.symbols.arrays:
                raise SemanticError(
                    f"array {name!r} used without an index", expr.line)
            raise SemanticError(f"use of undeclared {name!r}", expr.line)
        if isinstance(expr, ast.Index):
            self._check_index(expr)
            return
        if isinstance(expr, ast.Unary):
            self._check_expr(expr.operand)
            return
        if isinstance(expr, ast.Binary):
            self._check_expr(expr.left)
            self._check_expr(expr.right)
            return
        if isinstance(expr, ast.Ternary):
            self._check_expr(expr.cond)
            self._check_expr(expr.if_true)
            self._check_expr(expr.if_false)
            return
        if isinstance(expr, ast.Call):
            sig = self.symbols.functions.get(expr.callee)
            if sig is None:
                raise SemanticError(f"call to unknown function "
                                    f"{expr.callee!r}", expr.line)
            if len(expr.args) != sig.num_params:
                raise SemanticError(
                    f"{expr.callee!r} expects {sig.num_params} argument(s), "
                    f"got {len(expr.args)}", expr.line)
            if not sig.returns_value and not allow_void_call:
                raise SemanticError(
                    f"void function {expr.callee!r} used as a value",
                    expr.line)
            for arg in expr.args:
                self._check_expr(arg)
            return
        raise SemanticError(f"unknown expression {expr!r}",
                            getattr(expr, "line", 0))


def analyze(program: ast.Program) -> SymbolTable:
    """Check *program*; return its symbol table.

    Raises :class:`SemanticError` on the first problem found.
    """
    symbols = SymbolTable()
    total = 0
    for decl in program.globals:
        if decl.name in symbols.scalars or decl.name in symbols.arrays:
            raise SemanticError(f"redefinition of global {decl.name!r}",
                                decl.line)
        if decl.size is None:
            symbols.scalars.add(decl.name)
        else:
            if decl.size <= 0:
                raise SemanticError(f"array {decl.name!r} must have "
                                    f"positive size", decl.line)
            if decl.size > MAX_ARRAY_WORDS:
                raise SemanticError(
                    f"array {decl.name!r} has {decl.size} words; the "
                    f"limit is {MAX_ARRAY_WORDS}", decl.line)
            total += decl.size
            if total > MAX_TOTAL_WORDS:
                raise SemanticError(
                    f"array {decl.name!r} brings the arrays to {total} "
                    f"words; the limit is {MAX_TOTAL_WORDS}", decl.line)
            if decl.init is not None and len(decl.init) > decl.size:
                raise SemanticError(
                    f"too many initialisers for {decl.name!r}", decl.line)
            symbols.arrays[decl.name] = decl.size

    for func in program.functions:
        if func.name in symbols.functions:
            raise SemanticError(f"redefinition of function {func.name!r}",
                                func.line)
        if (func.name in symbols.scalars
                or func.name in symbols.arrays):
            raise SemanticError(
                f"function {func.name!r} collides with a global", func.line)
        symbols.functions[func.name] = FunctionSignature(
            name=func.name,
            num_params=len(func.params),
            returns_value=func.returns_value,
        )

    for func in program.functions:
        _FunctionChecker(symbols, func).check()
    return symbols
