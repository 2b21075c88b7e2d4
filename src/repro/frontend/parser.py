"""Recursive-descent parser for MiniC.

Grammar (informal):

    program   := (global | function)*
    global    := 'int' IDENT ('[' const ']')? ('=' ginit)? ';'
    ginit     := const | '{' const (',' const)* ','? '}'
    function  := ('int'|'void') IDENT '(' params? ')' block
    params    := 'int' IDENT (',' 'int' IDENT)*
    block     := '{' stmt* '}'
    stmt      := block | decl | if | while | for | return | break ';'
               | continue ';' | exprstmt
    decl      := 'int' IDENT ('=' expr)? (',' IDENT ('=' expr)?)* ';'
    exprstmt  := assignment-or-expression ';'

Expressions use standard C precedence; compound assignments and ``++``/
``--`` statements are desugared into plain assignments here, so the rest
of the pipeline only sees simple ``Assign`` nodes.

Deep nesting is a :class:`ParseError`, never a ``RecursionError``: the
parser's own recursion and the depth of each function's tree (where
long operator chains nest, built in a loop) are bounded by
:data:`MAX_NESTING`, so sema and irgen never recurse past it either.
"""

from __future__ import annotations

from typing import List

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import Token, TokenKind, tokenize

#: Deepest nesting accepted; the registered workloads nest 15 deep.
MAX_NESTING = 100

# Binary operator precedence, tighter binds higher.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_COMPOUND_OPS = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # ------------------------------------------------------------------
    # Token plumbing.
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.current
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect_punct(self, text: str) -> Token:
        if not self.current.is_punct(text):
            raise ParseError(f"expected {text!r}, found {self.current.text!r}",
                             self.current.line, self.current.column)
        return self._advance()

    def _expect_keyword(self, text: str) -> Token:
        if not self.current.is_keyword(text):
            raise ParseError(f"expected {text!r}, found {self.current.text!r}",
                             self.current.line, self.current.column)
        return self._advance()

    def _expect_ident(self) -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected identifier, found {self.current.text!r}",
                self.current.line, self.current.column)
        return self._advance()

    def _accept_punct(self, text: str) -> bool:
        if self.current.is_punct(text):
            self._advance()
            return True
        return False

    def _nest(self) -> None:
        """Enter one level of recursion (``self.depth -= 1`` leaves)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.current
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             tok.line, tok.column)

    # ------------------------------------------------------------------
    # Top level.
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        program = ast.Program(line=1)
        while self.current.kind is not TokenKind.EOF:
            if self.current.is_keyword("int") or self.current.is_keyword(
                    "void"):
                self._parse_top_decl(program)
            else:
                raise ParseError(
                    f"expected declaration, found {self.current.text!r}",
                    self.current.line, self.current.column)
        _check_depth(program)
        return program

    def _parse_top_decl(self, program: ast.Program) -> None:
        type_tok = self._advance()          # 'int' or 'void'
        returns_value = type_tok.text == "int"
        name_tok = self._expect_ident()
        if self.current.is_punct("("):
            program.functions.append(
                self._parse_function(name_tok, returns_value))
            return
        if not returns_value:
            raise ParseError("void is only valid for functions",
                             type_tok.line, type_tok.column)
        program.globals.append(self._parse_global(name_tok))

    def _parse_global(self, name_tok: Token) -> ast.GlobalDecl:
        decl = ast.GlobalDecl(line=name_tok.line, name=name_tok.text)
        if self._accept_punct("["):
            decl.size = self._parse_const_int()
            self._expect_punct("]")
        if self._accept_punct("="):
            if self._accept_punct("{"):
                values = [self._parse_const_int()]
                while self._accept_punct(","):
                    if self.current.is_punct("}"):
                        break               # trailing comma
                    values.append(self._parse_const_int())
                self._expect_punct("}")
                decl.init = values
            else:
                decl.init = [self._parse_const_int()]
        self._expect_punct(";")
        return decl

    def _parse_const_int(self) -> int:
        negative = False
        while True:
            if self._accept_punct("-"):
                negative = not negative
            elif self._accept_punct("+"):
                pass
            else:
                break
        tok = self.current
        if tok.kind is not TokenKind.INT_LIT:
            raise ParseError(
                f"expected integer constant, found {tok.text!r}",
                tok.line, tok.column)
        self._advance()
        return -tok.value if negative else tok.value

    def _parse_function(self, name_tok: Token,
                        returns_value: bool) -> ast.FuncDef:
        func = ast.FuncDef(line=name_tok.line, name=name_tok.text,
                           returns_value=returns_value)
        self._expect_punct("(")
        if not self.current.is_punct(")"):
            if self.current.is_keyword("void") and \
                    self.tokens[self.pos + 1].is_punct(")"):
                self._advance()
            else:
                while True:
                    self._expect_keyword("int")
                    param_tok = self._expect_ident()
                    func.params.append(ast.Param(line=param_tok.line,
                                                 name=param_tok.text))
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        func.body = self._parse_block()
        return func

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------
    def _parse_block(self) -> ast.Block:
        self._nest()
        open_tok = self._expect_punct("{")
        block = ast.Block(line=open_tok.line)
        while not self.current.is_punct("}"):
            if self.current.kind is TokenKind.EOF:
                raise ParseError("unterminated block",
                                 open_tok.line, open_tok.column)
            block.statements.append(self._parse_statement())
        self._expect_punct("}")
        self.depth -= 1
        return block

    def _parse_statement(self) -> ast.Stmt:
        tok = self.current
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_keyword("int"):
            return self._parse_decl()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("return"):
            self._advance()
            value = None
            if not self.current.is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return ast.Return(line=tok.line, value=value)
        if tok.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return ast.Break(line=tok.line)
        if tok.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ast.Continue(line=tok.line)
        stmt = self._parse_simple_statement()
        self._expect_punct(";")
        return stmt

    def _parse_decl(self) -> ast.Block:
        """One ``int a = e, b;`` line, normalised to a block of Decls."""
        int_tok = self._expect_keyword("int")
        block = ast.Block(line=int_tok.line)
        while True:
            name_tok = self._expect_ident()
            init = None
            if self._accept_punct("="):
                init = self._parse_expression()
            block.statements.append(
                ast.Decl(line=name_tok.line, name=name_tok.text, init=init))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        if len(block.statements) == 1:
            return block.statements[0]
        return block

    def _parse_if(self) -> ast.If:
        self._nest()
        if_tok = self._expect_keyword("if")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then_body = self._as_block(self._parse_statement())
        else_body = None
        if self.current.is_keyword("else"):
            self._advance()
            else_body = self._as_block(self._parse_statement())
        self.depth -= 1
        return ast.If(line=if_tok.line, cond=cond, then_body=then_body,
                      else_body=else_body)

    def _parse_while(self) -> ast.While:
        self._nest()
        while_tok = self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._as_block(self._parse_statement())
        self.depth -= 1
        return ast.While(line=while_tok.line, cond=cond, body=body)

    def _parse_for(self) -> ast.For:
        self._nest()
        for_tok = self._expect_keyword("for")
        self._expect_punct("(")
        init = None
        if not self.current.is_punct(";"):
            if self.current.is_keyword("int"):
                init = self._parse_decl()
                # _parse_decl consumed the ';'
            else:
                init = self._parse_simple_statement()
                self._expect_punct(";")
        else:
            self._expect_punct(";")
        cond = None
        if not self.current.is_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step = None
        if not self.current.is_punct(")"):
            step = self._parse_simple_statement()
        self._expect_punct(")")
        body = self._as_block(self._parse_statement())
        self.depth -= 1
        return ast.For(line=for_tok.line, init=init, cond=cond, step=step,
                       body=body)

    @staticmethod
    def _as_block(stmt: ast.Stmt) -> ast.Block:
        if isinstance(stmt, ast.Block):
            return stmt
        return ast.Block(line=stmt.line, statements=[stmt])

    def _parse_simple_statement(self) -> ast.Stmt:
        """Assignment, compound assignment, ++/--, or bare expression."""
        start = self.pos
        expr = self._parse_expression()
        tok = self.current
        if tok.is_punct("="):
            self._advance()
            value = self._parse_expression()
            return ast.Assign(line=tok.line,
                              target=self._check_lvalue(expr, tok),
                              value=value)
        if tok.kind is TokenKind.PUNCT and tok.text in _COMPOUND_OPS:
            self._advance()
            rhs = self._parse_expression()
            target = self._check_lvalue(expr, tok)
            combined = ast.Binary(line=tok.line, op=_COMPOUND_OPS[tok.text],
                                  left=self._reload(target), right=rhs)
            return ast.Assign(line=tok.line, target=target, value=combined)
        if tok.is_punct("++") or tok.is_punct("--"):
            self._advance()
            target = self._check_lvalue(expr, tok)
            op = "+" if tok.text == "++" else "-"
            combined = ast.Binary(line=tok.line, op=op,
                                  left=self._reload(target),
                                  right=ast.IntLit(line=tok.line, value=1))
            return ast.Assign(line=tok.line, target=target, value=combined)
        return ast.ExprStmt(line=self.tokens[start].line, expr=expr)

    @staticmethod
    def _check_lvalue(expr: ast.Expr, tok: Token):
        if isinstance(expr, (ast.Name, ast.Index)):
            return expr
        raise ParseError("assignment target must be a variable or an array "
                         "element", tok.line, tok.column)

    @staticmethod
    def _reload(target):
        """A fresh read of an lvalue, for compound-assignment desugaring."""
        if isinstance(target, ast.Name):
            return ast.Name(line=target.line, ident=target.ident)
        return ast.Index(line=target.line, array=target.array,
                         index=target.index)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing).
    # ------------------------------------------------------------------
    def _parse_expression(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        self._nest()
        expr = self._parse_binary(1)
        if self._accept_punct("?"):
            if_true = self._parse_expression()
            self._expect_punct(":")
            if_false = self._parse_ternary()
            expr = ast.Ternary(line=expr.line, cond=expr,
                               if_true=if_true, if_false=if_false)
        self.depth -= 1
        return expr

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self.current
            if tok.kind is not TokenKind.PUNCT:
                return left
            prec = _PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            self._advance()
            right = self._parse_binary(prec + 1)
            left = ast.Binary(line=tok.line, op=tok.text,
                              left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        tok = self.current
        if tok.kind is TokenKind.PUNCT and tok.text in ("-", "~", "!", "+"):
            self._advance()
            self._nest()
            operand = self._parse_unary()
            self.depth -= 1
            if tok.text == "+":
                return operand
            return ast.Unary(line=tok.line, op=tok.text, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self.current.is_punct("["):
                if not isinstance(expr, ast.Name):
                    raise ParseError("only named arrays can be indexed",
                                     self.current.line, self.current.column)
                self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.Index(line=expr.line, array=expr.ident,
                                 index=index)
            elif self.current.is_punct("("):
                if not isinstance(expr, ast.Name):
                    raise ParseError("call target must be a function name",
                                     self.current.line, self.current.column)
                self._advance()
                args: List[ast.Expr] = []
                if not self.current.is_punct(")"):
                    args.append(self._parse_expression())
                    while self._accept_punct(","):
                        args.append(self._parse_expression())
                self._expect_punct(")")
                expr = ast.Call(line=expr.line, callee=expr.ident, args=args)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self.current
        if tok.kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLit(line=tok.line, value=tok.value)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return ast.Name(line=tok.line, ident=tok.text)
        if tok.is_punct("("):
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}",
                         tok.line, tok.column)


def _check_depth(program: ast.Program) -> None:
    """Raise :class:`ParseError` at a node of a function's tree deeper
    than :data:`MAX_NESTING` (an explicit stack: no recursion here)."""
    stack = [(program, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             node.line)
        for value in vars(node).values():
            if isinstance(value, ast.Node):
                stack.append((value, depth + 1))
            elif isinstance(value, list):
                stack.extend((item, depth + 1) for item in value
                             if isinstance(item, ast.Node))


def parse(source: str) -> ast.Program:
    """Parse MiniC *source* into an AST."""
    return Parser(tokenize(source)).parse_program()
