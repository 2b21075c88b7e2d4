"""Seeded MiniC program generator: the corpus side of the fuzz fabric.

Every program is produced deterministically from ``(seed, shape)`` —
the same pair always renders byte-identical source — so a failing seed
is a complete reproducer on its own.  Programs are *terminating and
trap-free by construction* (the same guardrails the old ad-hoc test
generator used, hardened here into one shared implementation):

* array indices are masked to the (power-of-two) array size;
* division/modulo denominators are ``(x & 7) + 1`` — never zero;
* shift amounts are masked to ``& 31``;
* loops are counted ``for`` loops with small constant trip counts
  (``break``/``continue`` only ever appear inside those).

Each :data:`SHAPES` entry targets a known-interesting region of the
pipeline — the shapes are chosen from the classes that actually broke
previous PRs (multi-output IN(S) undercounting, step-accounting drift)
plus the paper's §4 constraint structure (see ``docs/paper_map.md``):

``chain``
    deep straight-line arithmetic chains: long dependency chains make
    large convex cuts, stressing the B&B enumeration and region fusion;
``multiout``
    several live-out temporaries per block, stored *and* used later —
    the multi-output supernode shape behind the PR 4 selection bug;
``branchy``
    if/else ladders and diamonds inside loops: if-conversion fodder and
    single-entry block chains, the region-codegen stress case;
``memory``
    memory-carried dependences (``mem[i]`` from ``mem[i-1]``, read
    after write): cuts must *skip* the LOAD/STORE chain, never absorb
    or reorder it;
``portlimit``
    wide fan-in expressions over many distinct operands folding into a
    few outputs — cut candidates that hover at the ``Nin``/``Nout``
    port budgets;
``mixed``
    a statement soup of all of the above (the default fuzzing diet);
``nested``
    ``for`` nests 2–3 deep whose innermost loop holds a ``continue``
    inside an ``if`` arm with code after it (a forward edge to the
    ``for_step`` join that does not follow the branch), a ``break``,
    a variable assigned after that ``break`` and read after the nest,
    and a call.  Appended last, so every other ``(seed, shape)``
    program is unchanged.

Statements are rendered one per line, which is what makes the
line-oriented shrinking in :mod:`repro.fuzz.reduce` effective.

:func:`generate_invalid` is the error-path twin: it derives a program
that is *guaranteed* ill-formed in a chosen frontend stage (lexer,
parser or sema), for asserting that diagnostics stay structured
(:mod:`repro.frontend.errors`) instead of leaking raw tracebacks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["SHAPES", "GeneratedProgram", "InvalidProgram",
           "generate_program", "generate_invalid", "INVALID_KINDS"]

#: Generator shapes, mixed-last (the default diet samples all of them).
SHAPES = ("chain", "multiout", "branchy", "memory", "portlimit", "mixed",
          "nested")

#: Power-of-two sizes keep index masking a single AND.
ARRAY = "mem"
ARRAY_SIZE = 16
OUT_ARRAY = "out"
OUT_SIZE = 8

_INIT = "{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}"


@dataclass(frozen=True)
class GeneratedProgram:
    """One generated MiniC program plus the inputs the oracle drives it
    with.  ``entry`` is always ``f(int a, int b, int c)``."""

    seed: int
    shape: str
    source: str
    arg_sets: Tuple[Tuple[int, int, int], ...]
    entry: str = "f"


@dataclass(frozen=True)
class InvalidProgram:
    """A program guaranteed to be rejected by one frontend stage.

    ``stage`` names the stage whose structured diagnostic must fire:
    ``"lex"`` (:class:`~repro.frontend.errors.LexError`), ``"parse"``
    (:class:`~repro.frontend.errors.ParseError`) or ``"sema"``
    (:class:`~repro.frontend.errors.SemanticError`).  ``kind`` is the
    specific corruption, for telemetry.
    """

    seed: int
    stage: str
    kind: str
    source: str


class _Body:
    """Accumulates indented statement lines."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 1

    def emit(self, text: str) -> None:
        self.lines.append("  " * self.depth + text)

    def open(self, text: str) -> None:
        self.emit(text)
        self.depth += 1

    def close(self) -> None:
        self.depth -= 1
        self.emit("}")


class _Builder:
    """Renders one program for a shape, all randomness from one rng."""

    def __init__(self, rng: random.Random, shape: str) -> None:
        self.rng = rng
        self.shape = shape
        self.locals = ["a", "b", "c"]
        self._temps = 0
        self._loops = 0
        self.calls_helper = False

    # ------------------------------------------------------------------
    # Expression grammar (trap-free by construction).
    # ------------------------------------------------------------------
    def atom(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            return str(rng.randint(-128, 127))
        if roll < 0.85:
            return rng.choice(self.locals)
        return (f"{ARRAY}[({rng.choice(self.locals)}) & "
                f"{ARRAY_SIZE - 1}]")

    def expr(self, depth: int = 0, width: Optional[List[str]] = None) -> str:
        """A random expression; *width* forces the leaf pool (used by
        the port-limit shape to control distinct-operand fan-in)."""
        rng = self.rng
        if depth >= 3 or rng.random() < 0.28:
            if width:
                return rng.choice(width)
            return self.atom()
        roll = rng.random()
        if roll < 0.55:
            op = rng.choice(["+", "-", "*", "&", "|", "^", "<<", ">>",
                             "<", "<=", "==", "!=", ">", ">="])
            left = self.expr(depth + 1, width)
            right = self.expr(depth + 1, width)
            if op in ("<<", ">>"):
                right = f"(({right}) & 31)"
            return f"(({left}) {op} ({right}))"
        if roll < 0.65:
            op = rng.choice(["/", "%"])
            return (f"(({self.expr(depth + 1, width)}) {op} "
                    f"((({self.expr(depth + 1, width)}) & 7) + 1))")
        if roll < 0.78:
            op = rng.choice(["-", "~", "!"])
            return f"({op}({self.expr(depth + 1, width)}))"
        if roll < 0.9:
            return (f"(({self.expr(depth + 1, width)}) ? "
                    f"({self.expr(depth + 1, width)}) : "
                    f"({self.expr(depth + 1, width)}))")
        op = rng.choice(["&&", "||"])
        return (f"(({self.expr(depth + 1, width)}) {op} "
                f"({self.expr(depth + 1, width)}))")

    def temp(self, body: _Body, init: Optional[str] = None) -> str:
        name = f"t{self._temps}"
        self._temps += 1
        body.emit(f"int {name} = {init if init else self.expr()};")
        self.locals.append(name)
        return name

    def index(self, of: Optional[str] = None) -> str:
        base = of if of else self.rng.choice(self.locals)
        return f"({base}) & {ARRAY_SIZE - 1}"

    # ------------------------------------------------------------------
    # Statement kinds.
    # ------------------------------------------------------------------
    def assign(self, body: _Body) -> None:
        body.emit(f"{self.rng.choice(self.locals)} = {self.expr()};")

    def store(self, body: _Body) -> None:
        array = self.rng.choice([ARRAY, OUT_ARRAY])
        size = ARRAY_SIZE if array == ARRAY else OUT_SIZE
        body.emit(f"{array}[({self.rng.choice(self.locals)}) & "
                  f"{size - 1}] = {self.expr()};")

    def loop(self, body: _Body, emit_inner, trip: Optional[int] = None,
             breaker: bool = False) -> None:
        var = f"i{self._loops}"
        self._loops += 1
        trip = trip if trip is not None else self.rng.randint(2, 6)
        body.open(f"for (int {var} = 0; {var} < {trip}; {var}++) {{")
        if breaker and self.rng.random() < 0.5:
            kw = self.rng.choice(["break", "continue"])
            body.emit(f"if ((({self.expr(2)}) & 15) == 7) {{ {kw}; }}")
        emit_inner(body, var)
        body.close()

    def branch(self, body: _Body, emit_arm, else_arm: bool = True) -> None:
        body.open(f"if ({self.expr(1)}) {{")
        emit_arm(body)
        body.close()
        if else_arm:
            body.open("else {")
            emit_arm(body)
            body.close()

    # ------------------------------------------------------------------
    # Shapes.
    # ------------------------------------------------------------------
    def shape_chain(self, body: _Body) -> None:
        """Deep straight-line dependency chains."""
        rng = self.rng
        prev = rng.choice(["a", "b", "c"])
        for _ in range(rng.randint(8, 18)):
            op = rng.choice(["+", "-", "*", "^", "&", "|"])
            prev = self.temp(
                body, f"(({prev}) {op} ({self.expr(2)}))")
        body.emit(f"a = a ^ {prev};")
        body.emit(f"{OUT_ARRAY}[0] = {prev};")

    def shape_multiout(self, body: _Body) -> None:
        """Blocks with several live-out values (the PR 4 bug class)."""
        rng = self.rng

        def inner(b: _Body, var: str) -> None:
            shared = f"s{self._temps}"
            self._temps += 1
            b.emit(f"int {shared} = (({rng.choice(self.locals)}) + "
                   f"({var}) * 3) ^ ({self.expr(2)});")
            outs = []
            for _ in range(rng.randint(2, 4)):
                op = rng.choice(["+", "^", "*", "-"])
                name = f"m{self._temps}"
                self._temps += 1
                b.emit(f"int {name} = (({shared}) {op} "
                       f"({self.expr(2)}));")
                outs.append(name)
            for k, name in enumerate(outs):
                b.emit(f"{OUT_ARRAY}[(({var}) + {k}) & {OUT_SIZE - 1}] "
                       f"= {name};")
            # Live across iterations too: feed the accumulators.
            b.emit(f"a = a + {outs[0]};")
            b.emit(f"b = b ^ {outs[-1]};")

        self.loop(body, inner, trip=rng.randint(3, 7))

    def shape_branchy(self, body: _Body) -> None:
        """If/else ladders in loops: if-conversion + region chains."""
        rng = self.rng

        def arm(b: _Body) -> None:
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.7:
                    self.assign(b)
                else:
                    self.store(b)

        def inner(b: _Body, var: str) -> None:
            for _ in range(rng.randint(2, 4)):
                if rng.random() < 0.35:
                    # Nested diamond.
                    b.open(f"if ((({var}) & 3) < 2) {{")
                    self.branch(b, arm, else_arm=rng.random() < 0.7)
                    b.close()
                else:
                    self.branch(b, arm, else_arm=rng.random() < 0.8)
            b.emit(f"c = c + ({var});")

        self.loop(body, inner, breaker=True)

    def shape_memory(self, body: _Body) -> None:
        """Memory-carried dependences: skip, never miscompile."""
        rng = self.rng

        def inner(b: _Body, var: str) -> None:
            prev = f"({var} + {ARRAY_SIZE - 1}) & {ARRAY_SIZE - 1}"
            cur = f"({var}) & {ARRAY_SIZE - 1}"
            b.emit(f"int ld{self._temps} = {ARRAY}[{prev}];")
            carried = f"ld{self._temps}"
            self._temps += 1
            b.emit(f"{ARRAY}[{cur}] = ({carried}) + ({self.expr(2)});")
            # Read-after-write on the same slot.
            b.emit(f"a = a ^ {ARRAY}[{cur}];")
            if rng.random() < 0.5:
                b.emit(f"{ARRAY}[{cur}] = ({ARRAY}[{cur}]) "
                       f"^ ({rng.choice(self.locals)});")

        self.loop(body, inner, trip=rng.randint(4, 10))
        body.emit(f"b = b + {ARRAY}[({self.index('a')})];")

    def shape_portlimit(self, body: _Body) -> None:
        """Wide fan-in folded into few outputs: near Nin/Nout cuts."""
        rng = self.rng
        # A pool of distinct operands wider than any port budget.
        pool = ["a", "b", "c"]
        for _ in range(rng.randint(3, 5)):
            pool.append(self.temp(body))
        ops = ["+", "^", "&", "|", "-"]
        folds = []
        for _ in range(rng.randint(2, 3)):
            terms = rng.sample(pool, k=rng.randint(3, min(6, len(pool))))
            acc = terms[0]
            for term in terms[1:]:
                acc = f"({acc} {rng.choice(ops)} {term})"
            folds.append(self.temp(body, acc))
        for k, name in enumerate(folds):
            body.emit(f"{OUT_ARRAY}[{k}] = {name};")
        body.emit(f"a = {folds[0]} ^ {folds[-1]};")

    def shape_mixed(self, body: _Body) -> None:
        """Statement soup over every other shape's ingredients."""
        rng = self.rng
        for _ in range(rng.randint(4, 7)):
            roll = rng.random()
            if roll < 0.3:
                self.assign(body)
            elif roll < 0.45:
                self.store(body)
            elif roll < 0.6:
                self.branch(body, lambda b: self.assign(b),
                            else_arm=rng.random() < 0.6)
            elif roll < 0.75:
                self.loop(body, lambda b, var: self.assign(b),
                          breaker=True)
            elif roll < 0.85:
                self.temp(body)
            else:
                picked = rng.choice([self.shape_memory,
                                     self.shape_multiout,
                                     self.shape_portlimit])
                picked(body)

    def shape_nested(self, body: _Body) -> None:
        """Loop nests with inner ``break``/``continue`` and a call."""
        rng = self.rng
        self.calls_helper = True
        late = self.temp(body, "0")

        def innermost(b: _Body, var: str) -> None:
            self.assign(b)
            b.open(f"if ((({self.expr(2)}) & 3) != 0) {{")
            b.emit(f"if ((({var}) & 1) == 0) {{ continue; }}")
            self.assign(b)
            b.close()
            b.emit(f"if ((({self.expr(2)}) & 15) == 7) {{ break; }}")
            b.emit(f"{late} = {self.expr(2)};")
            b.emit(f"c = c + helper({var}, {rng.choice(self.locals)});")

        def level(b: _Body, var: str, remaining: int) -> None:
            if remaining == 0:
                innermost(b, var)
                return
            self.assign(b)
            self.loop(b, lambda inner, v: level(inner, v, remaining - 1),
                      trip=rng.randint(2, 4))
            b.emit(f"a = a ^ ({var});")

        self.loop(body, lambda b, var: level(b, var, rng.randint(1, 2)),
                  trip=rng.randint(2, 4))
        body.emit(f"b = b + {late};")

    # ------------------------------------------------------------------
    def render(self) -> str:
        body = _Body()
        use_helper = self.shape in ("chain", "mixed") \
            and self.rng.random() < 0.4
        {
            "chain": self.shape_chain,
            "multiout": self.shape_multiout,
            "branchy": self.shape_branchy,
            "memory": self.shape_memory,
            "portlimit": self.shape_portlimit,
            "mixed": self.shape_mixed,
            "nested": self.shape_nested,
        }[self.shape](body)
        if use_helper:
            body.emit(f"a = a + helper(b, {self.expr(2)});")
        lines = [
            f"int {ARRAY}[{ARRAY_SIZE}] = {_INIT};",
            f"int {OUT_ARRAY}[{OUT_SIZE}];",
        ]
        if use_helper or self.calls_helper:
            lines += [
                "int helper(int x, int y) {",
                "  int acc = x;",
                "  for (int h = 0; h < 3; h++) {",
                "    acc = ((acc * 2) ^ y) + h;",
                "  }",
                "  return acc;",
                "}",
            ]
        lines.append("int f(int a, int b, int c) {")
        lines.extend(body.lines)
        lines.append("  return (a ^ b) ^ c;")
        lines.append("}")
        return "\n".join(lines) + "\n"


def generate_program(seed: int, shape: str = "mixed") -> GeneratedProgram:
    """Render the program for ``(seed, shape)`` — pure and deterministic.

    Raises ``ValueError`` for an unknown shape (the CLI surfaces it as
    a usage error).
    """
    if shape not in SHAPES:
        known = ", ".join(SHAPES)
        raise ValueError(f"unknown shape {shape!r}; known: {known}")
    rng = random.Random((seed, shape).__repr__())
    source = _Builder(rng, shape).render()
    arg_sets = tuple(
        (rng.randint(-(1 << 31), (1 << 31) - 1),
         rng.randint(-100, 100),
         rng.randint(-100, 100))
        for _ in range(2)
    )
    return GeneratedProgram(seed=seed, shape=shape, source=source,
                            arg_sets=arg_sets)


# ----------------------------------------------------------------------
# Invalid programs: guaranteed structured-diagnostic fodder.
# ----------------------------------------------------------------------
def _lex_corruptions(rng: random.Random) -> Tuple[str, str]:
    return rng.choice([
        ("stray_char", "int f() { return 1 @ 2; }"),
        ("bad_hex", "int f() { return 0x; }"),
        ("bad_suffix", "int f() { return 123abc; }"),
        ("unterminated_comment", "int f() { /* no end\nreturn 1; }"),
        ("bad_escape", r"int f() { return '\q'; }"),
        ("unterminated_char", "int f() { return 'ab; }"),
    ])


def _parse_corruptions(rng: random.Random, base: str) -> Tuple[str, str]:
    return rng.choice([
        ("truncated", base.rstrip()[:-1]),          # drop the final }
        ("trailing_garbage", base + "\nint\n"),
        ("stray_else", base + "\nint g() { else; return 1; }\n"),
        ("missing_semicolon",
         base + "\nint g() { int x = 1 return x; }\n"),
        ("unbalanced_paren", base + "\nint g() { return (1 + 2; }\n"),
        ("missing_param_type", base + "\nint g(x) { return x; }\n"),
    ])


def _sema_corruptions(rng: random.Random, base: str) -> Tuple[str, str]:
    return rng.choice([
        ("undeclared", base + "\nint g() { return nosuchvar; }\n"),
        ("unknown_call", base + "\nint g() { return phantom(1); }\n"),
        ("bad_arity", base + "\nint g() { return f(1); }\n"),
        ("scalar_indexed",
         base + "\nint gs;\nint g() { return gs[0]; }\n"),
        ("array_as_value", f"{base}\nint g() {{ return {ARRAY}; }}\n"),
        ("break_outside", base + "\nint g() { break; return 1; }\n"),
        ("redeclared", base + "\nint g() { int x = 1; int x = 2; "
                              "return x; }\n"),
        ("dup_param", base + "\nint g(int p, int p) { return p; }\n"),
        ("missing_return_value", base + "\nint g() { return; }\n"),
        ("huge_array", base + "\nint huge[4000000000];\n"),
    ])


#: The stages :func:`generate_invalid` can target.
INVALID_KINDS = ("lex", "parse", "sema")


def generate_invalid(seed: int) -> InvalidProgram:
    """An ill-formed program for ``seed``, targeting a random stage.

    The corruption is appended to (or replaces) a *valid* generated
    program, so the faulty construct is reached with realistic
    surroundings; the chosen stage's structured error is guaranteed to
    fire before any later stage runs.
    """
    rng = random.Random(("invalid", seed).__repr__())
    stage = rng.choice(INVALID_KINDS)
    base = generate_program(seed, "mixed").source
    if stage == "lex":
        kind, source = _lex_corruptions(rng)
    elif stage == "parse":
        kind, source = _parse_corruptions(rng, base)
    else:
        kind, source = _sema_corruptions(rng, base)
    return InvalidProgram(seed=seed, stage=stage, kind=kind,
                          source=source)
