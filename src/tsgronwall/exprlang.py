"""A small total expression language for scalar formulas in configs.

Grammar, tightest binding first:

    power  := atom ['^' signed]            (right associative)
    signed := '-' signed | power
    term   := signed (('*' | '/') signed)*
    sum    := term (('+' | '-') term)*
    atom   := NUMBER | NAME | NAME '(' sum (',' sum)* ')' | '(' sum ')'

so '^' binds above unary minus, which binds above '*' and '/', which
bind above '+' and '-'. Numbers are nonnegative integer or decimal
literals; decimals are read exactly (0.25 means one quarter, not its
float). Functions: sqrt (one argument), min and max (two or more).
There are no conditionals and no loops; every parsed expression either
evaluates or raises one of the documented errors.

Evaluation compiles the tree into nested closures, one per node, that
take the variable values as a tuple. ``compile_fn`` parses and compiles
once and returns a positional callable over the result; ``evaluate`` is
compile-then-call. Compilation checks nothing about values: mode
mismatches, division by zero, negative square roots, irrational exact
powers and unbound variables are still raised when the call meets them,
and operations run in tree order, so results match a direct tree walk.

``to_source`` renders an AST back to text that re-parses to an identical
tree. Literals keep that guarantee whenever their denominator divides a
power of ten (always true for parsed input); a programmatically built
literal like 1/3 falls back to "(1/3)", which re-parses as a division
node of equal value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZero,
    ExprSyntaxError,
    NegativeSqrt,
    UnknownVariable,
)
from .numeric import Mode, Scalar, exact_sqrt, require_mode, scalar_pow

import math


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Lit | Var | Neg | Bin | Call

# func name -> (min arity, max arity or None for unbounded)
_FUNCTIONS = {"sqrt": (1, 1), "min": (2, None), "max": (2, None)}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < n and (source[i].isdigit() or (source[i] == "." and not seen_dot)):
                if source[i] == ".":
                    seen_dot = True
                i += 1
            tokens.append(_Token("num", source[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("name", source[start:i], start))
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables):
        self.tokens = tokens
        self.k = 0
        self.variables = frozenset(variables)

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        token = self.tokens[self.k]
        self.k += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}", token.pos)
        return self.advance()

    def parse(self) -> Expr:
        expr = self.sum_()
        token = self.peek()
        if token.kind != "end":
            raise ExprSyntaxError(f"unexpected {token.text!r} after expression", token.pos)
        return expr

    def sum_(self) -> Expr:
        expr = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            expr = Bin(op, expr, self.term())
        return expr

    def term(self) -> Expr:
        expr = self.signed()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            expr = Bin(op, expr, self.signed())
        return expr

    def signed(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.signed())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return Bin("^", base, self.signed())
        return base

    def atom(self) -> Expr:
        token = self.peek()
        if token.kind == "num":
            self.advance()
            return Lit(Fraction(token.text))
        if token.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                return self.call(token)
            if token.text not in self.variables:
                raise UnknownVariable(token.text, token.pos)
            return Var(token.text)
        if token.kind == "(":
            self.advance()
            expr = self.sum_()
            self.expect(")")
            return expr
        raise ExprSyntaxError("expected a number, name or parenthesis", token.pos)

    def call(self, name_token: _Token) -> Expr:
        name = name_token.text
        arity = _FUNCTIONS.get(name)
        if arity is None:
            raise ExprSyntaxError(f"unknown function {name!r}", name_token.pos)
        self.expect("(")
        args = [self.sum_()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.sum_())
        self.expect(")")
        lo, hi = arity
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ExprSyntaxError(
                f"{name} takes {'exactly' if hi == lo else 'at least'} {lo} argument(s)",
                name_token.pos,
            )
        return Call(name, tuple(args))


def parse(source: str, variables=()) -> Expr:
    """Parse source text; free names must come from `variables`."""
    return _Parser(_tokenize(source), variables).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def _format_literal(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        k = max(twos, fives)
        mantissa = value.numerator * 10**k // value.denominator
        digits = str(abs(mantissa)).rjust(k + 1, "0")
        sign = "-" if mantissa < 0 else ""
        return f"{sign}{digits[:-k]}.{digits[-k:]}"
    return f"({value.numerator}/{value.denominator})"


def _render(expr: Expr, context: int) -> str:
    if isinstance(expr, Lit):
        return _format_literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(_render(a, 0) for a in expr.args)})"
    if isinstance(expr, Neg):
        text = "-" + _render(expr.operand, _PREC["neg"])
        return f"({text})" if context > _PREC["neg"] else text
    prec = _PREC[expr.op]
    if expr.op == "^":
        left = _render(expr.left, prec + 1)
        right = _render(expr.right, prec)
    else:
        left = _render(expr.left, prec)
        right = _render(expr.right, prec + 1)
    text = f"{left}{expr.op}{right}"
    return f"({text})" if context > prec else text


def to_source(expr: Expr) -> str:
    """Render an AST back to parseable text."""
    return _render(expr, 0)


def _compile(expr: Expr, slots: dict, mode: Mode):
    """Turn an AST into a closure over a tuple of variable values; `slots`
    maps each bound name to its index in that tuple. Each node becomes one
    closure that evaluates its children in the tree-walking order, so
    every run-time error still surfaces at the call that meets it."""
    if isinstance(expr, Lit):
        value = Fraction(expr.value) if mode is Mode.EXACT else float(expr.value)
        return lambda args: value
    if isinstance(expr, Var):
        name = expr.name
        if name not in slots:

            def unbound(args):
                raise UnknownVariable(name)

            return unbound
        slot, what = slots[name], f"variable {name}"
        kind = Fraction if mode is Mode.EXACT else float

        def var(args):
            value = args[slot]
            if type(value) is kind:
                return value
            return require_mode(value, mode, what)

        return var
    if isinstance(expr, Neg):
        operand = _compile(expr.operand, slots, mode)
        return lambda args: -operand(args)
    if isinstance(expr, Call):
        parts = tuple(_compile(a, slots, mode) for a in expr.args)
        if expr.func == "sqrt":

            def apply(values):
                return _sqrt_value(values[0], mode)

        elif expr.func in ("min", "max"):
            apply = min if expr.func == "min" else max
        else:
            raise ValueError(f"unknown function {expr.func!r}")
        return lambda args: apply([part(args) for part in parts])
    left = _compile(expr.left, slots, mode)
    right = _compile(expr.right, slots, mode)
    if expr.op == "+":
        return lambda args: left(args) + right(args)
    if expr.op == "-":
        return lambda args: left(args) - right(args)
    if expr.op == "*":
        return lambda args: left(args) * right(args)
    if expr.op == "/":

        def divide(args):
            numerator, denominator = left(args), right(args)
            if denominator == 0:
                raise DivisionByZero("division by zero")
            return numerator / denominator

        return divide
    if expr.op == "^":

        def power(args):
            base, exponent = left(args), right(args)
            try:
                return scalar_pow(base, exponent, mode)
            except DivisionByZero:
                raise
            except ZeroDivisionError:
                raise DivisionByZero("zero raised to a negative power") from None

        return power
    raise ValueError(f"unknown operator {expr.op!r}")


def evaluate(expr: Expr, env: dict, mode: Mode = Mode.EXACT) -> Scalar:
    """Evaluate with every free variable bound in env, entirely within the
    given mode. Deterministic and side-effect free. Compiles the tree on
    every call; use compile_fn to evaluate one expression many times."""
    slots = {name: k for k, name in enumerate(env)}
    return _compile(expr, slots, mode)(tuple(env.values()))


def _sqrt_value(value: Scalar, mode: Mode) -> Scalar:
    if mode is Mode.EXACT:
        return exact_sqrt(value)
    if value < 0:
        raise NegativeSqrt(f"sqrt of negative value {value}")
    return math.sqrt(value)


def _positional(expr: Expr, names: tuple, mode: Mode):
    body = _compile(expr, {name: k for k, name in enumerate(names)}, mode)
    count = len(names)

    def fn(*args):
        if len(args) != count:
            raise TypeError(f"expected {count} arguments, got {len(args)}")
        return body(args)

    return fn


def compile_fn(source: str, variables, mode: Mode = Mode.EXACT):
    """Parse and compile once into closures: the returned callable binds
    its positional arguments to `variables` in order and runs the
    compiled tree, with the same errors `evaluate` raises."""
    names = tuple(variables)
    return _positional(parse(source, names), names, mode)


# Expansion cap for `separate`: products of sums multiply their term
# counts, so without it a short expression could expand exponentially.
MAX_TERMS = 16


def separate(expr: Expr, left, right):
    """Split expr into a sum of products phi_k * psi_k, where phi_k
    mentions only names in `left` and psi_k only names in `right`.

    A subtree whose names all sit on one side (constants go left) is one
    factor, whatever its operators. Above those the walk accepts '+',
    '-', unary minus, '*' and '/' by a one-sided factor; anything else
    with both sides under it (sqrt, min, max or '^') is not separable.
    Returns a tuple of (phi, psi) trees, a missing factor written as the
    literal 1 and a negative sign as a Neg around phi, or None when expr
    is not separable or expands to more than MAX_TERMS terms. Every
    factor keeps its subtrees as parsed, so a factor meets the same
    run-time errors at the same points as the whole expression.
    """
    sides = {**dict.fromkeys(left, 1), **dict.fromkeys(right, 2)}
    masks = {}

    def mask(node) -> int:
        """Bit 1: mentions a left name, bit 2: a right name (or a name
        on neither side, which makes the node unsplittable)."""
        key = id(node)
        if key not in masks:
            if isinstance(node, Lit):
                masks[key] = 0
            elif isinstance(node, Var):
                masks[key] = sides.get(node.name, 3)
            elif isinstance(node, Neg):
                masks[key] = mask(node.operand)
            else:
                children = node.args if isinstance(node, Call) else (node.left, node.right)
                masks[key] = 0
                for child in children:
                    masks[key] |= mask(child)
        return masks[key]

    def times(x, y):
        return y if x is None else x if y is None else Bin("*", x, y)

    def negated(found):
        return [(not neg, phi, psi) for neg, phi, psi in found]

    def terms(node):
        """(negated, phi or None, psi or None) triples, or None."""
        m = mask(node)
        if m == 2:
            return [(False, None, node)]
        if m != 3:
            return [(False, node, None)]
        if isinstance(node, Neg):
            inner = terms(node.operand)
            return None if inner is None else negated(inner)
        if not isinstance(node, Bin) or node.op == "^":
            return None
        lhs = terms(node.left)
        if lhs is None:
            return None
        if node.op == "/":
            d = mask(node.right)
            if d == 3:
                return None
            if d == 2:
                return [(neg, phi, Bin("/", psi or Lit(Fraction(1)), node.right))
                        for neg, phi, psi in lhs]
            return [(neg, Bin("/", phi or Lit(Fraction(1)), node.right), psi)
                    for neg, phi, psi in lhs]
        rhs = terms(node.right)
        if rhs is None:
            return None
        if node.op == "+":
            out = lhs + rhs
        elif node.op == "-":
            out = lhs + negated(rhs)
        else:
            out = [(n1 != n2, times(p1, p2), times(q1, q2))
                   for n1, p1, q1 in lhs for n2, p2, q2 in rhs]
        return out if len(out) <= MAX_TERMS else None

    found = terms(expr)
    if found is None:
        return None
    one = Lit(Fraction(1))
    return tuple(
        (Neg(phi or one) if neg else phi or one, psi or one) for neg, phi, psi in found
    )


def compile_separable(source: str, left, right, mode: Mode = Mode.EXACT):
    """Compile the separable split of `source` (see `separate`): a tuple
    of (phi, psi) callables, phi taking the `left` variables and psi the
    `right` ones positionally, or None when the expression does not
    split. Raises what compile_fn raises for bad source."""
    left, right = tuple(left), tuple(right)
    split = separate(parse(source, left + right), left, right)
    if split is None:
        return None
    return tuple(
        (_positional(phi, left, mode), _positional(psi, right, mode)) for phi, psi in split
    )
