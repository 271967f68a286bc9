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

Nesting is capped at MAX_DEPTH levels. A leaf counts 1, and each
operator, unary minus, call and pair of parentheses adds 1 over its
deepest part, so a flat chain t+t+...+t of n terms is n levels deep.
The parser refuses anything deeper with ExprSyntaxError, before it
recurses past the cap.

Evaluation runs generated Python. ``_positional`` writes the source of
one function, ``def fn(a0, ..., ak): return <expr>``, and runs it once
through ``exec``; ``compile_fn``, ``compile_separable`` and ``evaluate``
all go through it. The source holds no config text and no variable
name, only these names:
- the parameters a0 ... ak, one per bound variable, in order;
- constant slots C[k]: literal values, and message texts such as
  "variable t";
- K, the mode's scalar type, the helpers R (mode check), D (division),
  P (power), S (sqrt) and U (unbound variable), and the builtins type,
  min and max.
'+', '-', '*' and unary minus are inline operators, and min and max are
builtin calls. Each variable read is (aK if type(aK) is K else R(aK,
C[m])), so a mode mismatch is raised where the tree walk meets it, and
plain ints pass in exact mode. Operands run in tree order, so values
and errors, type and message, match a direct tree walk. A literal-only
subtree such as 3/8 is folded into one C slot when evaluating it in the
expression's mode raises nothing. A subtree that raises, such as 1/0,
stays in place, and so its error still comes from the call that meets
it.

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
    FloatOverflow,
    NegativeSqrt,
    TsgronwallError,
    UnknownVariable,
)
from .numeric import Mode, Scalar, exact_sqrt, require_mode, scalar_pow

import math
import operator


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

# Deepest nesting the parser accepts. A leaf counts 1; each operator,
# unary minus, call and pair of parentheses adds 1 over its deepest
# part, so a flat chain a+a+...+a of n terms is n deep. It keeps the
# recursive walks over a tree and the generated source (CPython allows
# 200 nested brackets in one expression) within bounds.
MAX_DEPTH = 100


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
    """Recursive descent that also measures nesting (see MAX_DEPTH): each
    rule returns its tree with the tree's depth, and `level` counts the
    constructs open around the current token, so a chain that can only
    end past the cap is refused before it recurses further."""

    def __init__(self, tokens: list[_Token], variables):
        self.tokens = tokens
        self.k = 0
        self.level = 0
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

    def too_deep(self, token: _Token) -> ExprSyntaxError:
        return ExprSyntaxError(f"expression nests deeper than MAX_DEPTH = {MAX_DEPTH}", token.pos)

    def enter(self, token: _Token) -> None:
        """Open a construct whose result sits one level above its inside."""
        self.level += 1
        if self.level >= MAX_DEPTH:
            raise self.too_deep(token)

    def above(self, token: _Token, *depths: int) -> int:
        """Depth of a node over children of these depths."""
        depth = max(depths) + 1
        if depth > MAX_DEPTH:
            raise self.too_deep(token)
        return depth

    def parse(self) -> Expr:
        expr, _ = self.sum_()
        token = self.peek()
        if token.kind != "end":
            raise ExprSyntaxError(f"unexpected {token.text!r} after expression", token.pos)
        return expr

    def sum_(self):
        expr, depth = self.term()
        while self.peek().kind in ("+", "-"):
            token = self.advance()
            right, right_depth = self.term()
            expr, depth = Bin(token.kind, expr, right), self.above(token, depth, right_depth)
        return expr, depth

    def term(self):
        expr, depth = self.signed()
        while self.peek().kind in ("*", "/"):
            token = self.advance()
            right, right_depth = self.signed()
            expr, depth = Bin(token.kind, expr, right), self.above(token, depth, right_depth)
        return expr, depth

    def signed(self):
        token = self.peek()
        if token.kind == "-":
            self.advance()
            self.enter(token)
            operand, depth = self.signed()
            self.level -= 1
            return Neg(operand), self.above(token, depth)
        return self.power()

    def power(self):
        base, depth = self.atom()
        token = self.peek()
        if token.kind == "^":
            self.advance()
            self.enter(token)
            exponent, exponent_depth = self.signed()
            self.level -= 1
            return Bin("^", base, exponent), self.above(token, depth, exponent_depth)
        return base, depth

    def atom(self):
        token = self.peek()
        if token.kind == "num":
            self.advance()
            return Lit(Fraction(token.text)), 1
        if token.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                return self.call(token)
            if token.text not in self.variables:
                raise UnknownVariable(token.text, token.pos)
            return Var(token.text), 1
        if token.kind == "(":
            self.advance()
            self.enter(token)
            expr, depth = self.sum_()
            self.expect(")")
            self.level -= 1
            return expr, self.above(token, depth)
        raise ExprSyntaxError("expected a number, name or parenthesis", token.pos)

    def call(self, name_token: _Token):
        name = name_token.text
        arity = _FUNCTIONS.get(name)
        if arity is None:
            raise ExprSyntaxError(f"unknown function {name!r}", name_token.pos)
        self.expect("(")
        self.enter(name_token)
        args, depths = [], []
        while True:
            arg, depth = self.sum_()
            args.append(arg)
            depths.append(depth)
            if self.peek().kind != ",":
                break
            self.advance()
        self.expect(")")
        self.level -= 1
        lo, hi = arity
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ExprSyntaxError(
                f"{name} takes {'exactly' if hi == lo else 'at least'} {lo} argument(s)",
                name_token.pos,
            )
        return Call(name, tuple(args)), self.above(name_token, *depths)


def parse(source: str, variables=()) -> Expr:
    """Parse source text; free names must come from `variables`."""
    return _Parser(_tokenize(source), variables).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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


def _divide(numerator, denominator):
    if denominator == 0:
        raise DivisionByZero("division by zero")
    return numerator / denominator


def _sqrt_value(value: Scalar, mode: Mode) -> Scalar:
    if mode is Mode.EXACT:
        return exact_sqrt(value)
    if value < 0:
        raise NegativeSqrt(f"sqrt of negative value {value}")
    return math.sqrt(value)


def _unbound(name: str):
    raise UnknownVariable(name)


def _helpers(mode: Mode) -> dict:
    """Every name generated code reads besides its parameters and C."""

    def power(base, exponent):
        try:
            return scalar_pow(base, exponent, mode)
        except DivisionByZero:
            raise
        except ZeroDivisionError:
            raise DivisionByZero("zero raised to a negative power") from None

    return {
        "K": Fraction if mode is Mode.EXACT else float,
        "R": lambda value, what: require_mode(value, mode, what),
        "D": _divide,
        "P": power,
        "S": lambda value: _sqrt_value(value, mode),
        "U": _unbound,
        "min": min,
        "max": max,
    }


_HELPERS = {mode: _helpers(mode) for mode in Mode}
_INLINE = {"+": operator.add, "-": operator.sub, "*": operator.mul, "neg": operator.neg}
_HELPER_OF = {"/": "D", "^": "P", "sqrt": "S", "min": "min", "max": "max"}


@dataclass(frozen=True)
class _Const:
    """A literal-only subtree folded to its value."""

    value: Scalar


class _Codegen:
    """Writes the source of one function over `names`, positionally, for
    one mode; see the module docstring for what the source may hold."""

    def __init__(self, names: tuple, mode: Mode):
        self.count = len(names)
        self.slots = {name: k for k, name in enumerate(names)}
        self.mode = mode
        self.helpers = _HELPERS[mode]
        self.constants = []
        self.reads = {}

    def slot(self, value) -> str:
        self.constants.append(value)
        return f"C[{len(self.constants) - 1}]"

    def source(self, part) -> str:
        return self.slot(part.value) if isinstance(part, _Const) else part

    def read(self, name: str) -> str:
        if name not in self.reads:
            if name in self.slots:
                a = f"a{self.slots[name]}"
                what = self.slot(f"variable {name}")
                self.reads[name] = f"({a} if type({a}) is K else R({a}, {what}))"
            else:
                self.reads[name] = f"U({self.slot(name)})"
        return self.reads[name]

    def emit(self, node):
        """Source text for node, or _Const when the node holds no name
        and evaluating it in this mode raises nothing."""
        if isinstance(node, Lit):
            if self.mode is Mode.EXACT:
                return _Const(Fraction(node.value))
            try:
                return _Const(float(node.value))
            except OverflowError:
                raise FloatOverflow(f"literal {node.value} overflows the float64 range") from None
        if isinstance(node, Var):
            return self.read(node.name)
        if isinstance(node, Neg):
            op, parts = "neg", [self.emit(node.operand)]
        elif isinstance(node, Call):
            if node.func not in _FUNCTIONS:
                raise ValueError(f"unknown function {node.func!r}")
            op, parts = node.func, [self.emit(a) for a in node.args]
        elif node.op in _PREC and node.op != "neg":
            op, parts = node.op, [self.emit(node.left), self.emit(node.right)]
        else:
            raise ValueError(f"unknown operator {node.op!r}")
        if all(isinstance(part, _Const) for part in parts):
            apply = _INLINE.get(op) or self.helpers[_HELPER_OF[op]]
            try:
                return _Const(apply(*(part.value for part in parts)))
            except (TsgronwallError, ArithmeticError):
                pass  # left in place: the call that meets it raises
        args = [self.source(part) for part in parts]
        if op == "neg":
            return f"(-{args[0]})"
        if op in _INLINE:
            return f"({args[0]} {op} {args[1]})"
        return f"{_HELPER_OF[op]}({', '.join(args)})"

    def function(self, expr: Expr):
        body = self.source(self.emit(expr))
        params = ", ".join(f"a{k}" for k in range(self.count))
        namespace = dict(self.helpers, C=tuple(self.constants))
        exec(compile(f"def fn({params}):\n    return {body}\n", "<exprlang>", "exec"), namespace)
        return namespace["fn"]


def _positional(expr: Expr, names: tuple, mode: Mode):
    """The one compiler: a function of len(names) positional arguments,
    bound to `names` in order, that evaluates expr in `mode`."""
    return _Codegen(names, mode).function(expr)


def evaluate(expr: Expr, env: dict, mode: Mode = Mode.EXACT) -> Scalar:
    """Evaluate with every free variable bound in env, entirely within the
    given mode. Deterministic and side-effect free. Compiles the tree on
    every call; use compile_fn to evaluate one expression many times."""
    return _positional(expr, tuple(env), mode)(*env.values())


def compile_fn(source: str, variables, mode: Mode = Mode.EXACT):
    """Parse and compile once: the returned function binds its positional
    arguments to `variables` in order, with the same values and errors
    `evaluate` gives."""
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
