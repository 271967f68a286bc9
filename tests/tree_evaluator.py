"""Test-only reference: the direct tree-walking evaluator that the
closure compiler in ``tsgronwall.exprlang`` replaced. The differential
test holds the compiler to it, value for value and error for error."""

import math
from fractions import Fraction

from tsgronwall.errors import DivisionByZero, NegativeSqrt, UnknownVariable
from tsgronwall.exprlang import Bin, Call, Lit, Neg, Var
from tsgronwall.numeric import Mode, exact_sqrt, require_mode, scalar_pow


def tree_evaluate(expr, env: dict, mode: Mode = Mode.EXACT):
    if isinstance(expr, Lit):
        return Fraction(expr.value) if mode is Mode.EXACT else float(expr.value)
    if isinstance(expr, Var):
        try:
            value = env[expr.name]
        except KeyError:
            raise UnknownVariable(expr.name) from None
        return require_mode(value, mode, f"variable {expr.name}")
    if isinstance(expr, Neg):
        return -tree_evaluate(expr.operand, env, mode)
    if isinstance(expr, Call):
        args = [tree_evaluate(a, env, mode) for a in expr.args]
        if expr.func == "sqrt":
            return _sqrt_value(args[0], mode)
        if expr.func == "min":
            return min(args)
        if expr.func == "max":
            return max(args)
        raise ValueError(f"unknown function {expr.func!r}")
    assert isinstance(expr, Bin)
    left = tree_evaluate(expr.left, env, mode)
    right = tree_evaluate(expr.right, env, mode)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "/":
        if right == 0:
            raise DivisionByZero("division by zero")
        return left / right
    if expr.op == "^":
        try:
            return scalar_pow(left, right, mode)
        except DivisionByZero:
            raise
        except ZeroDivisionError:
            raise DivisionByZero("zero raised to a negative power") from None
    raise ValueError(f"unknown operator {expr.op!r}")


def _sqrt_value(value, mode: Mode):
    if mode is Mode.EXACT:
        return exact_sqrt(value)
    if value < 0:
        raise NegativeSqrt(f"sqrt of negative value {value}")
    return math.sqrt(value)
