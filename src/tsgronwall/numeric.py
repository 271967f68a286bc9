"""Numeric modes and scalar helpers.

Every computation runs in one of two modes: exact rational arithmetic
(``fractions.Fraction``, the default on the generated scale kinds) or
IEEE-754 float64 (mandatory on sampled windows and wherever fractional
powers appear). A single computation never mixes the two; values cross
over only at explicit construction boundaries such as config parsing.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from numbers import Rational
from typing import Union

from .errors import FloatOverflow, ModeMismatch, ModeRequired, NegativeSqrt

Scalar = Union[Fraction, int, float]


class Mode(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"


def mode_of(value: Scalar) -> Mode:
    """Classify a scalar; plain ints count as exact rationals."""
    kind = type(value)
    if kind is Fraction:
        return Mode.EXACT
    if kind is float:
        return Mode.FLOAT
    if isinstance(value, bool) or not isinstance(value, (Rational, float)):
        raise ModeMismatch(f"not a scalar: {value!r}")
    return Mode.FLOAT if isinstance(value, float) else Mode.EXACT


def require_mode(value: Scalar, mode: Mode, what: str = "value") -> Scalar:
    if mode_of(value) is not mode:
        raise ModeMismatch(f"{what} {value!r} does not match {mode.value} mode")
    return value


def to_mode(value: Scalar, mode: Mode) -> Scalar:
    """Convert at a construction boundary.

    Exact values narrow to float freely; a float is refused in exact mode
    because promoting it would launder rounding error into exact results.
    """
    if mode is Mode.FLOAT:
        return float(value)
    if isinstance(value, float):
        raise ModeMismatch(f"refusing to promote float {value!r} to exact mode")
    return Fraction(value)


def zero(mode: Mode) -> Scalar:
    return Fraction(0) if mode is Mode.EXACT else 0.0


def one(mode: Mode) -> Scalar:
    return Fraction(1) if mode is Mode.EXACT else 1.0


def parse_scalar(text, mode: Mode = Mode.EXACT) -> Scalar:
    """Parse "3", "-1/4" or "0.25"; decimal literals are read exactly."""
    try:
        value = Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse scalar from {text!r}") from exc
    return value if mode is Mode.EXACT else float(value)


def format_scalar(value: Scalar) -> str:
    """Render exact values as "num/den" (or a bare integer), floats as repr."""
    if isinstance(value, float):
        return repr(value)
    return str(Fraction(value))


def scalar_pow(base: Scalar, exponent: Scalar, mode: Mode) -> Scalar:
    """base ** exponent under the mode's rules.

    Exact mode accepts integer exponents only; anything else has no exact
    rational value in general. Float mode rejects fractional powers of
    negative bases (no real result) and results past the float64 range.
    """
    if mode is Mode.EXACT:
        exp = Fraction(exponent)
        if exp.denominator != 1:
            raise ModeRequired(
                f"exponent {exponent} has no exact rational power; use float mode"
            )
        n = int(exp)
        if base == 0 and n < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Fraction(base) ** n
    b = float(base)
    e = float(exponent)
    if b == 0.0 and e < 0:
        raise ZeroDivisionError("0 raised to a negative power")
    try:
        return math.pow(b, e)
    except ValueError as exc:
        raise NegativeSqrt(f"{b} ** {e} has no real value") from exc
    except OverflowError as exc:
        raise FloatOverflow(f"{b} ** {e} overflows the float64 range") from exc


def exact_sqrt(value) -> Fraction:
    """Square root of a perfect-square rational; anything else needs float mode."""
    frac = Fraction(value)
    if frac < 0:
        raise NegativeSqrt(f"sqrt of negative value {value}")
    root_num = math.isqrt(frac.numerator)
    root_den = math.isqrt(frac.denominator)
    if root_num * root_num != frac.numerator or root_den * root_den != frac.denominator:
        raise ModeRequired(f"sqrt({value}) is irrational; use float mode")
    return Fraction(root_num, root_den)
