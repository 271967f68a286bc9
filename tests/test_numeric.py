from decimal import Decimal
from fractions import Fraction

import pytest

from tsgronwall.errors import ModeMismatch, PowerTooLarge
from tsgronwall.numeric import MAX_POWER_BITS, Mode, mode_of, scalar_pow


class _Ratio(Fraction):
    """A Rational that is not exactly Fraction, to leave the fast path."""


class _Real(float):
    pass


@pytest.mark.parametrize(
    "value, mode",
    [
        (Fraction(1, 3), Mode.EXACT),
        (Fraction(0), Mode.EXACT),
        (7, Mode.EXACT),
        (-2, Mode.EXACT),
        (_Ratio(2, 5), Mode.EXACT),
        (0.5, Mode.FLOAT),
        (-0.0, Mode.FLOAT),
        (float("inf"), Mode.FLOAT),
        (_Real(1.5), Mode.FLOAT),
    ],
)
def test_mode_of_classifies_scalars(value, mode):
    assert mode_of(value) is mode


@pytest.mark.parametrize(
    "value", [True, False, None, "1", "1/2", 1j, Decimal("0.5"), [1], (Fraction(1),)]
)
def test_mode_of_refuses_non_scalars(value):
    with pytest.raises(ModeMismatch):
        mode_of(value)


@pytest.mark.parametrize("base, exponent", [
    (2, 10**9),
    (Fraction(1, 2), -(10**9)),
    (Fraction(3, 2), MAX_POWER_BITS),
    (2, 2**65536),
], ids=["2^10^9", "half^-10^9", "3/2^cap", "2^2^65536"])
def test_exact_powers_over_the_bit_budget_are_refused_before_they_are_computed(base, exponent):
    with pytest.raises(PowerTooLarge, match=f"MAX_POWER_BITS allows {MAX_POWER_BITS}$"):
        scalar_pow(base, exponent, Mode.EXACT)


def test_exact_powers_within_the_bit_budget_are_computed():
    assert scalar_pow(2, MAX_POWER_BITS, Mode.EXACT) == 2**MAX_POWER_BITS
    assert scalar_pow(Fraction(1, 2), -3, Mode.EXACT) == 8
    for base in (1, -1, 0):
        assert scalar_pow(base, 10**100 + 1, Mode.EXACT) == base
