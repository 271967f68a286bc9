from decimal import Decimal
from fractions import Fraction

import pytest

from tsgronwall.errors import ModeMismatch
from tsgronwall.numeric import Mode, mode_of


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
