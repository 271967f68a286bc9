import random
from fractions import Fraction

import pytest

from conftest import integer_windows, rand_grid, random_discrete_windows
from tsgronwall.cli import example31_scenario
from tsgronwall.errors import MaximumPoint, ModeMismatch
from tsgronwall.grid2 import GridFunction2
from tsgronwall.numeric import Mode


def test_dimensions_must_match_windows():
    ts1, ts2 = integer_windows(3, 2)
    with pytest.raises(ValueError):
        GridFunction2(ts1, ts2, ((Fraction(1),),))
    with pytest.raises(ValueError):
        GridFunction2(ts1, ts2, tuple((Fraction(1),) for _ in range(3)))


def test_value_modes_must_match_the_windows():
    ts1, ts2 = integer_windows(2, 2)
    with pytest.raises(ModeMismatch):
        GridFunction2.constant(ts1, ts2, 0.5)
    ts1f, _ = integer_windows(2, 2, mode=Mode.FLOAT)
    with pytest.raises(ModeMismatch):
        GridFunction2.constant(ts1f, ts2, 1.0)


def test_double_integral_of_zero():
    ts1, ts2 = integer_windows(4, 3)
    zero = GridFunction2.constant(ts1, ts2, Fraction(0))
    assert zero.double_integral(3, 2) == 0


def test_double_integral_of_tabulated_weights():
    # direct hand sum over the six table cells: 1/4+1/5+1+1/2+0+5 = 139/20
    sc = example31_scenario()
    assert sc.f.double_integral(3, 2) == Fraction(139, 20)


def test_double_integral_empty_first_interval():
    sc = example31_scenario()
    assert sc.f.double_integral(0, 2) == 0


def test_partial_delta_of_constants_vanishes():
    ts1, ts2 = integer_windows(4, 4)
    g = GridFunction2.constant(ts1, ts2, Fraction(7))
    assert g.partial_delta(1, 1, 2) == 0
    assert g.partial_delta(2, 1, 2) == 0


def test_partial_delta_of_coordinate():
    ts1, ts2 = integer_windows(4, 4)
    g = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: t1)
    for t1 in ts1.points[:-1]:
        for t2 in ts2.points:
            assert g.partial_delta(1, t1, t2) == 1


def test_partial_delta_maximum_point():
    ts1, ts2 = integer_windows(3, 3)
    g = GridFunction2.constant(ts1, ts2, Fraction(0))
    with pytest.raises(MaximumPoint):
        g.partial_delta(1, 2, 0)
    with pytest.raises(MaximumPoint):
        g.partial_delta(2, 0, 2)
    with pytest.raises(ValueError):
        g.partial_delta(3, 0, 0)


def test_nested_partial_deltas_recover_the_integrand():
    sc = example31_scenario()
    prefix = sc.f.prefix_double_integral()
    ts1, ts2 = prefix.ts1, prefix.ts2
    for i, t1 in enumerate(ts1.points[:-1]):
        for j, t2 in enumerate(ts2.points[:-1]):
            # axis 1 quotient at t2 and at sigma(t2), then the axis 2 quotient
            d1_here = prefix.partial_delta(1, t1, t2)
            d1_next = prefix.partial_delta(1, t1, ts2.sigma(t2))
            mixed = (d1_next - d1_here) / ts2.graininess(t2)
            assert mixed == sc.f.values[i][j]


def test_mixed_partial_of_product_of_coordinates():
    ts1, ts2 = integer_windows(4, 4)
    g = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: t1 * t2)
    for t1 in ts1.points[:-1]:
        for t2 in ts2.points[:-1]:
            assert g.mixed_partial(t1, t2) == 1


def test_mixed_partial_of_constant():
    ts1, ts2 = integer_windows(3, 5)
    g = GridFunction2.constant(ts1, ts2, Fraction(3, 7))
    assert g.mixed_partial(0, 0) == 0


def test_mixed_partial_recovers_integrand_on_random_grids():
    rng = random.Random(31)
    for _ in range(20):
        ts1, ts2 = random_discrete_windows(rng)
        g = rand_grid(rng, ts1, ts2)
        prefix = g.prefix_double_integral()
        for i, t1 in enumerate(ts1.points[:-1]):
            for j, t2 in enumerate(ts2.points[:-1]):
                assert prefix.mixed_partial(t1, t2) == g.values[i][j]


def test_prefix_double_integral_matches_direct_sums():
    rng = random.Random(13)
    ts1, ts2 = random_discrete_windows(rng)
    g = rand_grid(rng, ts1, ts2)
    prefix = g.prefix_double_integral()
    for t1 in ts1.points:
        for t2 in ts2.points:
            assert prefix.value(t1, t2) == g.double_integral(t1, t2)


def test_monotone_flags_trivial_cases():
    ts1, ts2 = integer_windows(3, 3)
    flags = GridFunction2.constant(ts1, ts2, Fraction(5)).monotone_flags()
    assert flags.nonnegative and flags.nondecreasing
    flags = GridFunction2.from_callable(ts1, ts2, lambda a, b: a + b).monotone_flags()
    assert flags.nonnegative and flags.nondecreasing


def test_monotone_flags_on_tabulated_weights():
    # the table drops from 1/2 at (0,1) to 0 at (1,1): nonnegative, not monotone
    sc = example31_scenario()
    flags = sc.f.monotone_flags()
    assert flags.nonnegative
    assert not flags.nondecreasing


def test_double_integral_monotone_in_the_integrand():
    rng = random.Random(41)
    for _ in range(10):
        ts1, ts2 = random_discrete_windows(rng)
        g = rand_grid(rng, ts1, ts2)
        bump = rand_grid(rng, ts1, ts2)
        h = GridFunction2.from_rows(
            ts1, ts2,
            [[gv + bv for gv, bv in zip(grow, brow)]
             for grow, brow in zip(g.values, bump.values)],
        )
        for t1 in ts1.points:
            for t2 in ts2.points:
                assert g.double_integral(t1, t2) <= h.double_integral(t1, t2)


def test_double_integral_nondecreasing_in_each_corner_for_nonnegative_integrand():
    rng = random.Random(43)
    ts1, ts2 = random_discrete_windows(rng)
    g = rand_grid(rng, ts1, ts2)
    prefix = g.prefix_double_integral()
    flags = prefix.monotone_flags()
    assert flags.nonnegative and flags.nondecreasing
