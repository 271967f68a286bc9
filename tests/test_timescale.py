import math
import random
import time
from fractions import Fraction

import pytest

from tsgronwall.errors import (
    MaximumPoint,
    ModeMismatch,
    NegativeFactorWarning,
    NotRegressive,
    PointNotInScale,
)
from tsgronwall.numeric import Mode
from tsgronwall.timescale import MAX_WINDOW_POINTS, TimeScale, exp_prefix_from_increments


def test_window_needs_two_points():
    with pytest.raises(ValueError):
        TimeScale.integers(0, 0)
    with pytest.raises(ValueError):
        TimeScale.sample(0.0, 0.5, 1)


def test_points_must_increase():
    with pytest.raises(ValueError):
        TimeScale("integers", (Fraction(0), Fraction(0)), Mode.EXACT)
    with pytest.raises(ValueError):
        TimeScale.integers(0, 5, step=-1)


def test_qscale_parameter_guards():
    with pytest.raises(ValueError):
        TimeScale.qscale(1, 1, 3)
    with pytest.raises(ValueError):
        TimeScale.qscale(2, 0, 3)
    with pytest.raises(ValueError):
        TimeScale.qscale(2, 1, 0)


def test_sequence_increments_must_be_positive():
    with pytest.raises(ValueError):
        TimeScale.sequence(0, [Fraction(1, 4), Fraction(0)])
    with pytest.raises(ValueError):
        TimeScale.sequence(0, [])


def test_mode_of_points_is_checked():
    with pytest.raises(ModeMismatch):
        TimeScale("integers", (0.0, 1.0), Mode.EXACT)


def test_sample_scale_is_float_and_approximate():
    ts = TimeScale.sample(0.0, 0.25, 5)
    assert ts.mode is Mode.FLOAT
    assert ts.approximate
    assert not ts.is_discrete
    assert ts.points == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_sigma_on_integers():
    ts = TimeScale.integers(0, 4)
    assert ts.sigma(3) == 4


def test_sigma_on_qscale():
    ts = TimeScale.qscale(2, 1, 3)
    assert ts.points == (1, 2, 4, 8)
    assert ts.sigma(2) == 4


def test_sigma_on_sequence():
    ts = TimeScale.sequence(0, [Fraction(1, 4), Fraction(1, 2)])
    assert ts.points == (0, Fraction(1, 4), Fraction(3, 4))
    assert ts.sigma(Fraction(1, 4)) == Fraction(3, 4)


def test_sigma_at_maximum_returns_the_point():
    ts = TimeScale.integers(0, 4)
    assert ts.sigma(4) == 4


def test_sigma_rejects_foreign_points():
    ts = TimeScale.integers(0, 4)
    with pytest.raises(PointNotInScale):
        ts.sigma(Fraction(1, 2))


def test_graininess_on_integers_is_the_step():
    ts = TimeScale.integers(0, 4)
    assert all(ts.graininess(t) == 1 for t in ts.points[:-1])


def test_graininess_on_qscale_is_q_minus_one_times_t():
    q = Fraction(2)
    ts = TimeScale.qscale(q, 1, 4)
    for t in ts.points[:-1]:
        assert ts.graininess(t) == (q - 1) * t


def test_graininess_on_sequence_is_the_increment():
    incs = (Fraction(1, 4), Fraction(1, 2), Fraction(2))
    ts = TimeScale.sequence(0, incs)
    for k, a in enumerate(incs):
        assert ts.graininess(ts.points[k]) == a


def test_graininess_undefined_at_maximum():
    ts = TimeScale.integers(0, 4)
    with pytest.raises(MaximumPoint):
        ts.graininess(4)


def test_delta_integral_of_identity_on_integers():
    ts = TimeScale.integers(0, 4)
    assert ts.delta_integral(lambda s: s, 0, 3) == 3  # 0 + 1 + 2


def test_delta_integral_over_empty_interval():
    ts = TimeScale.qscale(3, 1, 3)
    assert ts.delta_integral(lambda s: s, 3, 3) == 0


def test_delta_integral_on_qscale_weights():
    # hand sum of the (q-1)*s weights: 1 + 2 + 4 over [1, 8)
    ts = TimeScale.qscale(2, 1, 3)
    assert ts.delta_integral(lambda s: Fraction(1), 1, 8) == 7


def test_delta_integral_mode_mismatch():
    ts = TimeScale.integers(0, 4)
    with pytest.raises(ModeMismatch):
        ts.delta_integral(lambda s: 0.5, 0, 3)


def test_delta_integral_additive_and_linear():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(3, 9)
        incs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        ts = TimeScale.sequence(0, incs)
        values = {t: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for t in ts.points}
        weights = {t: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for t in ts.points}
        f, g = values.__getitem__, weights.__getitem__
        a, b, c = sorted(rng.sample(range(len(ts.points)), 3))
        pa, pb, pc = ts.points[a], ts.points[b], ts.points[c]
        assert ts.delta_integral(f, pa, pc) == (
            ts.delta_integral(f, pa, pb) + ts.delta_integral(f, pb, pc)
        )
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        combined = lambda t: lam * f(t) + g(t)
        assert ts.delta_integral(combined, pa, pc) == (
            lam * ts.delta_integral(f, pa, pc) + ts.delta_integral(g, pa, pc)
        )


def test_exp_fn_empty_range_is_one():
    ts = TimeScale.qscale(2, 1, 3)
    assert ts.exp_fn(lambda t: Fraction(7), 2, 2) == 1


def test_exp_fn_constant_generator_on_integers():
    ts = TimeScale.integers(0, 6)
    c = Fraction(1, 3)
    assert ts.exp_fn(lambda t: c, 5, 0) == (1 + c) ** 5


def test_exp_fn_tabulated_generator():
    # (1 + 1/4)(1 + 1/5) = 3/2
    ts = TimeScale.integers(0, 4)
    p = {0: Fraction(1, 4), 1: Fraction(1, 5)}.__getitem__
    assert ts.exp_fn(p, 2, 0) == Fraction(3, 2)


def test_exp_fn_semigroup_property():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(3, 9)
        incs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        ts = TimeScale.sequence(0, incs)
        gen = {t: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for t in ts.points}
        p = gen.__getitem__
        i, k, j = sorted(rng.sample(range(len(ts.points)), 3))
        s, r, t = ts.points[i], ts.points[k], ts.points[j]
        assert ts.exp_fn(p, t, s) == ts.exp_fn(p, t, r) * ts.exp_fn(p, r, s)


def test_exp_fn_not_regressive():
    ts = TimeScale.integers(0, 4)
    with pytest.raises(NotRegressive):
        ts.exp_fn(lambda t: Fraction(-1), 3, 0)


def test_exp_fn_negative_factor_warns():
    ts = TimeScale.integers(0, 4)
    with pytest.warns(NegativeFactorWarning):
        value = ts.exp_fn(lambda t: Fraction(-2), 2, 0)
    assert value == 1  # (-1) * (-1)


def test_exp_prefix_matches_exp_fn():
    rng = random.Random(5)
    ts = TimeScale.sequence(
        0, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(7)]
    )
    gen = {t: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for t in ts.points}
    values = [gen[t] for t in ts.points[:-1]]
    prefix = ts.exp_prefix(values)
    for k, t in enumerate(ts.points):
        assert prefix[k] == ts.exp_fn(gen.__getitem__, t, ts.start)


def test_exp_prefix_rejects_too_many_values():
    ts = TimeScale.integers(0, 3)
    with pytest.raises(ValueError):
        ts.exp_prefix([Fraction(1)] * 4)


def test_sequence_exponential_equals_literal_increment_product():
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randint(2, 10)
        incs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        ts = TimeScale.sequence(Fraction(rng.randint(0, 3)), incs)
        gen = {t: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for t in ts.points}
        p = gen.__getitem__
        # literal product computed directly from the increments
        literal = Fraction(1)
        expected = [literal]
        for k, alpha in enumerate(incs):
            literal *= 1 + alpha * p(ts.points[k])
            expected.append(literal)
        for k, t in enumerate(ts.points):
            assert ts.exp_fn(p, t, ts.start) == expected[k]
        gen_values = [p(t) for t in ts.points[:-1]]
        assert exp_prefix_from_increments(incs, gen_values, Mode.EXACT) == expected


def test_exp_fn_first_order_convergence_on_samples():
    # left products converge to exp of the integral at first order
    target = math.exp(0.5)
    errors = []
    for denominator in (16, 32, 64):
        ts = TimeScale.sample(0.0, 1.0 / denominator, denominator + 1)
        value = ts.exp_fn(lambda x: x, ts.end, ts.start)
        errors.append(abs(target - value))
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.5 <= coarse / fine <= 2.5


# The three forms of the scale exponential, each over the first
# len(values) steps of `ts` with the generator values given.
EXP_FORMS = {
    "exp_fn": lambda ts, values: ts.exp_fn(
        dict(zip(ts.points, values)).__getitem__, ts.points[len(values)], ts.start
    ),
    "exp_prefix": lambda ts, values: ts.exp_prefix(values)[-1],
    "exp_prefix_from_increments": lambda ts, values: exp_prefix_from_increments(
        ts.graininesses(), values, ts.mode
    )[-1],
}


@pytest.mark.parametrize("form", EXP_FORMS.values(), ids=EXP_FORMS.keys())
def test_every_exponential_form_guards_its_factors(form):
    ts = TimeScale.integers(0, 4)
    with pytest.raises(NotRegressive):
        form(ts, [Fraction(0), Fraction(-1), Fraction(0)])
    with pytest.warns(NegativeFactorWarning):
        assert form(ts, [Fraction(-2), Fraction(-2)]) == 1  # (-1) * (-1)
    with pytest.raises(ModeMismatch):
        form(ts, [Fraction(0), 0.5])
    assert form(ts, [Fraction(1, 2), Fraction(1)]) == 3


def test_exp_fn_stops_reading_the_generator_at_a_vanishing_factor():
    ts = TimeScale.integers(0, 4)
    read = []

    def p(t):
        read.append(t)
        return Fraction(-1) if t == 1 else Fraction(0)

    with pytest.raises(NotRegressive):
        ts.exp_fn(p, 4, 0)
    assert read == [0, 1]


@pytest.mark.parametrize("build", [
    lambda: TimeScale.integers(0, 10**9),
    lambda: TimeScale.integers(0, 1, Fraction(1, 10**9)),
    lambda: TimeScale.integers(0, MAX_WINDOW_POINTS),
    lambda: TimeScale.integers(0.0, 1e9, mode=Mode.FLOAT),
    lambda: TimeScale.integers(0.0, math.inf, mode=Mode.FLOAT),
    lambda: TimeScale.qscale(2, 1, 10**9),
    lambda: TimeScale.sample(0.0, 1.0, 10**9),
    lambda: TimeScale.sequence(0, [Fraction(1)] * MAX_WINDOW_POINTS),
])
def test_oversized_windows_are_refused_before_any_point_is_built(build):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"MAX_WINDOW_POINTS allows {MAX_WINDOW_POINTS}"):
        build()
    assert time.perf_counter() - start < 1.0


def test_a_window_of_exactly_the_cap_is_built():
    assert len(TimeScale.integers(0, MAX_WINDOW_POINTS - 1)) == MAX_WINDOW_POINTS
    assert len(TimeScale.sample(0.0, 1.0, MAX_WINDOW_POINTS)) == MAX_WINDOW_POINTS


def test_float_integer_windows_keep_every_point_the_stepping_rule_gives():
    # The window is every start + k*step <= stop, each computed as written.
    rng = random.Random(23)
    for _ in range(500):
        step = rng.choice([0.1, 0.2, 0.3, 1 / 3, 0.7, 1.1, rng.uniform(0.01, 2.0)])
        start = rng.choice([0.0, 0.1, -0.3, rng.uniform(-5.0, 5.0)])
        stop = start + rng.randint(1, 60) * step
        stop = rng.choice([stop, math.nextafter(stop, math.inf), math.nextafter(stop, -math.inf)])
        expected = []
        while start + len(expected) * step <= stop:
            expected.append(start + len(expected) * step)
        if len(expected) < 2:
            continue
        assert TimeScale.integers(start, stop, step, mode=Mode.FLOAT).points == tuple(expected)
