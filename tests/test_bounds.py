import dataclasses
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    integer_windows,
    nondecreasing_grid,
    rand_fraction,
    rand_grid,
    random_discrete_windows,
)
from tsgronwall import config
from tsgronwall.bounds import (
    THEOREMS,
    BoundScenario,
    best_linear_bound,
    compute_bound,
    cor31_bound,
    kernel_generator,
    kernel_value,
    thm1_bound_in2,
    thm1_bound_in6,
    thm2_bound,
    thm3_bound,
    thm4_bound,
)
from tsgronwall.cli import example31_scenario
from tsgronwall.errors import (
    GridMismatch,
    KernelDomain,
    ModeMismatch,
    ModeRequired,
    NonPositiveA,
    WrongScaleKind,
)
from tsgronwall.grid2 import GridFunction2
from tsgronwall.numeric import Mode
from tsgronwall.timescale import TimeScale


def test_scenario_validates_grids_and_powers():
    ts1, ts2 = integer_windows(3, 3)
    other1, other2 = integer_windows(4, 3)
    a = GridFunction2.constant(ts1, ts2, Fraction(1))
    f_other = GridFunction2.constant(other1, other2, Fraction(1))
    with pytest.raises(GridMismatch):
        BoundScenario(a=a, f=f_other)
    f = GridFunction2.constant(ts1, ts2, Fraction(1))
    with pytest.raises(ValueError):
        BoundScenario(a=a, f=f, p=1, q=2)
    with pytest.raises(ValueError):
        BoundScenario(a=a, f=f, p=1, q=0)


def test_example_table_factors_in2():
    sc = example31_scenario()
    report = thm1_bound_in2(sc)
    assert report.value(2, 1) == Fraction(3, 2)
    assert report.value(3, 2) == Fraction(147, 10)
    assert report.certified


def test_example_table_factors_in6():
    sc = example31_scenario()
    report = thm1_bound_in6(sc)
    assert report.value(2, 1) == Fraction(29, 20)
    assert report.value(3, 2) == Fraction(637, 40)


def test_example_factors_scale_with_the_offset():
    base = example31_scenario()
    a = GridFunction2.from_callable(
        base.ts1, base.ts2, lambda t1, t2: t1 + 2 * t2 + 1
    )
    sc = BoundScenario(a=a, f=base.f)
    r2, r6 = thm1_bound_in2(sc), thm1_bound_in6(sc)
    assert r2.value(2, 1) == a.value(2, 1) * Fraction(3, 2)
    assert r2.value(3, 2) == a.value(3, 2) * Fraction(147, 10)
    assert r6.value(2, 1) == a.value(2, 1) * Fraction(29, 20)
    assert r6.value(3, 2) == a.value(3, 2) * Fraction(637, 40)


def test_zero_weight_makes_both_linear_bounds_equal_the_offset():
    rng = random.Random(3)
    ts1, ts2 = integer_windows(5, 4)
    a = nondecreasing_grid(rng, ts1, ts2)
    f = GridFunction2.constant(ts1, ts2, Fraction(0))
    sc = BoundScenario(a=a, f=f)
    assert thm1_bound_in2(sc).values == a.values
    assert thm1_bound_in6(sc).values == a.values
    best = best_linear_bound(sc)
    assert best.values == a.values
    assert all(tag == "tie" for row in best.sharpness for tag in row)


def _transposed(g):
    return GridFunction2.from_rows(g.ts2, g.ts1, zip(*g.values))


def _floated(g):
    ts1, ts2 = (
        TimeScale(ts.kind, tuple(float(t) for t in ts.points), Mode.FLOAT)
        for ts in (g.ts1, g.ts2)
    )
    return GridFunction2.from_rows(ts1, ts2, [[float(v) for v in row] for row in g.values])


def test_thm1_in6_is_in2_with_the_axes_swapped():
    rng = random.Random(73)
    kinds = set()
    for _ in range(12):
        ts1, ts2 = random_discrete_windows(rng)
        kinds.update((ts1.kind, ts2.kind))
        a = nondecreasing_grid(rng, ts1, ts2)
        f = rand_grid(rng, ts1, ts2)
        for a_m, f_m in ((a, f), (_floated(a), _floated(f))):
            sc = BoundScenario(a=a_m, f=f_m)
            swapped = BoundScenario(a=_transposed(a_m), f=_transposed(f_m))
            in6 = thm1_bound_in6(sc)
            in2 = thm1_bound_in2(swapped)
            back = tuple(zip(*in2.values))
            if sc.mode is Mode.EXACT:
                assert in6.values == back
            else:
                assert repr(in6.values) == repr(back)
            assert in6.hypotheses == in2.hypotheses
    assert kinds == {"integers", "qscale", "sequence"}


def test_best_linear_picks_the_sharper_side_per_point():
    sc = example31_scenario()
    best = best_linear_bound(sc)
    assert best.value(2, 1) == Fraction(29, 20)
    assert best.sharpness[2][1] == "in6"
    assert best.value(3, 2) == Fraction(147, 10)
    assert best.sharpness[3][2] == "in2"


def test_non_monotone_offset_downgrades_certification():
    sc = example31_scenario()
    a = GridFunction2.from_callable(
        sc.ts1, sc.ts2, lambda t1, t2: Fraction(5) - t1
    )
    report = thm1_bound_in2(BoundScenario(a=a, f=sc.f))
    assert not report.certified
    assert report.hypotheses["a_nondecreasing"] is False


def test_thm2_reduces_to_the_linear_bound():
    rng = random.Random(17)
    for _ in range(10):
        ts1, ts2 = integer_windows(rng.randint(2, 7), rng.randint(2, 7))
        a = nondecreasing_grid(rng, ts1, ts2)
        w = rand_grid(rng, ts1, ts2)
        one = GridFunction2.constant(ts1, ts2, Fraction(1))
        kernel_sc = BoundScenario(
            a=a, f=one, kernel=lambda t1, t2, s1, s2, w=w: w.value(s1, s2)
        )
        linear_sc = BoundScenario(a=a, f=w)
        assert thm2_bound(kernel_sc).values == thm1_bound_in2(linear_sc).values


def test_thm2_with_zero_kernel_returns_the_offset():
    rng = random.Random(19)
    ts1, ts2 = integer_windows(4, 5)
    a = nondecreasing_grid(rng, ts1, ts2)
    f = nondecreasing_grid(rng, ts1, ts2)
    sc = BoundScenario(a=a, f=f, kernel=lambda *args: Fraction(0))
    assert thm2_bound(sc).values == a.values


def test_thm2_requires_a_kernel():
    sc = example31_scenario()
    with pytest.raises(ValueError):
        thm2_bound(sc)


def test_kernel_domain_guard():
    ts1, ts2 = integer_windows(4, 4)
    a = GridFunction2.constant(ts1, ts2, Fraction(1))
    sc = BoundScenario(a=a, f=a, kernel=lambda *args: Fraction(1))
    assert kernel_value(sc, 2, 2, 1, 1) == 1
    with pytest.raises(KernelDomain):
        kernel_value(sc, 1, 1, 2, 1)
    with pytest.raises(KernelDomain):
        kernel_value(sc, 1, 1, 1, 2)


def _rational_kernel(t1, t2, s1, s2):
    return int((t1 - s1) * (t2 + s2)) - 3  # an int: exact, and negative in places


@pytest.mark.parametrize("kernel", [
    config.parse_kernel("min(t - tau + 1, s - xi + 1)/3", Mode.EXACT),
    config.parse_kernel("max(tau*s, t*xi, 1/2) - 2", Mode.EXACT),
    _rational_kernel,
], ids=["min", "max", "python"])
def test_direct_kernel_generator_sums_kernel_value_over_every_pair(kernel):
    rng = random.Random(41)
    ts1, ts2 = integer_windows(5, 4)
    a = GridFunction2.constant(ts1, ts2, Fraction(1))
    sc = BoundScenario(a=a, f=a, kernel=kernel)
    coefficients = [[rand_fraction(rng, -9) for _ in range(3)] for _ in range(4)]
    hyp = {"kernel_nonnegative": True}
    generator = kernel_generator(sc, coefficients, False, hyp)
    pts1, pts2 = ts1.points, ts2.points
    negative = False
    for i_star, t1 in enumerate(pts1):
        for j_star, t2 in enumerate(pts2):
            f_star = rand_fraction(rng, 1)
            want = []
            for i in range(i_star):
                values = [kernel_value(sc, t1, t2, pts1[i], pts2[jj]) for jj in range(j_star)]
                negative = negative or any(v < 0 for v in values)
                want.append(f_star * sum(
                    (c * v for c, v in zip(coefficients[i], values)), Fraction(0)
                ))
            assert generator(i_star, j_star, f_star) == want
    assert hyp["kernel_nonnegative"] is not negative


def test_direct_kernel_sum_checks_the_mode_of_kernel_values():
    ts1, ts2 = integer_windows(3, 3)
    a = GridFunction2.constant(ts1, ts2, Fraction(1))
    sc = BoundScenario(a=a, f=a, kernel=lambda t1, t2, s1, s2: 0.5)
    with pytest.raises(ModeMismatch, match="^kernel value 0.5 does not match exact mode$"):
        thm2_bound(sc)


def test_separable_kernel_sum_adds_its_terms_left_to_right():
    # The three terms give 1e16, 1.0 and 1.0 at the one source below the
    # target (1, 1); compensated summation would keep both 1.0s.
    ts1, ts2 = integer_windows(2, 2, Mode.FLOAT)
    one = GridFunction2.constant(ts1, ts2, 1.0)
    terms = tuple(
        (lambda t1, t2, phi=phi: phi, lambda s1, s2: 1.0) for phi in (1e16, 1.0, 1.0)
    )
    sc = BoundScenario(a=one, f=one, kernel=lambda *args: 1e16 + 2.0, kernel_terms=terms)
    hyp = {"kernel_nonnegative": True}
    generator = kernel_generator(sc, [ts2.graininesses()], False, hyp)
    assert generator(1, 1, 1.0) == [((0.0 + 1e16) + 1.0) + 1.0] == [1e16]


def test_thm3_with_unit_powers_is_the_linear_bound():
    rng = random.Random(29)
    ts1, ts2 = integer_windows(5, 5)
    a = nondecreasing_grid(rng, ts1, ts2, positive=True)
    f = rand_grid(rng, ts1, ts2)
    assert (
        thm3_bound(BoundScenario(a=a, f=f, p=1, q=1)).values
        == thm1_bound_in2(BoundScenario(a=a, f=f)).values
    )


def test_thm3_with_zero_weight_is_the_offset_root():
    ts1, ts2 = integer_windows(4, 4, mode=Mode.FLOAT)
    a = GridFunction2.constant(ts1, ts2, 9.0)
    f = GridFunction2.constant(ts1, ts2, 0.0)
    report = thm3_bound(BoundScenario(a=a, f=f, p=2.0, q=1.0))
    assert all(v == 3.0 for row in report.values for v in row)


def test_thm3_refuses_exact_mode_for_fractional_generator_exponents():
    ts1, ts2 = integer_windows(3, 3)
    a = GridFunction2.constant(ts1, ts2, Fraction(1))
    with pytest.raises(ModeRequired):
        thm3_bound(BoundScenario(a=a, f=a, p=2, q=1))


def test_thm3_rejects_offsets_needing_a_negative_power_at_zero():
    ts1, ts2 = integer_windows(3, 3, mode=Mode.FLOAT)
    a = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: t1 + t2)
    f = GridFunction2.constant(ts1, ts2, 1.0)
    with pytest.raises(NonPositiveA):
        thm3_bound(BoundScenario(a=a, f=f, p=2.0, q=1.0))
    negative = GridFunction2.constant(ts1, ts2, -1.0)
    with pytest.raises(NonPositiveA):
        thm3_bound(BoundScenario(a=negative, f=f, p=2.0, q=1.0))


def test_thm3_never_reads_the_last_column_weights():
    # a = 0 on the last column only: a**(q/p - 1) has no value there, but
    # the generator only integrates columns before the target's.
    ts1, ts2 = integer_windows(4, 3, mode=Mode.FLOAT)
    a = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: 0.0 if t2 == 2.0 else 1.0 + t1)
    f = GridFunction2.constant(ts1, ts2, 1.0)
    report = thm3_bound(BoundScenario(a=a, f=f, p=2.0, q=1.0))
    assert [row[2] for row in report.values] == [0.0] * 4
    assert report.hypotheses["a_positive"] is False


def test_thm3_powered_exact_values_match_the_float_path():
    rng = random.Random(37)
    ts1, ts2 = integer_windows(5, 4)
    a = nondecreasing_grid(rng, ts1, ts2, positive=True)
    f = rand_grid(rng, ts1, ts2)
    exact = thm3_bound(BoundScenario(a=a, f=f, p=2, q=2))
    assert exact.powered and exact.power == 2
    ts1f, ts2f = integer_windows(5, 4, mode=Mode.FLOAT)
    af = GridFunction2.from_rows(ts1f, ts2f, [[float(v) for v in r] for r in a.values])
    ff = GridFunction2.from_rows(ts1f, ts2f, [[float(v) for v in r] for r in f.values])
    floated = thm3_bound(BoundScenario(a=af, f=ff, p=2.0, q=2.0))
    assert not floated.powered
    for row_e, row_f in zip(exact.values, floated.values):
        for ve, vf in zip(row_e, row_f):
            assert math.sqrt(float(ve)) == pytest.approx(vf, rel=1e-12)


def test_thm4_reduces_to_thm3_when_the_kernel_ignores_targets():
    rng = random.Random(41)
    for p, q in ((1, 1), (2, 1)):
        mode = Mode.EXACT if p == q else Mode.FLOAT
        exact1, exact2 = integer_windows(5, 5)
        a = nondecreasing_grid(rng, exact1, exact2, positive=True)
        w = rand_grid(rng, exact1, exact2)
        ts1, ts2 = integer_windows(5, 5, mode=mode)
        if mode is Mode.FLOAT:
            a = GridFunction2.from_rows(ts1, ts2, [[float(v) for v in r] for r in a.values])
            w = GridFunction2.from_rows(ts1, ts2, [[float(v) for v in r] for r in w.values])
        one_value = Fraction(1) if mode is Mode.EXACT else 1.0
        one = GridFunction2.constant(ts1, ts2, one_value)
        kernel_sc = BoundScenario(
            a=a, f=one, kernel=lambda t1, t2, s1, s2, w=w: w.value(s1, s2), p=p, q=q
        )
        plain_sc = BoundScenario(a=a, f=w, p=p, q=q)
        assert thm4_bound(kernel_sc).values == thm3_bound(plain_sc).values


def test_thm4_with_zero_kernel_is_the_offset_root():
    ts1, ts2 = integer_windows(4, 3, mode=Mode.FLOAT)
    a = GridFunction2.constant(ts1, ts2, 16.0)
    f = GridFunction2.constant(ts1, ts2, 1.0)
    report = thm4_bound(
        BoundScenario(a=a, f=f, kernel=lambda *args: 0.0, p=2.0, q=1.0)
    )
    assert all(v == 4.0 for row in report.values for v in row)


def test_cor31_needs_sequence_scales():
    sc = example31_scenario()
    with_kernel = BoundScenario(a=sc.a, f=sc.f, kernel=lambda *args: Fraction(1))
    with pytest.raises(WrongScaleKind):
        cor31_bound(with_kernel)


def test_cor31_matches_thm4_on_sequence_scales():
    rng = random.Random(47)
    for p, q in ((1, 1), (2, 2)):
        ts1 = TimeScale.sequence(0, [rand_fraction(rng, 1) for _ in range(5)])
        ts2 = TimeScale.sequence(0, [rand_fraction(rng, 1) for _ in range(3)])
        a = nondecreasing_grid(rng, ts1, ts2, positive=True)
        f = nondecreasing_grid(rng, ts1, ts2)
        coeffs = [rand_fraction(rng) for _ in range(3)]
        kernel = lambda t1, t2, s1, s2, c=coeffs: c[0] + c[1] * s1 + c[2] * s2 * t1
        sc = BoundScenario(a=a, f=f, kernel=kernel, p=p, q=q)
        assert cor31_bound(sc).values == thm4_bound(sc).values


def test_cor31_on_short_unequal_increment_scales():
    rng = random.Random(101)
    ts1 = TimeScale.sequence(0, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
    ts2 = TimeScale.sequence(0, [Fraction(1), Fraction(2)])
    a = nondecreasing_grid(rng, ts1, ts2, positive=True)
    f = nondecreasing_grid(rng, ts1, ts2)
    coeffs = [rand_fraction(rng) for _ in range(4)]
    kernel = lambda t1, t2, s1, s2, c=coeffs: c[0] + c[1] * t2 + c[2] * s1 + c[3] * s2
    for p, q in ((1, 1), (3, 3)):
        sc = BoundScenario(a=a, f=f, kernel=kernel, p=p, q=q)
        assert cor31_bound(sc).values == thm4_bound(sc).values


def test_cor31_with_unit_increments_matches_the_integer_window():
    rng = random.Random(53)
    n1, n2 = 5, 4
    seq1 = TimeScale.sequence(0, [Fraction(1)] * (n1 - 1))
    seq2 = TimeScale.sequence(0, [Fraction(1)] * (n2 - 1))
    int1, int2 = integer_windows(n1, n2)
    rows_a = nondecreasing_grid(rng, int1, int2, positive=True).values
    rows_f = nondecreasing_grid(rng, int1, int2).values
    coeffs = [rand_fraction(rng) for _ in range(2)]
    kernel = lambda t1, t2, s1, s2, c=coeffs: c[0] + c[1] * s1 * s2
    seq_sc = BoundScenario(
        a=GridFunction2.from_rows(seq1, seq2, rows_a),
        f=GridFunction2.from_rows(seq1, seq2, rows_f),
        kernel=kernel,
    )
    int_sc = BoundScenario(
        a=GridFunction2.from_rows(int1, int2, rows_a),
        f=GridFunction2.from_rows(int1, int2, rows_f),
        kernel=kernel,
    )
    assert cor31_bound(seq_sc).values == thm4_bound(int_sc).values


def test_bounds_never_shrink_when_the_weight_grows():
    rng = random.Random(59)
    for _ in range(10):
        ts1, ts2 = integer_windows(rng.randint(2, 6), rng.randint(2, 6))
        a = nondecreasing_grid(rng, ts1, ts2)
        f = rand_grid(rng, ts1, ts2)
        bigger = GridFunction2.from_rows(
            ts1, ts2,
            [[v + rand_fraction(rng) for v in row] for row in f.values],
        )
        small = thm1_bound_in2(BoundScenario(a=a, f=f))
        large = thm1_bound_in2(BoundScenario(a=a, f=bigger))
        for row_s, row_l in zip(small.values, large.values):
            for vs, vl in zip(row_s, row_l):
                assert vs <= vl


def test_linear_bounds_dominate_the_offset():
    rng = random.Random(61)
    for _ in range(10):
        ts1, ts2 = integer_windows(rng.randint(2, 6), rng.randint(2, 6))
        a = nondecreasing_grid(rng, ts1, ts2)
        f = rand_grid(rng, ts1, ts2)
        sc = BoundScenario(a=a, f=f)
        for report in (thm1_bound_in2(sc), thm1_bound_in6(sc), best_linear_bound(sc)):
            for row_b, row_a in zip(report.values, a.values):
                for vb, va in zip(row_b, row_a):
                    assert vb >= va


def test_power_bound_dominates_the_offset_root():
    rng = random.Random(67)
    ts1, ts2 = integer_windows(5, 5, mode=Mode.FLOAT)
    a = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: 1.0 + t1 + t2)
    f = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: float(rng.randint(0, 3)))
    report = thm3_bound(BoundScenario(a=a, f=f, p=3.0, q=2.0))
    for row_b, row_a in zip(report.values, a.values):
        for vb, va in zip(row_b, row_a):
            assert vb >= va ** (1.0 / 3.0) - 1e-12


def test_integer_window_bound_equals_the_literal_double_sum_product():
    # independent re-implementation: on unit-step windows the bound is
    # a(m, n) * prod_{s<m} [1 + sum_{t<n} f(s, t)]
    rng = random.Random(71)
    for _ in range(10):
        ts1, ts2 = integer_windows(rng.randint(2, 7), rng.randint(2, 7))
        a = nondecreasing_grid(rng, ts1, ts2)
        f = rand_grid(rng, ts1, ts2)
        report = thm1_bound_in2(BoundScenario(a=a, f=f))
        n1, n2 = a.shape
        for i in range(n1):
            for j in range(n2):
                product = Fraction(1)
                for s in range(i):
                    product *= 1 + sum(
                        (f.values[s][t] for t in range(j)), Fraction(0)
                    )
                assert report.values[i][j] == a.values[i][j] * product


def test_sampled_bound_converges_to_the_exponential_of_the_double_integral():
    target = math.e  # a == 1, f = x + y on the unit square integrates to 1
    errors = []
    for denominator in (16, 32, 64):
        ts1 = TimeScale.sample(0.0, 1.0 / denominator, denominator + 1)
        ts2 = TimeScale.sample(0.0, 1.0 / denominator, denominator + 1)
        a = GridFunction2.constant(ts1, ts2, 1.0)
        f = GridFunction2.from_callable(ts1, ts2, lambda x, y: x + y)
        report = thm1_bound_in2(BoundScenario(a=a, f=f))
        assert report.approximate
        errors.append(abs(target - report.values[-1][-1]))
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.5 <= coarse / fine <= 2.5


def test_compute_bound_dispatch():
    sc = example31_scenario()
    assert compute_bound("thm1-in2", sc).values == thm1_bound_in2(sc).values
    with pytest.raises(ValueError):
        compute_bound("thm9", sc)


POWER_SELECTORS = ("thm3", "thm4", "cor31")


@pytest.mark.parametrize("theorem", THEOREMS)
@pytest.mark.parametrize("mode,p,q", [
    (Mode.EXACT, 1, 1), (Mode.EXACT, 2, 2), (Mode.EXACT, 3, 3),
    (Mode.FLOAT, 1, 1), (Mode.FLOAT, 2, 1), (Mode.FLOAT, 2, 2),
])
def test_powered_means_exact_with_a_power_other_than_one(theorem, mode, p, q):
    ts1 = TimeScale.sequence(0, [Fraction(1, 2), 1, Fraction(3, 2)], mode=mode)
    ts2 = TimeScale.sequence(0, [Fraction(1, 3), 2], mode=mode)
    a = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: 1 + t1 + t2)
    f = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: t1 * t2)
    sc = BoundScenario(a=a, f=f, kernel=lambda t1, t2, s1, s2: 1 + s1 * s2, p=p, q=q)
    report = compute_bound(theorem, sc)
    reads_p = theorem in POWER_SELECTORS
    assert report.power == (sc.p if reads_p else 1)
    assert report.powered is (mode is Mode.EXACT and reads_p and p != 1)
    assert report.mode is mode and report.approximate is False


def test_a_float_report_with_a_value_that_is_not_finite_is_not_certified():
    ts1, ts2 = integer_windows(3, 3, mode=Mode.FLOAT)
    report = thm1_bound_in2(BoundScenario(
        a=GridFunction2.constant(ts1, ts2, 1.0), f=GridFunction2.constant(ts1, ts2, 1.0)
    ))
    assert report.certified
    for bad in (math.inf, math.nan):
        rows = [list(row) for row in report.values]
        rows[2][2] = bad
        assert not dataclasses.replace(report, values=tuple(map(tuple, rows))).certified
