import dataclasses
import math
import random
from fractions import Fraction

import pytest

from conftest import integer_windows, nondecreasing_grid, rand_fraction, rand_grid
from tsgronwall import oracle
from tsgronwall.bounds import (
    BoundScenario,
    best_linear_bound,
    cor31_bound,
    thm1_bound_in2,
    thm2_bound,
    thm3_bound,
)
from tsgronwall.cli import example31_scenario
from tsgronwall.config import summary_to_json
from tsgronwall.errors import GridMismatch, ModeRequired, NonPositiveA, NotDiscrete
from tsgronwall.grid2 import GridFunction2
from tsgronwall.numeric import Mode
from tsgronwall.oracle import (
    CampaignSummary,
    check_domination,
    domination_summary,
    equality_case_kernel,
    equality_case_linear,
    equality_case_power,
    run_campaign,
)
from tsgronwall.timescale import TimeScale


def test_linear_equality_case_with_zero_weight_is_the_offset():
    ts1, ts2 = integer_windows(4, 4)
    a = GridFunction2.constant(ts1, ts2, Fraction(1))
    f = GridFunction2.constant(ts1, ts2, Fraction(0))
    u = equality_case_linear(BoundScenario(a=a, f=f))
    assert all(v == 1 for row in u.values for v in row)


def test_linear_equality_case_hand_recursion():
    # u*(2,1) = 1 + f(0,0)*u*(0,0) + f(1,0)*u*(1,0) = 1 + 1/4 + 1/5
    sc = example31_scenario()
    u = equality_case_linear(sc)
    assert u.value(2, 1) == Fraction(29, 20)


def test_linear_equality_case_boundary_rows_equal_the_offset():
    rng = random.Random(7)
    ts1, ts2 = integer_windows(6, 5)
    a = nondecreasing_grid(rng, ts1, ts2)
    f = rand_grid(rng, ts1, ts2)
    u = equality_case_linear(BoundScenario(a=a, f=f))
    for t1 in ts1.points:
        assert u.value(t1, 0) == a.value(t1, 0)
    for t2 in ts2.points:
        assert u.value(0, t2) == a.value(0, t2)


def test_equality_cases_require_discrete_windows():
    ts1 = TimeScale.sample(0.0, 0.5, 3)
    ts2 = TimeScale.sample(0.0, 0.5, 3)
    a = GridFunction2.constant(ts1, ts2, 1.0)
    sc = BoundScenario(a=a, f=a)
    with pytest.raises(NotDiscrete):
        equality_case_linear(sc)


def test_power_equality_case_with_zero_weight():
    ts1, ts2 = integer_windows(3, 3, mode=Mode.FLOAT)
    a = GridFunction2.constant(ts1, ts2, 16.0)
    f = GridFunction2.constant(ts1, ts2, 0.0)
    u = equality_case_power(BoundScenario(a=a, f=f, p=2.0, q=1.0))
    assert all(v == 4.0 for row in u.values for v in row)


def test_power_equality_case_collapses_to_linear_for_unit_powers():
    rng = random.Random(13)
    ts1, ts2 = integer_windows(5, 5)
    a = nondecreasing_grid(rng, ts1, ts2, positive=True)
    f = rand_grid(rng, ts1, ts2)
    sc = BoundScenario(a=a, f=f, p=1, q=1)
    assert equality_case_power(sc).values == equality_case_linear(sc).values


def test_float_power_equality_case_at_unit_powers_is_the_linear_one_bit_for_bit():
    rng = random.Random(17)
    for _ in range(10):
        ts1, ts2 = (
            TimeScale.sequence(
                0.0, [rng.uniform(0.1, 2.0) for _ in range(rng.randint(1, 7))], mode=Mode.FLOAT
            )
            for _ in range(2)
        )
        a = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: 0.5 + t1 + t1 * t2)
        f = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: rng.uniform(0.0, 3.0))
        sc = BoundScenario(a=a, f=f, p=1.0, q=1.0)
        power, linear = equality_case_power(sc).values, equality_case_linear(sc).values
        assert [[v.hex() for v in row] for row in power] == [
            [v.hex() for v in row] for row in linear
        ]


def test_float_power_equality_case_solves_its_recursion():
    # u**p = a + sum over sources below of mu1 * mu2 * f * u**q, at p > q > 1.
    rng = random.Random(29)
    ts1, ts2 = integer_windows(5, 4, mode=Mode.FLOAT)
    a = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: 1.0 + t1 + t2)
    f = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: rng.uniform(0.0, 0.5))
    u = equality_case_power(BoundScenario(a=a, f=f, p=3.0, q=2.0)).values
    for i in range(5):
        for j in range(4):
            rhs = a.values[i][j] + sum(
                f.values[k][m] * u[k][m] ** 2 for k in range(i) for m in range(j)
            )
            assert u[i][j] ** 3 == pytest.approx(rhs, rel=1e-12)


def test_linear_equality_case_does_not_read_the_powers():
    ts1, ts2 = integer_windows(4, 4, mode=Mode.FLOAT)
    a = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: 1.0 + t1 * t2)
    f = GridFunction2.from_callable(ts1, ts2, lambda t1, t2: 0.5 + t2)
    powered = BoundScenario(a=a, f=f, p=3.0, q=2.0)
    assert equality_case_linear(powered).values == equality_case_linear(
        BoundScenario(a=a, f=f)
    ).values


def test_power_equality_case_one_step_hand_value():
    # u*(1,1) = (1 + 1*1)^(1/2) = sqrt(2)
    ts1, ts2 = integer_windows(3, 3, mode=Mode.FLOAT)
    a = GridFunction2.constant(ts1, ts2, 1.0)
    f = GridFunction2.constant(ts1, ts2, 1.0)
    u = equality_case_power(BoundScenario(a=a, f=f, p=2.0, q=1.0))
    assert u.value(1.0, 1.0) == math.sqrt(2)


def test_power_equality_case_guards():
    ts1, ts2 = integer_windows(3, 3)
    a = GridFunction2.constant(ts1, ts2, Fraction(1))
    with pytest.raises(ModeRequired):
        equality_case_power(BoundScenario(a=a, f=a, p=2, q=1))
    zero_a = GridFunction2.constant(ts1, ts2, Fraction(0))
    with pytest.raises(NonPositiveA):
        equality_case_power(BoundScenario(a=zero_a, f=a, p=1, q=1))


def test_kernel_equality_case_with_zero_kernel_is_the_offset():
    rng = random.Random(17)
    ts1, ts2 = integer_windows(4, 4)
    a = nondecreasing_grid(rng, ts1, ts2)
    f = nondecreasing_grid(rng, ts1, ts2)
    sc = BoundScenario(a=a, f=f, kernel=lambda *args: Fraction(0))
    assert equality_case_kernel(sc).values == a.values


def test_kernel_equality_case_reduces_to_linear():
    rng = random.Random(19)
    ts1, ts2 = integer_windows(5, 4)
    a = nondecreasing_grid(rng, ts1, ts2)
    w = rand_grid(rng, ts1, ts2)
    one = GridFunction2.constant(ts1, ts2, Fraction(1))
    kernel_sc = BoundScenario(
        a=a, f=one, kernel=lambda t1, t2, s1, s2, w=w: w.value(s1, s2)
    )
    linear_sc = BoundScenario(a=a, f=w)
    assert equality_case_kernel(kernel_sc).values == equality_case_linear(linear_sc).values


def test_float_kernel_equality_case_sums_its_generator_left_to_right():
    # At the target (3, 1) the generator holds 1e16, 1.0 and -1e16, one
    # per source row. Compensated summation (sum() from Python 3.12 on)
    # would keep the 1.0; the left-to-right sum rounds it away on every
    # Python version.
    ts1, ts2 = integer_windows(4, 2, Mode.FLOAT)
    one = GridFunction2.constant(ts1, ts2, 1.0)
    row_values = {0.0: 1e16, 1.0: 1.0, 2.0: -1e16}
    sc = BoundScenario(a=one, f=one, kernel=lambda t1, t2, s1, s2: row_values[s1])
    u = equality_case_kernel(sc)
    assert u.values[3][1] == 1.0 + (((0.0 + 1e16) + 1.0) + -1e16) == 1.0


def test_kernel_equality_case_stays_below_the_kernel_bound():
    rng = random.Random(23)
    ts1, ts2 = integer_windows(5, 5)
    a = nondecreasing_grid(rng, ts1, ts2, positive=True)
    f = nondecreasing_grid(rng, ts1, ts2)
    coeffs = [rand_fraction(rng) for _ in range(3)]
    kernel = lambda t1, t2, s1, s2, c=coeffs: c[0] + c[1] * t2 + c[2] * s1 * s2
    sc = BoundScenario(a=a, f=f, kernel=kernel)
    u = equality_case_kernel(sc)
    result = check_domination(u, thm2_bound(sc))
    assert result.dominated
    assert result.worst_margin >= 0


def test_check_domination_zero_weight_attains_everywhere():
    rng = random.Random(29)
    ts1, ts2 = integer_windows(4, 3)
    a = nondecreasing_grid(rng, ts1, ts2)
    f = GridFunction2.constant(ts1, ts2, Fraction(0))
    sc = BoundScenario(a=a, f=f)
    u = equality_case_linear(sc)
    result = check_domination(u, thm1_bound_in2(sc))
    assert result.dominated
    assert result.worst_margin == 0
    assert len(result.attained_points) == 12


def test_check_domination_margin_zero_at_the_sharp_point():
    sc = example31_scenario()
    u = equality_case_linear(sc)
    result = check_domination(u, best_linear_bound(sc))
    assert result.dominated
    assert (2, 1) in result.attained_points  # 29/20 on both sides


def test_check_domination_negative_control():
    sc = example31_scenario()
    u = equality_case_linear(sc)
    report = best_linear_bound(sc)
    bumped_rows = [list(row) for row in u.values]
    bumped_rows[3][2] = report.values[3][2] + 1
    bumped = GridFunction2.from_rows(sc.ts1, sc.ts2, bumped_rows)
    result = check_domination(bumped, report)
    assert not result.dominated
    assert result.worst_margin == -1


def test_non_finite_float_margins_fail_domination():
    nan, inf = math.nan, math.inf
    for u, bound in (([[nan]], [[1.0]]), ([[1.0]], [[inf]]), ([[1.0, 2.0]], [[nan, 3.0]])):
        dominated, worst, attained = domination_summary(u, bound, Mode.FLOAT)
        assert dominated is False
        assert worst == -inf
        assert attained == []
    summary = CampaignSummary("thm2", 1, 1, -inf, 0, 0)
    assert summary_to_json(summary)["worst_margin"] == "-inf"


def test_check_domination_rejects_mismatched_grids():
    sc = example31_scenario()
    other1, other2 = integer_windows(2, 2)
    u = GridFunction2.constant(other1, other2, Fraction(1))
    with pytest.raises(GridMismatch):
        check_domination(u, thm1_bound_in2(sc))


def test_two_point_second_window_degenerates_to_the_classic_product_bound():
    rng = random.Random(31)
    ts1, ts2 = integer_windows(8, 2)
    a = nondecreasing_grid(rng, ts1, ts2)
    f = rand_grid(rng, ts1, ts2)
    sc = BoundScenario(a=a, f=f)
    report = thm1_bound_in2(sc)
    # directly coded one-variable product bound with weights f(s, 0)
    for i in range(len(ts1.points)):
        product = Fraction(1)
        for s in range(i):
            product *= 1 + f.values[s][0]
        assert report.values[i][1] == a.values[i][1] * product
    result = check_domination(equality_case_linear(sc), report)
    assert result.dominated


def test_linear_equality_case_inherits_monotonicity():
    rng = random.Random(37)
    for _ in range(10):
        ts1, ts2 = integer_windows(rng.randint(2, 7), rng.randint(2, 7))
        a = nondecreasing_grid(rng, ts1, ts2)
        f = rand_grid(rng, ts1, ts2)
        u = equality_case_linear(BoundScenario(a=a, f=f))
        flags = u.monotone_flags()
        assert flags.nonnegative and flags.nondecreasing


def test_power_domination_small_float_scenario():
    ts1, ts2 = integer_windows(5, 5, mode=Mode.FLOAT)
    a = GridFunction2.constant(ts1, ts2, 1.0)
    f = GridFunction2.constant(ts1, ts2, 1.0)
    sc = BoundScenario(a=a, f=f, p=2.0, q=1.0)
    result = check_domination(equality_case_power(sc), thm3_bound(sc))
    assert result.dominated
    assert result.worst_margin >= -1e-9


def test_campaigns_smoke():
    for theorem in ("thm1", "thm2", "thm3", "thm4", "cor31"):
        summary = run_campaign(theorem, 6, seed=1, max_window=6)
        assert summary.failures == 0
        assert summary.cases == 6


def test_campaign_zero_cases_is_empty():
    summary = run_campaign("thm1", 0, seed=1)
    assert summary.cases == 0
    assert summary.failures == 0
    assert summary.worst_margin is None
    assert summary.attained_count == 0


def test_campaign_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        run_campaign("thm9", 1, seed=0)


def test_campaign_is_reproducible():
    first = run_campaign("thm1", 5, seed=42, max_window=6)
    second = run_campaign("thm1", 5, seed=42, max_window=6)
    assert summary_to_json(first) == summary_to_json(second)


# Recorded run_campaign(theorem, 8, seed, max_window=8) summaries: the
# window sizes, and with them the attained counts, change with any change
# in the order the scenarios are drawn.
RECORDED_SUMMARIES = {
    ("thm1", 4): ("0", 65),
    ("thm2", 4): ("0", 90),
    ("thm3", 4): (0.0, 65),
    ("thm4", 4): ("0", 90),
    ("cor31", 4): ("0", 69),
    ("thm1", 9): ("0", 72),
    ("thm2", 9): ("0", 82),
    ("thm3", 9): (0.0, 79),
    ("thm4", 9): ("0", 82),
    ("cor31", 9): ("0", 60),
}


@pytest.mark.parametrize("theorem,seed", sorted(RECORDED_SUMMARIES))
def test_campaign_summaries_match_the_recorded_draws(theorem, seed):
    worst, attained = RECORDED_SUMMARIES[theorem, seed]
    assert summary_to_json(run_campaign(theorem, 8, seed, max_window=8)) == {
        "theorem": theorem,
        "cases": 8,
        "failures": 0,
        "worst_margin": worst,
        "attained_count": attained,
        "seed": seed,
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cor31_cross_check_fails_on_non_finite_thm4_values(monkeypatch, bad):
    # thm4 is replaced by the cor31 report itself, with one value spoiled
    # in float mode; exact cases keep the report as it is and agree.
    def spoiled_thm4(sc):
        report = cor31_bound(sc)
        if report.mode is Mode.EXACT:
            return report
        rows = [list(row) for row in report.values]
        rows[-1][-1] = bad
        return dataclasses.replace(report, values=tuple(tuple(row) for row in rows))

    monkeypatch.setattr(oracle, "thm4_bound", spoiled_thm4)
    # (1, 1), (2, 1), (2, 2), (3, 2): four of the eight cases run in float mode
    summary = run_campaign("cor31", 8, 3, 6)
    assert summary.failures == 4
