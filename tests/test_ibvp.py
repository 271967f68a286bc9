import math

import pytest

from conftest import integer_windows
from tsgronwall.errors import (
    HypothesisViolated,
    ModeRequired,
    NotDiscrete,
)
from tsgronwall.ibvp import (
    IbvpProblem,
    _solve_with_trace,
    check_estimate,
    estimate_in7,
    solve_ibvp,
)
from tsgronwall.numeric import Mode
from tsgronwall.timescale import TimeScale


def _windows(n1=8, n2=8):
    return integer_windows(n1, n2, mode=Mode.FLOAT)


def _problem(F=lambda t1, t2, u: t2 * u, n1=8, n2=8):
    ts1, ts2 = _windows(n1, n2)
    return IbvpProblem(ts1, ts2, F=F, g=lambda t1: t1, h=lambda t2: t2 * t2)


def test_edge_functions_must_vanish_at_zero():
    ts1, ts2 = _windows(4, 4)
    with pytest.raises(ValueError):
        IbvpProblem(ts1, ts2, F=lambda *a: 0.0, g=lambda t: t + 1.0, h=lambda t: t)
    with pytest.raises(ValueError):
        IbvpProblem(ts1, ts2, F=lambda *a: 0.0, g=lambda t: t, h=lambda t: t - t * t)


def test_edge_functions_must_be_positive_off_zero():
    ts1, ts2 = _windows(4, 4)
    with pytest.raises(ValueError):
        IbvpProblem(ts1, ts2, F=lambda *a: 0.0, g=lambda t: 0.0, h=lambda t: t)


def test_windows_must_start_at_zero():
    ts1 = TimeScale.integers(1, 4, mode=Mode.FLOAT)
    ts2 = TimeScale.integers(0, 3, mode=Mode.FLOAT)
    with pytest.raises(ValueError):
        IbvpProblem(ts1, ts2, F=lambda *a: 0.0, g=lambda t: t - 1.0, h=lambda t: t)


def test_windows_must_be_discrete_floats():
    exact1 = TimeScale.integers(0, 3)
    exact2 = TimeScale.integers(0, 3)
    with pytest.raises(ModeRequired):
        IbvpProblem(exact1, exact2, F=lambda *a: 0.0, g=lambda t: t, h=lambda t: t)
    sampled = TimeScale.sample(0.0, 0.5, 4)
    with pytest.raises(NotDiscrete):
        IbvpProblem(sampled, sampled, F=lambda *a: 0.0, g=lambda t: t, h=lambda t: t)


def test_solve_without_forcing_is_the_root_of_the_edge_sum():
    prob = _problem(F=lambda t1, t2, u: 0.0, n1=5, n2=5)
    u = solve_ibvp(prob)
    for t1 in prob.ts1.points:
        for t2 in prob.ts2.points:
            assert u.value(t1, t2) == math.sqrt(t1 + t2 * t2)


def test_solution_edges_match_the_boundary_data():
    prob = _problem()
    u = solve_ibvp(prob)
    for t1 in prob.ts1.points:
        assert u.value(t1, 0.0) == math.sqrt(t1)
    for t2 in prob.ts2.points:
        assert u.value(0.0, t2) == math.sqrt(t2 * t2)


def test_F_is_read_once_per_source_cell_in_sweep_order():
    calls = []

    def F(t1, t2, u):
        calls.append((t1, t2, u))
        return t2 * u / 2

    prob = _problem(F=F, n1=5, n2=4)
    rows, trace = _solve_with_trace(prob)
    pts1, pts2 = prob.ts1.points, prob.ts2.points
    sources = [(i, j) for i in range(4) for j in range(3)]
    assert calls == [(pts1[i], pts2[j], rows[i][j]) for i, j in sources]
    assert trace == [(t1, t2, u, t2 * u / 2) for t1, t2, u in calls]
    calls.clear()
    solve_ibvp(prob)
    assert len(calls) == len(sources)


def test_estimate_on_the_first_edge_is_sqrt_g():
    prob = _problem()
    estimate = estimate_in7(prob)
    for t1 in prob.ts1.points:
        assert estimate.value(t1, 0.0) == pytest.approx(math.sqrt(t1))


def test_estimate_dominates_the_unforced_solution():
    prob = _problem(F=lambda t1, t2, u: 0.0, n1=6, n2=6)
    u = solve_ibvp(prob)
    estimate = estimate_in7(prob)
    for i, t1 in enumerate(prob.ts1.points):
        for j, t2 in enumerate(prob.ts2.points):
            if (i, j) == (0, 0):
                continue
            assert estimate.value(t1, t2) >= u.value(t1, t2) - 1e-12


def test_estimate_is_nondecreasing_along_the_second_axis():
    prob = _problem()
    estimate = estimate_in7(prob)
    for row in estimate.values:
        for left, right in zip(row, row[1:]):
            assert right >= left - 1e-12


def test_check_estimate_on_the_hypothesis_boundary():
    result = check_estimate(_problem(F=lambda t1, t2, u: t2 * u))
    assert result.dominated
    assert result.worst_margin >= -1e-9


def test_check_estimate_with_slack_has_positive_interior_margins():
    prob = _problem(F=lambda t1, t2, u: t2 * u / 2)
    result = check_estimate(prob)
    assert result.dominated
    u = result.u_star
    estimate = estimate_in7(prob)
    for i, t1 in enumerate(prob.ts1.points):
        for j, t2 in enumerate(prob.ts2.points):
            if i >= 1 and j >= 2:
                assert estimate.value(t1, t2) > u.value(t1, t2)


def test_check_estimate_negative_control():
    with pytest.raises(HypothesisViolated):
        check_estimate(_problem(F=lambda t1, t2, u: 2 * t2 * u))


def test_estimate_dominates_over_a_seeded_admissible_family():
    import random

    rng = random.Random(71)
    for _ in range(15):
        n1, n2 = rng.randint(2, 10), rng.randint(2, 10)
        ts1, ts2 = _windows(n1, n2)
        g_steps = [0.0] + [rng.randint(1, 9) / rng.randint(1, 9) for _ in range(n1 - 1)]
        h_steps = [0.0] + [rng.randint(1, 9) / rng.randint(1, 9) for _ in range(n2 - 1)]
        g_table = {t: sum(g_steps[: i + 1]) for i, t in enumerate(ts1.points)}
        h_table = {t: sum(h_steps[: j + 1]) for j, t in enumerate(ts2.points)}
        scale = rng.randint(0, 9) / 9.0  # forcing stays inside [0, t2*u]
        prob = IbvpProblem(
            ts1, ts2,
            F=lambda t1, t2, u, c=scale: c * t2 * u,
            g=g_table.__getitem__,
            h=h_table.__getitem__,
        )
        result = check_estimate(prob)
        assert result.dominated
        assert result.worst_margin >= -1e-9


def test_solver_rejects_float_mode_violations():
    from tsgronwall.errors import ModeMismatch

    prob = _problem(F=lambda t1, t2, u: 0)  # int return: wrong mode
    with pytest.raises(ModeMismatch):
        solve_ibvp(prob)
