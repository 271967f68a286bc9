"""The squared-solution boundary problem and its a-priori estimate.

The unknown u is defined by the delta integral form

    u(t1, t2)**2 = g(t1) + h(t2) + double integral of F(s1, s2, u(s1, s2))

over [0, t1) x [0, t2), which pins down u on any discrete window by one
sweep (the integral form is taken as the defining equation). The
estimate applies the power bound with offset g + h, weight t2 and powers
(2, 1); it majorizes the solution wherever F stays within 0 <= F <= t2*u,
at every grid point except the origin, where g + h vanishes by
construction and both sides are 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .bounds import BoundScenario, thm3_bound
from .errors import (
    HypothesisViolated,
    ModeRequired,
    NegativeRadicand,
    NotDiscrete,
)
from .grid2 import GridFunction2, sweep2
from .numeric import Mode, Scalar, require_mode
from .oracle import OracleResult, domination_summary
from .timescale import TimeScale

_HYP_SLACK = 1e-12


@dataclass(frozen=True)
class IbvpProblem:
    """Problem data: F drives the mixed second difference of u**2, while
    u**2 equals g on the t2 = 0 edge and h on the t1 = 0 edge.

    Both windows must start at 0 and be discrete; g and h must vanish at
    0, never decrease, and stay positive away from 0. Square roots leave
    the rationals, so the windows must be in float mode.
    """

    ts1: TimeScale
    ts2: TimeScale
    F: Callable[[Scalar, Scalar, Scalar], Scalar]
    g: Callable[[Scalar], Scalar]
    h: Callable[[Scalar], Scalar]

    def __post_init__(self):
        if not (self.ts1.is_discrete and self.ts2.is_discrete):
            raise NotDiscrete("the solver recursion needs discrete windows")
        if self.ts1.mode is not Mode.FLOAT or self.ts2.mode is not Mode.FLOAT:
            raise ModeRequired("square roots need float mode windows")
        if self.ts1.start != 0 or self.ts2.start != 0:
            raise ValueError("both windows must start at 0")
        _check_edge_function(self.g, self.ts1, "g")
        _check_edge_function(self.h, self.ts2, "h")


def _check_edge_function(fn, ts: TimeScale, name: str) -> None:
    values = [require_mode(fn(t), Mode.FLOAT, f"{name} value") for t in ts.points]
    if values[0] != 0:
        raise ValueError(f"{name}(0) must be 0")
    for prev, cur in zip(values, values[1:]):
        if cur < prev:
            raise ValueError(f"{name} must be nondecreasing on the window")
    if any(v <= 0 for v in values[1:]):
        raise ValueError(f"{name} must be positive away from 0")


def _solve_with_trace(prob: IbvpProblem):
    """Sweep the grid once; returns the solution rows and the list of
    (s1, s2, u, F(s1, s2, u)) at every source point the sums consumed."""
    pts1, pts2 = prob.ts1.points, prob.ts2.points
    g_vals = [prob.g(t) for t in pts1]
    h_vals = [prob.h(t) for t in pts2]
    trace = []

    def term(i, j, w, u_ij):
        f_val = require_mode(prob.F(pts1[i], pts2[j], u_ij), Mode.FLOAT, "F value")
        trace.append((pts1[i], pts2[j], u_ij, f_val))
        return w * f_val

    def cell(i, j, s):
        radicand = g_vals[i] + h_vals[j] + s
        if radicand < 0:
            raise NegativeRadicand(
                f"u**2 went negative at ({pts1[i]}, {pts2[j]}); F must be nonnegative"
            )
        return math.sqrt(radicand)

    u = sweep2(prob.ts1.graininesses(), prob.ts2.graininesses(), 0.0, term, cell)
    return u, trace


def solve_ibvp(prob: IbvpProblem) -> GridFunction2:
    """Solve the integral form on the grid; u is nonnegative by
    construction and matches sqrt(g) / sqrt(h) on the two edges."""
    rows, _ = _solve_with_trace(prob)
    return GridFunction2.from_rows(prob.ts1, prob.ts2, rows)


def estimate_in7(prob: IbvpProblem) -> GridFunction2:
    """A-priori majorant sqrt(g + h) times the square root of the scale
    exponential, built by running the power bound with offset g + h,
    weight t2, and powers (2, 1).

    The offset vanishes at the origin only; that zero never meets the
    negative power inside the generator because the weight t2 vanishes on
    the whole t2 = 0 edge, and the origin itself is excluded from every
    comparison.
    """
    a = GridFunction2.from_callable(
        prob.ts1, prob.ts2, lambda t1, t2: prob.g(t1) + prob.h(t2)
    )
    f = GridFunction2.from_callable(prob.ts1, prob.ts2, lambda _t1, t2: t2)
    report = thm3_bound(BoundScenario(a=a, f=f, p=2.0, q=1.0))
    return GridFunction2(prob.ts1, prob.ts2, report.values)


def check_estimate(prob: IbvpProblem) -> OracleResult:
    """Solve, verify the recorded F values stayed inside 0 <= F <= t2*u,
    then compare the solution against the majorant at every grid point
    except the origin (float mode, relative tolerance). The majorant's
    values come back as ``bound_values``."""
    rows, trace = _solve_with_trace(prob)
    for s1, s2, u_val, f_val in trace:
        limit = s2 * u_val
        slack = _HYP_SLACK * max(1.0, abs(limit))
        if f_val < -slack or f_val > limit + slack:
            raise HypothesisViolated(
                f"F({s1}, {s2}, {u_val}) = {f_val} is outside [0, t2*u]"
            )
    estimate = estimate_in7(prob)
    dominated, worst, attained_idx = domination_summary(
        rows, estimate.values, Mode.FLOAT, exclude={(0, 0)}
    )
    solution = GridFunction2.from_rows(prob.ts1, prob.ts2, rows)
    points = [(prob.ts1.points[i], prob.ts2.points[j]) for i, j in attained_idx]
    return OracleResult(solution, dominated, worst, points, estimate.values)
