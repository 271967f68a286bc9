"""Brute-force certification of the bounds.

The pointwise-largest function satisfying each premise is the one that
satisfies it with equality, and because every right-hand side reads the
unknown only at strictly smaller indices in both axes, that function
falls out of a single sweep over the grid. A bound that dominates the
equality case dominates every admissible function, which turns a
universally quantified claim into one comparison per grid point.

The kernel equality case has no kernel sum of its own: it is a reader of
bounds.kernel_pass, the pass the kernel bounds read, with the
coefficients mu1 * mu2 * u**q of the rows it has solved.
bound_and_equality_case runs a kernel bound, its equality case and any
cross-check bounds as readers of one pass, so each kernel value is read
once. The power and kernel equality cases take their roots and q-th
powers from BoundScenario.root and BoundScenario.q_power, the owners of
the exact mode convention (p-th powers stored) that the power bounds
follow too.

Campaigns draw reproducible random scenarios from one builder (rationals
with numerators 0..9 and denominators 1..9; nondecreasing grids built as
running sums of nonnegative increments) and count domination failures
across seeds. thm1 checks its three linear bounds; every other campaign
theorem takes one case path, which reads its power pairs and scenario
builder off the table _CAMPAIGN_CASES, its bound off compute_bound and
its equality case off EQUALITY_CASES.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .bounds import (
    KERNEL_READERS,
    MAX_DIRECT_KERNEL_PAIRS,
    BoundReport,
    BoundScenario,
    KernelReader,
    _best_linear_of,
    _direct_kernel_pairs,
    _require_a_not_negative,
    _require_exact_power,
    compute_bound,
    kernel_pass,
    thm1_bound_in2,
    thm1_bound_in6,
)
from .errors import GridMismatch, KernelWorkTooLarge, NonPositiveA, NotDiscrete
from .grid2 import GridFunction2, sweep2
from .numeric import Mode, Scalar, zero
from .timescale import TimeScale

REL_TOL = 1e-9

CAMPAIGN_THEOREMS = ("thm1", "thm2", "thm3", "thm4", "cor31")

THM3_PAIRS = ((2, 1), (3, 2), (1, 1))
THM4_PAIRS = ((1, 1), (2, 1), (2, 2), (3, 2))


@dataclass
class OracleResult:
    """Outcome of comparing one premise solution against one bound;
    ``bound_values`` holds the bound grid it was compared with."""

    u_star: GridFunction2
    dominated: bool
    worst_margin: Scalar
    attained_points: list[tuple[Scalar, Scalar]]
    bound_values: tuple = ()


def _require_discrete(sc: BoundScenario) -> None:
    if not (sc.ts1.is_discrete and sc.ts2.is_discrete):
        raise NotDiscrete("equality-case recursions need discrete windows")


def _equality_sweep(sc: BoundScenario, root, q_power) -> GridFunction2:
    """The sweep behind the linear and power equality cases: u = root(a +
    double integral of f * q_power(u)), one lexicographic pass, since the
    integral reads u only at indices smaller in both axes."""
    a, f = sc.a.values, sc.f.values
    u = sweep2(
        sc.ts1.graininesses(), sc.ts2.graininesses(), zero(sc.mode),
        lambda i, j, w, u_ij: w * f[i][j] * q_power(u_ij),
        lambda i, j, s: root(a[i][j] + s),
    )
    return GridFunction2.from_rows(sc.ts1, sc.ts2, u)


def _identity(x):
    return x


def equality_case_linear(sc: BoundScenario) -> GridFunction2:
    """Largest solution of u = a + (double integral of f*u); p and q are
    not read. Exact in exact mode."""
    _require_discrete(sc)
    return _equality_sweep(sc, _identity, _identity)


def equality_case_power(sc: BoundScenario) -> GridFunction2:
    """Largest solution of u**p = a + (double integral of f * u**q).

    Exact mode needs p = q, and then the returned grid holds the p-th
    powers u**p (see BoundScenario.root and q_power), matching the
    powered values exact power bounds report, so domination checks
    compare like with like.
    """
    _require_discrete(sc)
    if any(v <= 0 for row in sc.a.values for v in row):
        raise NonPositiveA("power recursion needs a positive offset grid")
    _require_exact_power(sc, "power recursion")
    return _equality_sweep(sc, sc.root, sc.q_power)


def equality_case_kernel(sc: BoundScenario) -> GridFunction2:
    """Largest solution of u**p = a + f(t1, t2) * (double kernel integral
    of g(t1, t2, ., .) * u**q).

    The kernel is pinned at the target indices while the summed values
    sit strictly below them, so the recursion stays closed. Exact mode
    follows the same p = q powered convention as equality_case_power,
    through BoundScenario.root and q_power.
    """
    return kernel_pass(sc, [_equality_kernel_reader])[0]


def _equality_kernel_reader(sc: BoundScenario) -> KernelReader:
    """equality_case_kernel as a reader of bounds.kernel_pass: each solved
    row of targets adds the coefficients mu1 * mu2 * u**q of its sources,
    which the targets above read."""
    if sc.kernel is None:
        raise ValueError("kernel recursion needs a kernel")
    _require_discrete(sc)
    _require_a_not_negative(sc)
    _require_exact_power(sc, "kernel recursion")
    n1, n2 = sc.a.shape
    mu1, mu2 = sc.ts1.graininesses(), sc.ts2.graininesses()
    a = sc.a.values
    zero_value = zero(sc.mode)
    coefficients, u = [], []

    def visit(i, j, gen):
        if j == 0:
            u.append([])
        s = zero_value
        for g in gen:
            s += g
        u[i].append(sc.root(a[i][j] + s))
        if j == n2 - 1 and i + 1 < n1:
            coefficients.append([mu1[i] * w * sc.q_power(v) for w, v in zip(mu2, u[i])])

    return KernelReader(
        coefficients, False, {}, visit, lambda: GridFunction2.from_rows(sc.ts1, sc.ts2, u)
    )


# Bound selector -> the equality case its oracle solves, for the CLI and
# the campaigns.
EQUALITY_CASES = {
    "thm1-in2": equality_case_linear,
    "thm1-in6": equality_case_linear,
    "best-linear": equality_case_linear,
    "thm2": equality_case_kernel,
    "thm3": equality_case_power,
    "thm4": equality_case_kernel,
    "cor31": equality_case_kernel,
}


def bound_and_equality_case(theorem: str, sc: BoundScenario, *cross: str) -> tuple:
    """(report, equality case, one report per `cross` selector) on `sc`.
    When every selector names a kernel bound, the bounds and the kernel
    equality case are readers of one bounds.kernel_pass, in that order,
    and read each kernel value once; otherwise each runs on its own."""
    if all(t in KERNEL_READERS for t in (theorem, *cross)):
        starts = [KERNEL_READERS[theorem], _equality_kernel_reader]
        return tuple(kernel_pass(sc, starts + [KERNEL_READERS[t] for t in cross]))
    report = compute_bound(theorem, sc)
    u = EQUALITY_CASES[theorem](sc)
    return (report, u, *(compute_bound(t, sc) for t in cross))


def domination_summary(u_values, bound_values, mode: Mode, exclude=frozenset()):
    """Pointwise comparison of a solution against bound values.

    Exact mode compares rationals outright and margins are absolute;
    float mode uses margins relative to max(|bound|, |solution|, 1) at
    tolerance REL_TOL. A float margin that is not finite (an overflowed
    bound or solution) proves nothing: it fails the check and counts as
    -inf. Returns (dominated, worst_margin, attained index pairs)."""
    worst = None
    attained = []
    dominated = True
    for i, (u_row, b_row) in enumerate(zip(u_values, bound_values)):
        for j, (uv, bv) in enumerate(zip(u_row, b_row)):
            if (i, j) in exclude:
                continue
            if mode is Mode.EXACT:
                margin = bv - uv
                if margin < 0:
                    dominated = False
                if margin == 0:
                    attained.append((i, j))
            else:
                scale = max(abs(bv), abs(uv), 1.0)
                margin = (bv - uv) / scale
                if not math.isfinite(margin):
                    margin = -math.inf
                if margin < -REL_TOL:
                    dominated = False
                if abs(margin) <= REL_TOL:
                    attained.append((i, j))
            worst = margin if worst is None else min(worst, margin)
    return dominated, worst, attained


def _compare(u: GridFunction2, bound_values, mode: Mode, exclude=frozenset()) -> OracleResult:
    """domination_summary of u against bound_values, as an OracleResult."""
    dominated, worst, attained_idx = domination_summary(u.values, bound_values, mode, exclude)
    points = [(u.ts1.points[i], u.ts2.points[j]) for i, j in attained_idx]
    return OracleResult(u, dominated, worst, points, bound_values)


def check_domination(u: GridFunction2, report: BoundReport) -> OracleResult:
    """Compare a premise solution against one bound report.

    Powered reports (exact power bounds with p > 1) must be paired with
    the powered solution grid the exact recursions return; both sides
    then carry p-th powers (BoundScenario.root and q_power), and x -> x**p
    is increasing on the nonnegative axis.
    """
    if u.ts1 != report.ts1 or u.ts2 != report.ts2:
        raise GridMismatch("solution and report do not share the same windows")
    return _compare(u, report.values, report.mode)


# -- reproducible random scenarios ------------------------------------


def _rand_fraction(rng: random.Random, lowest_num: int = 0) -> Fraction:
    return Fraction(rng.randint(lowest_num, 9), rng.randint(1, 9))


def _rand_rows(rng, n1, n2, lowest_num=0):
    return [[_rand_fraction(rng, lowest_num) for _ in range(n2)] for _ in range(n1)]


def _running_sum_rows(rows):
    """2-D running sums: nondecreasing along both axes when entries are
    nonnegative, and everywhere >= the top-left entry. Entry (i, j) is
    the unit-weight double sum over sources up to (i, j), so it is the
    sweep's cell (i + 1, j + 1)."""
    sums = sweep2(
        [1] * len(rows), [1] * len(rows[0]), Fraction(0),
        lambda i, j, _w, _u: rows[i][j],
        lambda _i, _j, s: s,
    )
    return [row[1:] for row in sums[1:]]


def _float_rows(rows):
    return [[float(v) for v in row] for row in rows]


def _polynomial_kernel(coefficients, mode: Mode):
    c0, c1, c2, c3, c4, c5 = [
        float(c) if mode is Mode.FLOAT else Fraction(c) for c in coefficients
    ]

    def kernel(t1, t2, s1, s2):
        return c0 + c1 * t1 + c2 * t2 + c3 * s1 + c4 * s2 + c5 * s1 * s2

    return kernel


def _window_sizes(rng, max_window):
    if max_window < 2:
        raise ValueError("max_window must be at least 2")
    return rng.randint(2, max_window), rng.randint(2, max_window)


def _scales(rng, n1, n2, mode, sequence_scales):
    if sequence_scales:
        incs1 = [_rand_fraction(rng, 1) for _ in range(n1 - 1)]
        incs2 = [_rand_fraction(rng, 1) for _ in range(n2 - 1)]
        if mode is Mode.FLOAT:
            incs1 = [float(v) for v in incs1]
            incs2 = [float(v) for v in incs2]
        ts1 = TimeScale.sequence(0, incs1, mode=mode)
        ts2 = TimeScale.sequence(0, incs2, mode=mode)
    else:
        ts1 = TimeScale.integers(0, n1 - 1, mode=mode)
        ts2 = TimeScale.integers(0, n2 - 1, mode=mode)
    return ts1, ts2


def _random_scenario(
    rng, max_window, mode, sequence_scales, *, positive_a, kernel, p=1, q=1
) -> BoundScenario:
    """The one random-scenario builder: f nonnegative (nondecreasing with
    a kernel), a nonnegative and nondecreasing (positive with
    `positive_a`), and with `kernel` a nonnegative polynomial kernel in
    all four arguments. Draws window sizes, scales, f, a, then the
    kernel's coefficients."""
    n1, n2 = _window_sizes(rng, max_window)
    ts1, ts2 = _scales(rng, n1, n2, mode, sequence_scales)
    f_rows = _rand_rows(rng, n1, n2)
    if kernel:
        f_rows = _running_sum_rows(f_rows)
    seed_rows = _rand_rows(rng, n1, n2)
    if positive_a:
        seed_rows[0][0] = _rand_fraction(rng, 1)
    a_rows = _running_sum_rows(seed_rows)
    if mode is Mode.FLOAT:
        f_rows, a_rows = _float_rows(f_rows), _float_rows(a_rows)
    g = None
    if kernel:
        g = _polynomial_kernel([_rand_fraction(rng) for _ in range(6)], mode)
    return BoundScenario(
        a=GridFunction2.from_rows(ts1, ts2, a_rows),
        f=GridFunction2.from_rows(ts1, ts2, f_rows),
        kernel=g,
        p=p, q=q,
    )


def random_linear_scenario(rng: random.Random, max_window: int = 12) -> BoundScenario:
    """f nonnegative, a nonnegative and nondecreasing, on an integer grid."""
    return _random_scenario(rng, max_window, Mode.EXACT, False, positive_a=False, kernel=False)


def random_power_scenario(
    rng: random.Random, max_window: int = 12, p=1, q=1, mode: Mode = Mode.EXACT
) -> BoundScenario:
    """a positive and nondecreasing, f nonnegative, with powers p >= q."""
    return _random_scenario(
        rng, max_window, mode, False, positive_a=True, kernel=False, p=p, q=q
    )


def random_kernel_scenario(
    rng: random.Random,
    max_window: int = 12,
    p=1,
    q=1,
    mode: Mode = Mode.EXACT,
    sequence_scales: bool = False,
) -> BoundScenario:
    """a positive, a and f nondecreasing, plus a nonnegative polynomial
    kernel in all four arguments."""
    return _random_scenario(
        rng, max_window, mode, sequence_scales, positive_a=True, kernel=True, p=p, q=q
    )


# -- campaigns ---------------------------------------------------------


@dataclass
class CampaignSummary:
    theorem: str
    cases: int
    failures: int
    worst_margin: Optional[Scalar]
    attained_count: int
    seed: int


# Campaign theorem past thm1 -> (power pairs, cycled over the cases and
# exact when p = q, and the scenario builder).
_CAMPAIGN_CASES = {
    "thm2": (((1, 1),), random_kernel_scenario),
    "thm3": (THM3_PAIRS, random_power_scenario),
    "thm4": (THM4_PAIRS, random_kernel_scenario),
    "cor31": (THM4_PAIRS, partial(random_kernel_scenario, sequence_scales=True)),
}


def _run_case(theorem: str, rng: random.Random, case_index: int, max_window: int):
    """One campaign case: returns (ok, oracle results). The last result in
    the list belongs to the tightest bound and feeds the attained count.
    A cor31 case also needs thm4 to agree with it: each must dominate the
    other."""
    if theorem == "thm1":
        sc = random_linear_scenario(rng, max_window)
        u = equality_case_linear(sc)
        reports = [thm1_bound_in2(sc), thm1_bound_in6(sc)]
        reports.append(_best_linear_of(sc, *reports))
        results = [check_domination(u, rep) for rep in reports]
        return all(r.dominated for r in results), results
    pairs, build = _CAMPAIGN_CASES[theorem]
    p, q = pairs[case_index % len(pairs)]
    sc = build(rng, max_window, p=p, q=q, mode=Mode.EXACT if p == q else Mode.FLOAT)
    cross = ("thm4",) if theorem == "cor31" else ()
    report, u, *others = bound_and_equality_case(theorem, sc, *cross)
    result = check_domination(u, report)
    ok = result.dominated
    for other in others:
        for first, second in ((report.values, other.values), (other.values, report.values)):
            ok = domination_summary(first, second, sc.mode)[0] and ok
    return ok, [result]


def run_campaign(theorem: str, cases: int, seed: int, max_window: int = 12) -> CampaignSummary:
    """Run `cases` seeded scenarios and count the ones where any checked
    bound failed to dominate its equality-case solution.

    The kernel campaigns (thm2, thm4, cor31) draw Python kernels, which
    take the direct kernel sum, so a `max_window` whose square window
    passes MAX_DIRECT_KERNEL_PAIRS raises KernelWorkTooLarge before the
    first case rather than at the first large one."""
    if theorem not in CAMPAIGN_THEOREMS:
        raise ValueError(f"unknown campaign theorem {theorem!r}")
    if cases < 0:
        raise ValueError("cases must be nonnegative")
    side = max_window
    kernel = theorem in ("thm2", "thm4", "cor31")
    while kernel and _direct_kernel_pairs(side, side) > MAX_DIRECT_KERNEL_PAIRS:
        side -= 1
    if side < max_window:
        raise KernelWorkTooLarge(
            f"a {theorem} campaign with window sides up to {max_window} may draw "
            f"{max_window} x {max_window} points, past MAX_DIRECT_KERNEL_PAIRS "
            f"({MAX_DIRECT_KERNEL_PAIRS}); the largest side it allows is {side}"
        )
    rng = random.Random(seed)
    failures = 0
    worst = None
    attained_total = 0
    for case_index in range(cases):
        ok, results = _run_case(theorem, rng, case_index, max_window)
        for res in results:
            worst = res.worst_margin if worst is None else min(worst, res.worst_margin)
        if results:
            attained_total += len(results[-1].attained_points)
        if not ok:
            failures += 1
    return CampaignSummary(theorem, cases, failures, worst, attained_total, seed)
