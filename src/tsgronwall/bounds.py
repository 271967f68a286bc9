"""Explicit pointwise majorants for the double-integral inequalities.

Each bound function takes a BoundScenario and returns a BoundReport with
the majorant at every grid point plus the scanned hypothesis flags.
Hypothesis failures never abort a computation; they downgrade the report
to uncertified so the values can still be explored.

Names follow the CLI selector strings. thm1-in2 and thm1-in6 are the two
linear bounds, with the exponential accumulated along the first and the
second axis respectively; best-linear takes their pointwise minimum.
thm2 adds a four-argument kernel frozen at each target point, thm3 the
power pair p >= q > 0, thm4 both, and cor31 is the sequence-scale route
to thm4 through the literal increment product.

Two loops compute them all: _linear_core runs thm1-in2, thm1-in6 (the
axes swapped) and thm3; _kernel_bound_values runs thm2, thm4 and cor31.
kernel_generator is the one kernel sum: at a target, the per-row sums
over the sources below it of coefficient * kernel value. It alone picks
between the separable prefix-sum path and the direct double sum and
skips the f = 0 targets of thm4 and cor31; the kernel bounds here and
the kernel equality case in the oracle both read it.

Inside BoundScenario.shared_kernel_values() a scenario carries one kernel
table of the direct path's values, stored per target once the target
completes, so the bound, its equality case and cor31's thm4 cross-check
on one scenario evaluate each kernel value once. The cost is memory:
while the block lasts the direct path keeps O(pairs) values where it
otherwise keeps O(n1), bounded by MAX_DIRECT_KERNEL_PAIRS. Outside the
block it keeps none, so a lone kernel sum pays neither the memory nor
the time of storing values that nothing reads again. A separable
kernel's factors are only O(n1 * n2 * r) values, the size of the grids,
so the scenario keeps them for life (BoundScenario._factor_table).

Exact mode and powers: p >= q > 0 puts the generator exponent q/p - 1
in (-1, 0], and a**(q/p - 1) is exact only at 0, so exact power bounds
need p = q (_require_exact_power), anything else raises ModeRequired.
When p = q > 1 the bound itself, a**(1/p) * e**(1/p), is irrational, so
exact reports carry (a * e), the p-th power of the bound, flagged
``powered``; comparisons against the matching powered oracle stay exact
because x -> x**p is increasing on the nonnegative axis.
BoundScenario.root and BoundScenario.q_power are the only statement of
this convention: the power bounds and the oracle's equality cases both
take their roots and q-th powers from them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .errors import (
    GridMismatch,
    KernelDomain,
    KernelWorkTooLarge,
    ModeRequired,
    NonPositiveA,
    TsgronwallError,
    WrongScaleKind,
)
from .grid2 import GridFunction2
from .numeric import Mode, Scalar, require_mode, scalar_pow, to_mode, zero
from .timescale import SEQUENCE, TimeScale, exp_prefix_from_increments

THEOREMS = ("thm1-in2", "thm1-in6", "best-linear", "thm2", "thm3", "thm4", "cor31")

Kernel4 = Callable[[Scalar, Scalar, Scalar, Scalar], Scalar]
Factor2 = Callable[[Scalar, Scalar], Scalar]

# Most target-source pairs, n1(n1 - 1)/2 * n2(n2 - 1)/2, that the direct
# kernel sum may read, one kernel call each. Measured on a 2-core Xeon
# (Python 3.11) at about 1 us a pair in float mode and 10 us in exact
# mode, so the cap is about 2 s or 20 s a pass; it admits square windows
# up to 53 points a side. It also bounds a shared kernel table (see
# BoundScenario.shared_kernel_values), which holds every pair's value: measured with tracemalloc on 30 x 30
# windows, about 39 bytes a pair in float mode and 63 to 122 in exact
# mode as the rationals grow, so about 80 MB or 125 to 245 MB at the cap.
MAX_DIRECT_KERNEL_PAIRS = 2_000_000


def _direct_kernel_pairs(n1: int, n2: int) -> int:
    """The target-source pairs the direct kernel sum reads on n1 x n2
    points, the count MAX_DIRECT_KERNEL_PAIRS caps."""
    return n1 * (n1 - 1) // 2 * (n2 * (n2 - 1) // 2)


@dataclass(frozen=True)
class BoundScenario:
    """Shared bound inputs: offset grid a, weight grid f, an optional
    kernel g(t1, t2, s1, s2), and the power pair p >= q > 0.

    ``kernel_terms`` is derived, never configured: the kernel's split
    g = sum_k phi_k(t1, t2) * psi_k(s1, s2) as (phi_k, psi_k) pairs, or
    None. It must agree with ``kernel``; config.load_scenario fills it in
    for separable kernel expressions, and the kernel bounds and oracle
    then take a prefix-sum path (see _kernel_bound_values)."""

    a: GridFunction2
    f: GridFunction2
    kernel: Optional[Kernel4] = None
    p: Scalar = 1
    q: Scalar = 1
    kernel_terms: Optional[tuple[tuple[Factor2, Factor2], ...]] = None
    # The direct path's kernel values read so far inside
    # shared_kernel_values(), keyed by target; None outside it, and after
    # dataclasses.replace. Factors live in _factor_table instead.
    _kernel_table: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a.ts1 != self.f.ts1 or self.a.ts2 != self.f.ts2:
            raise GridMismatch("a and f must live on the same pair of windows")
        object.__setattr__(self, "p", to_mode(self.p, self.mode))
        object.__setattr__(self, "q", to_mode(self.q, self.mode))
        if not self.q > 0:
            raise ValueError("q must be positive")
        if not self.p >= self.q:
            raise ValueError("p must be at least q")

    @property
    def ts1(self) -> TimeScale:
        return self.a.ts1

    @property
    def ts2(self) -> TimeScale:
        return self.a.ts2

    @property
    def mode(self) -> Mode:
        return self.a.mode

    @contextmanager
    def shared_kernel_values(self):
        """Within the block, the kernel sums on this scenario (a kernel
        bound, its equality case, cor31's thm4 cross-check) share one
        kernel table and evaluate each kernel value at most once. The
        direct path then holds every pair's value, up to
        MAX_DIRECT_KERNEL_PAIRS of them, until the block ends; so enter it
        only where a second kernel sum on the scenario follows."""
        object.__setattr__(self, "_kernel_table", {})
        try:
            yield self
        finally:
            object.__setattr__(self, "_kernel_table", None)

    @cached_property
    def _factor_table(self):
        """The separable kernel's factors, read on first use and kept for
        the scenario's life (see the module docstring): phi[i][j] holds the
        phi_k(t1_i, t2_j) at each target with i, j >= 1 (None in row and
        column 0), psi[i][j] the psi_k at each source (i < n1 - 1, j < n2 -
        1). A target whose factors raise, or are negative or not finite,
        holds None; kernel_generator takes the direct path when it reads
        one. That path raises the error again at its own place, and a
        negative or non-finite factor gives no sign for the kernel flag and
        loses digits to cancellation in float mode. None without
        kernel_terms, or when any source fails so: the separable path sums
        every source."""
        if self.kernel_terms is None:
            return None
        n1, n2 = self.a.shape
        pts1, pts2 = self.ts1.points, self.ts2.points

        def factors(side, i, j):
            try:
                values = tuple(term[side](pts1[i], pts2[j]) for term in self.kernel_terms)
            except (TsgronwallError, ArithmeticError):
                return None
            return values if all(0 <= v < math.inf for v in values) else None

        psi = [[factors(1, i, j) for j in range(n2 - 1)] for i in range(n1 - 1)]
        if any(None in row for row in psi):
            return None
        phi = [
            [None if i == 0 or j == 0 else factors(0, i, j) for j in range(n2)]
            for i in range(n1)
        ]
        return phi, psi

    def power_exponent(self) -> Scalar:
        """q/p - 1, the exponent the power bounds apply to a inside the
        generator."""
        return self.q / self.p - 1

    def root(self, x: Scalar) -> Scalar:
        """x**(1/p); exact mode stores p-th powers, so there it is x."""
        return x if self.mode is Mode.EXACT else scalar_pow(x, 1.0 / self.p, Mode.FLOAT)

    def q_power(self, u: Scalar) -> Scalar:
        """u**q for a value of the unknown as stored: exact mode stores
        u**p, which is u**q because exact power bounds need p = q."""
        return u if self.mode is Mode.EXACT else scalar_pow(u, self.q, Mode.FLOAT)


def kernel_value(sc: BoundScenario, t1, t2, s1, s2) -> Scalar:
    """Evaluate the scenario kernel, guarding its triangular domain
    start1 <= s1 <= t1, start2 <= s2 <= t2."""
    if sc.kernel is None:
        raise ValueError("scenario has no kernel")
    if not (sc.ts1.start <= s1 <= t1 and sc.ts2.start <= s2 <= t2):
        raise KernelDomain(
            f"kernel evaluated outside its domain: ({t1}, {t2}, {s1}, {s2})"
        )
    return require_mode(sc.kernel(t1, t2, s1, s2), sc.mode, "kernel value")


@dataclass
class BoundReport:
    """One bound on one scenario: the per-point majorant plus the scanned
    hypothesis flags. ``power`` is p for the power bounds, else 1; the
    ``mode``, ``approximate`` (sampled windows) and ``powered`` (exact
    power bounds, stored as p-th powers) are read off windows and power."""

    theorem: str
    ts1: TimeScale
    ts2: TimeScale
    values: tuple[tuple[Scalar, ...], ...]
    hypotheses: dict[str, bool]
    power: Scalar = 1
    sharpness: Optional[tuple[tuple[str, ...], ...]] = None

    @property
    def mode(self) -> Mode:
        return self.ts1.mode

    @property
    def approximate(self) -> bool:
        return self.ts1.approximate or self.ts2.approximate

    @property
    def powered(self) -> bool:
        return self.mode is Mode.EXACT and self.power != 1

    @property
    def certified(self) -> bool:
        """Every flag came back true and, in float mode, every value is
        finite: an overflowed bound certifies nothing."""
        return all(self.hypotheses.values()) and (
            self.mode is Mode.EXACT or all(math.isfinite(v) for row in self.values for v in row)
        )

    def value(self, t1, t2) -> Scalar:
        return self.values[self.ts1.index(t1)][self.ts2.index(t2)]


def _hypotheses(sc: BoundScenario, *, f_monotone=False, a_positive=False) -> dict:
    a_flags = sc.a.monotone_flags()
    f_flags = sc.f.monotone_flags()
    hyp = {
        "a_nonnegative": a_flags.nonnegative,
        "a_nondecreasing": a_flags.nondecreasing,
        "f_nonnegative": f_flags.nonnegative,
    }
    if f_monotone:
        hyp["f_nondecreasing"] = f_flags.nondecreasing
    if a_positive:
        hyp["a_positive"] = all(v > 0 for row in sc.a.values for v in row)
    return hyp


def _require_a_not_negative(sc: BoundScenario) -> None:
    # a < 0 is unrecoverable for the power bounds (roots leave the reals);
    # a == 0 only clears the positivity flag and is handled pointwise.
    if any(v < 0 for row in sc.a.values for v in row):
        raise NonPositiveA("offset grid has negative entries")


def _require_exact_power(sc: BoundScenario, computation: str) -> None:
    """The one exact-power rule, for the power bounds and the power
    equality cases: exact mode needs p = q. Raises ModeRequired naming
    the computation that needs float mode."""
    if sc.mode is Mode.EXACT and sc.p != sc.q:
        raise ModeRequired(f"exact {computation} needs p = q; use float mode")


_NEEDS_POSITIVE_A = "offset grid must be positive where the generator needs a negative power"


def _weighted_a_power(sc: BoundScenario, weight, a_value, expo) -> Scalar:
    """weight * a**expo, with a zero weight killing the term before the
    power is taken. The only admissible zero of a sits where the weight
    vanishes, so a negative power never meets a zero base on valid data."""
    if weight == 0:
        return zero(sc.mode)
    if expo == 0:
        return weight
    if a_value <= 0:
        raise NonPositiveA(_NEEDS_POSITIVE_A)
    return weight * scalar_pow(a_value, expo, sc.mode)


def _linear_core(ts: TimeScale, mu_other, weight, outer):
    """The loop behind thm1-in2, thm1-in6 and thm3. Index i runs along
    `ts`, the axis of the exponential, and j along the other axis; column
    j of the generator integrates weight(i, .) over the other axis up to
    its point j, reading weight one column at a time and never the last.
    Returns the columns of outer(i, j, exponential up to point i)."""
    n = len(ts.points)
    inner = [zero(ts.mode)] * n
    columns = []
    for j in range(len(mu_other) + 1):
        if j > 0:
            w = mu_other[j - 1]
            inner = [inner[i] + w * weight(i, j - 1) for i in range(n)]
        prefix = ts.exp_prefix(inner[: n - 1])
        columns.append(tuple(outer(i, j, e) for i, e in enumerate(prefix)))
    return columns


def thm1_bound_in2(sc: BoundScenario) -> BoundReport:
    """Linear bound accumulated along the first axis: a(t1, t2) times the
    product over s1 < t1 of 1 + mu1(s1) * (delta integral of f(s1, .) up
    to t2)."""
    hyp = _hypotheses(sc)
    a, f = sc.a.values, sc.f.values
    columns = _linear_core(
        sc.ts1, sc.ts2.graininesses(),
        lambda i, j: f[i][j],
        lambda i, j, e: a[i][j] * e,
    )
    return BoundReport("thm1-in2", sc.ts1, sc.ts2, tuple(zip(*columns)), hyp)


def thm1_bound_in6(sc: BoundScenario) -> BoundReport:
    """Mirror linear bound accumulated along the second axis, with the
    inner delta integral of f(., s2) taken up to t1: thm1-in2 with the
    axes swapped, so the core's columns are this bound's rows."""
    hyp = _hypotheses(sc)
    a, f = sc.a.values, sc.f.values
    rows = _linear_core(
        sc.ts2, sc.ts1.graininesses(),
        lambda j, i: f[i][j],
        lambda j, i, e: a[i][j] * e,
    )
    return BoundReport("thm1-in6", sc.ts1, sc.ts2, tuple(rows), hyp)


def best_linear_bound(sc: BoundScenario) -> BoundReport:
    """Pointwise minimum of the two linear bounds. The sharpness table
    records which side won at each point: "in2", "in6" or "tie"."""
    return _best_linear_of(sc, thm1_bound_in2(sc), thm1_bound_in6(sc))


def _best_linear_of(sc: BoundScenario, r2: BoundReport, r6: BoundReport) -> BoundReport:
    """best_linear_bound from the thm1-in2 and thm1-in6 reports of `sc`,
    for callers that already hold them."""
    n1, n2 = sc.a.shape
    values = []
    sharpness = []
    for i in range(n1):
        vrow, srow = [], []
        for j in range(n2):
            b2, b6 = r2.values[i][j], r6.values[i][j]
            if b2 < b6:
                vrow.append(b2)
                srow.append("in2")
            elif b6 < b2:
                vrow.append(b6)
                srow.append("in6")
            else:
                vrow.append(b2)
                srow.append("tie")
        values.append(tuple(vrow))
        sharpness.append(tuple(srow))
    return BoundReport(
        "best-linear", sc.ts1, sc.ts2, tuple(values), r2.hypotheses,
        sharpness=tuple(sharpness),
    )


def kernel_generator(sc: BoundScenario, coefficients, skip_zero_f: bool, hyp: dict):
    """The kernel sum behind the kernel bounds and their equality case.

    generator(i*, j*, f*) returns, for each source row i < i*, f* times
    the sum over jj < j* of coefficients[i][jj] * g(t*; s), with the
    kernel frozen at the target t* and s = (t1_i, t2_jj). `coefficients`
    holds one list per source row and may still grow, because a target
    reads only the rows below it. A None coefficient marks a source whose
    weight does not exist (a zero offset under a negative power); reading
    it where the kernel is nonzero raises NonPositiveA. With `skip_zero_f`
    (thm4, cor31) a target where f* = 0 gets the zero generator: no kernel
    value is read there and its factors need not qualify, so nothing there
    can clear the kernel flag or refuse the separable path. thm2 and the
    equality case read every target.

    This is the one place that picks a path. When no coefficient is None
    and sc._factor_table holds factors at every target read, entry i is
    sum_k f* phi_k(t*) R_k[i][j*], where R_k holds per-row prefix
    sums of coefficient * psi_k, built as the rows arrive: O(n1 * n2 * r)
    factor calls and O(n1^2 * n2 * r) arithmetic over the grid. Every
    factor is nonnegative, so the kernel flag stays true. Otherwise each
    target pays for its own double sum, O(n1^2 * n2^2) kernel calls over
    the grid, and the first negative value read clears
    hyp["kernel_nonnegative"]. Both give the same values (exactly, in
    exact mode), flags and errors, and both add left to right, so float
    sums do not depend on the Python version. The direct path calls the
    kernel itself, with kernel_value's mode check but not its domain
    guard, and raises KernelWorkTooLarge before its first call when the
    grid has more than MAX_DIRECT_KERNEL_PAIRS target-source pairs.

    Inside sc.shared_kernel_values() the direct path shares the
    scenario's kernel table with every other kernel sum on the same
    scenario. It stores a target's values, and whether any is negative,
    only after the whole target is read, so an error leaves no entry and
    a retry raises it again at the same pair. A target already stored is
    summed from the table: its negative bit clears the kernel flag, and a
    None coefficient raises where the stored value is nonzero, as a fresh
    read would. Outside the block the direct path keeps no values.
    """
    zero_value = zero(sc.mode)
    n1, n2 = sc.a.shape
    f = sc.f.values
    factors = None
    if all(c is not None for row in coefficients for c in row):
        factors = sc._factor_table
    if factors is not None and all(
        factors[0][i][j] is not None
        for i in range(1, n1) for j in range(1, n2)
        if not (skip_zero_f and f[i][j] == 0)
    ):
        phi_at, psi_at = factors
        prefix = []

        def separable(i_star, j_star, f_star):
            while len(prefix) < i_star:
                i = len(prefix)
                acc = [zero_value] * len(sc.kernel_terms)
                row = [tuple(acc)]
                for c, psi_values in zip(coefficients[i], psi_at[i]):
                    for k, v in enumerate(psi_values):
                        acc[k] += c * v
                    row.append(tuple(acc))
                prefix.append(row)
            phis = phi_at[i_star][j_star]
            if phis is None:  # row 0, column 0 or a skipped f* = 0 target
                return [f_star * zero_value] * i_star
            scaled = [f_star * phi for phi in phis]
            gen = []
            for i in range(i_star):
                s = zero_value
                for c, r in zip(scaled, prefix[i][j_star]):
                    s += c * r
                gen.append(s)
            return gen

        return separable

    pairs = _direct_kernel_pairs(n1, n2)
    if pairs > MAX_DIRECT_KERNEL_PAIRS:
        raise KernelWorkTooLarge(
            f"the direct kernel sum on {n1} x {n2} points reads {pairs} target-source "
            f"pairs; MAX_DIRECT_KERNEL_PAIRS allows {MAX_DIRECT_KERNEL_PAIRS}"
        )
    pts1, pts2 = sc.ts1.points, sc.ts2.points
    kernel, mode, kind = sc.kernel, sc.mode, type(zero_value)
    table = sc._kernel_table
    keep = table is not None

    def direct(i_star, j_star, f_star):
        if skip_zero_f and f_star == 0:
            return [zero_value] * i_star
        gen = []
        stored = table.get((i_star, j_star)) if keep else None
        if stored is not None:
            g_rows, negative = stored
            if negative:
                hyp["kernel_nonnegative"] = False
            for g_row, row in zip(g_rows, coefficients):
                s = zero_value
                for c, g_val in zip(row, g_row):
                    if c is not None:
                        s += c * g_val
                    elif g_val != 0:
                        raise NonPositiveA(_NEEDS_POSITIVE_A)
                gen.append(f_star * s)
            return gen
        # Sources lie below the target, so the domain guard cannot fire.
        t1s, t2s = pts1[i_star], pts2[j_star]
        sources2 = pts2[:j_star]
        g_rows = []
        negative = False
        for s1, row in zip(pts1[:i_star], coefficients):
            s = zero_value
            g_row = []
            for c, s2 in zip(row, sources2):
                g_val = kernel(t1s, t2s, s1, s2)
                if type(g_val) is not kind:
                    g_val = require_mode(g_val, mode, "kernel value")
                if g_val < 0:
                    negative = True
                if keep:
                    g_row.append(g_val)
                if c is not None:
                    s += c * g_val
                elif g_val != 0:
                    raise NonPositiveA(_NEEDS_POSITIVE_A)
            g_rows.append(g_row)
            gen.append(f_star * s)
        if negative:
            hyp["kernel_nonnegative"] = False
        if keep:
            table[i_star, j_star] = (g_rows, negative)
        return gen

    return direct


def _kernel_bound_values(sc: BoundScenario, hyp, weights, expo, product, outer, skip_zero_f):
    """The loop behind thm2, thm4 and cor31, returning the bound rows.

    At each target (t1*, t2*) the kernel's leading arguments are frozen.
    The generator along the first axis holds, for every row i below the
    target, f(t*) times the weighted sum over the sources jj < j* of
    g(t*; s) * a(s)**expo (expo falsy: no offset weight), read from
    kernel_generator with the coefficients weights[jj] * a(s)**expo,
    formed once per source. `product(i*, gen)` is the exponential and
    `outer(a(t*), e)` the bound. `skip_zero_f` goes to kernel_generator,
    which may clear the kernel_nonnegative flag this sets in `hyp`.
    """
    n1, n2 = sc.a.shape
    a, f = sc.a.values, sc.f.values
    hyp["kernel_nonnegative"] = True
    if expo:
        coefficients = [
            [
                None if a[i][jj] <= 0 else w * scalar_pow(a[i][jj], expo, sc.mode)
                for jj, w in enumerate(weights)
            ]
            for i in range(n1 - 1)
        ]
    else:
        coefficients = [weights] * (n1 - 1)
    generator = kernel_generator(sc, coefficients, skip_zero_f, hyp)
    out = [[None] * n2 for _ in range(n1)]
    for i_star in range(n1):
        for j_star in range(n2):
            gen = generator(i_star, j_star, f[i_star][j_star])
            out[i_star][j_star] = outer(a[i_star][j_star], product(i_star, gen))
    return tuple(tuple(r) for r in out)


def thm2_bound(sc: BoundScenario) -> BoundReport:
    """Kernel bound: a(t*) times the exponential along the first axis of
    f(t*) times the double kernel integral up to the target, with the
    kernel frozen at each target (see _kernel_bound_values). Every
    target's kernel values are read, even where f(t*) = 0."""
    if sc.kernel is None:
        raise ValueError("thm2 needs a kernel")
    hyp = _hypotheses(sc, f_monotone=True)
    values = _kernel_bound_values(
        sc, hyp, sc.ts2.graininesses(), 0,
        lambda i_star, gen: sc.ts1.exp_prefix(gen)[-1],
        lambda a_value, e: a_value * e,
        skip_zero_f=False,
    )
    return BoundReport("thm2", sc.ts1, sc.ts2, values, hyp)


def thm3_bound(sc: BoundScenario) -> BoundReport:
    """Power bound: offset and exponential both raised to 1/p, with the
    generator weighting f by a**(q/p - 1); the thm1-in2 loop otherwise."""
    _require_exact_power(sc, "thm3 generator weight a**(q/p - 1)")
    expo = sc.power_exponent()
    _require_a_not_negative(sc)
    hyp = _hypotheses(sc, a_positive=True)
    a, f = sc.a.values, sc.f.values
    columns = _linear_core(
        sc.ts1, sc.ts2.graininesses(),
        lambda i, j: _weighted_a_power(sc, f[i][j], a[i][j], expo),
        lambda i, j, e: sc.root(a[i][j]) * sc.root(e),
    )
    return BoundReport("thm3", sc.ts1, sc.ts2, tuple(zip(*columns)), hyp, power=sc.p)


def _power_kernel_bound(sc: BoundScenario, theorem, weights, product) -> BoundReport:
    """thm4 and cor31: the kernel integral weighted by a**(q/p - 1),
    everything raised to 1/p, targets with f(t*) = 0 skipped."""
    if sc.kernel is None:
        raise ValueError(f"{theorem} needs a kernel")
    _require_exact_power(sc, f"{theorem} generator weight a**(q/p - 1)")
    expo = sc.power_exponent()
    _require_a_not_negative(sc)
    hyp = _hypotheses(sc, f_monotone=True, a_positive=True)
    values = _kernel_bound_values(
        sc, hyp, weights, expo, product,
        lambda a_value, e: sc.root(a_value) * sc.root(e),
        skip_zero_f=True,
    )
    return BoundReport(theorem, sc.ts1, sc.ts2, values, hyp, power=sc.p)


def thm4_bound(sc: BoundScenario) -> BoundReport:
    """Kernel and power combined: the per-target kernel integral weighted
    by a**(q/p - 1) along the way, everything raised to 1/p."""
    return _power_kernel_bound(
        sc, "thm4", sc.ts2.graininesses(),
        lambda i_star, gen: sc.ts1.exp_prefix(gen)[-1],
    )


def cor31_bound(sc: BoundScenario) -> BoundReport:
    """Sequence-scale route to thm4: the same bound, but graininesses are
    read off the increment sequences and the exponential is the literal
    increment product. Must agree with thm4_bound exactly in exact mode."""
    if sc.ts1.kind != SEQUENCE or sc.ts2.kind != SEQUENCE:
        raise WrongScaleKind("cor31 needs sequence scales on both axes")
    alphas = sc.ts1.increments
    return _power_kernel_bound(
        sc, "cor31", sc.ts2.increments,
        lambda i_star, gen: exp_prefix_from_increments(alphas[:i_star], gen, sc.mode)[-1],
    )


_BOUND_FUNCTIONS = {
    "thm1-in2": thm1_bound_in2,
    "thm1-in6": thm1_bound_in6,
    "best-linear": best_linear_bound,
    "thm2": thm2_bound,
    "thm3": thm3_bound,
    "thm4": thm4_bound,
    "cor31": cor31_bound,
}


def compute_bound(theorem: str, sc: BoundScenario) -> BoundReport:
    """Dispatch on a selector string from THEOREMS."""
    try:
        fn = _BOUND_FUNCTIONS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem selector {theorem!r}") from None
    return fn(sc)
