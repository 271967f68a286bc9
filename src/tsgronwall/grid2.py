"""Grid functions of two variables on a product of scale windows, and
sweep2, the one 2-D prefix sweep behind the prefix integrals, the
equality cases and the boundary-problem solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import MaximumPoint, ModeMismatch
from .numeric import Mode, Scalar, require_mode, zero
from .timescale import TimeScale


def sweep2(mu1, mu2, zero_value, term, cell):
    """Rows of u on a (len(mu1) + 1) x (len(mu2) + 1) grid, from one
    lexicographic sweep of the double sum s (zero_value on the first row
    and column, two rows kept):

        s[i][j] = s[i-1][j] + s[i][j-1] - s[i-1][j-1]
                  + term(i-1, j-1, mu1[i-1] * mu2[j-1], u[i-1][j-1])
        u[i][j] = cell(i, j, s[i][j])

    term sees each source once, in sweep order, with its cell value."""
    n1, n2 = len(mu1) + 1, len(mu2) + 1
    u = []
    prev = [zero_value] * n2
    for i in range(n1):
        cur = [zero_value] * n2
        row = []
        for j in range(n2):
            if i and j:
                cur[j] = (
                    prev[j] + cur[j - 1] - prev[j - 1]
                    + term(i - 1, j - 1, mu1[i - 1] * mu2[j - 1], u[i - 1][j - 1])
                )
            row.append(cell(i, j, cur[j]))
        u.append(row)
        prev = cur
    return u


@dataclass(frozen=True)
class MonotoneFlags:
    nonnegative: bool
    nondecreasing: bool


@dataclass(frozen=True)
class GridFunction2:
    """Values of a two-variable function on ts1.points x ts2.points.

    values[i][j] is the value at (ts1.points[i], ts2.points[j]). The two
    windows must share a numeric mode and every value must be in it.
    """

    ts1: TimeScale
    ts2: TimeScale
    values: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.ts1.mode is not self.ts2.mode:
            raise ModeMismatch("the two scale windows use different numeric modes")
        if len(self.values) != len(self.ts1.points):
            raise ValueError("row count must equal the first window size")
        for row in self.values:
            if len(row) != len(self.ts2.points):
                raise ValueError("column count must equal the second window size")
            for v in row:
                require_mode(v, self.ts1.mode, "grid value")

    @classmethod
    def from_callable(cls, ts1, ts2, fn: Callable[[Scalar, Scalar], Scalar]) -> "GridFunction2":
        vals = tuple(tuple(fn(t1, t2) for t2 in ts2.points) for t1 in ts1.points)
        return cls(ts1, ts2, vals)

    @classmethod
    def from_rows(cls, ts1, ts2, rows) -> "GridFunction2":
        return cls(ts1, ts2, tuple(tuple(row) for row in rows))

    @classmethod
    def constant(cls, ts1, ts2, value: Scalar) -> "GridFunction2":
        return cls.from_callable(ts1, ts2, lambda _t1, _t2: value)

    @property
    def mode(self) -> Mode:
        return self.ts1.mode

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.ts1.points), len(self.ts2.points))

    def value(self, t1, t2) -> Scalar:
        return self.values[self.ts1.index(t1)][self.ts2.index(t2)]

    def monotone_flags(self) -> MonotoneFlags:
        """Scan for nonnegativity and per-axis monotonicity. Nothing is
        ever assumed: callers that need these hypotheses check them here."""
        nonnegative = all(v >= 0 for row in self.values for v in row)
        nondecreasing = True
        n1, n2 = self.shape
        for i in range(n1):
            for j in range(n2):
                if i + 1 < n1 and self.values[i + 1][j] < self.values[i][j]:
                    nondecreasing = False
                if j + 1 < n2 and self.values[i][j + 1] < self.values[i][j]:
                    nondecreasing = False
        return MonotoneFlags(nonnegative=nonnegative, nondecreasing=nondecreasing)

    def double_integral(self, t1, t2) -> Scalar:
        """Double delta integral over [start1, t1) x [start2, t2)."""
        i = self.ts1.index(t1)
        j = self.ts2.index(t2)
        mu1 = self.ts1.graininesses()
        mu2 = self.ts2.graininesses()
        total = zero(self.mode)
        for a in range(i):
            row = self.values[a]
            for b in range(j):
                total += mu1[a] * mu2[b] * row[b]
        return total

    def prefix_double_integral(self) -> "GridFunction2":
        """Grid of double integrals up to every window point."""
        out = sweep2(
            self.ts1.graininesses(), self.ts2.graininesses(), zero(self.mode),
            lambda i, j, w, _u: w * self.values[i][j],
            lambda _i, _j, s: s,
        )
        return GridFunction2.from_rows(self.ts1, self.ts2, out)

    def partial_delta(self, axis: int, t1, t2) -> Scalar:
        """Forward difference quotient along one axis; the point on that
        axis must not be the window maximum."""
        i = self.ts1.index(t1)
        j = self.ts2.index(t2)
        n1, n2 = self.shape
        if axis == 1:
            if i + 1 == n1:
                raise MaximumPoint("axis-1 difference needs a point past t1")
            mu = self.ts1.points[i + 1] - self.ts1.points[i]
            return (self.values[i + 1][j] - self.values[i][j]) / mu
        if axis == 2:
            if j + 1 == n2:
                raise MaximumPoint("axis-2 difference needs a point past t2")
            mu = self.ts2.points[j + 1] - self.ts2.points[j]
            return (self.values[i][j + 1] - self.values[i][j]) / mu
        raise ValueError("axis must be 1 or 2")

    def mixed_partial(self, t1, t2) -> Scalar:
        """Second difference quotient, one step in each axis. The 2x2
        stencil makes the two differencing orders identical on a grid."""
        i = self.ts1.index(t1)
        j = self.ts2.index(t2)
        n1, n2 = self.shape
        if i + 1 == n1 or j + 1 == n2:
            raise MaximumPoint("mixed difference needs interior points on both axes")
        mu1 = self.ts1.points[i + 1] - self.ts1.points[i]
        mu2 = self.ts2.points[j + 1] - self.ts2.points[j]
        num = (
            self.values[i + 1][j + 1]
            - self.values[i][j + 1]
            - self.values[i + 1][j]
            + self.values[i][j]
        )
        return num / (mu1 * mu2)
