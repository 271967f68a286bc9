"""Shared builders for the test suite."""

from fractions import Fraction

from tsgronwall.grid2 import GridFunction2
from tsgronwall.numeric import Mode
from tsgronwall.oracle import _running_sum_rows
from tsgronwall.timescale import TimeScale


def integer_windows(n1, n2, mode=Mode.EXACT):
    """Integer windows [0 .. n1-1] x [0 .. n2-1]."""
    return (
        TimeScale.integers(0, n1 - 1, mode=mode),
        TimeScale.integers(0, n2 - 1, mode=mode),
    )


def rand_fraction(rng, lowest_num=0, highest_num=9):
    return Fraction(rng.randint(lowest_num, highest_num), rng.randint(1, 9))


def rand_grid(rng, ts1, ts2, lowest_num=0):
    rows = [
        [rand_fraction(rng, lowest_num) for _ in ts2.points] for _ in ts1.points
    ]
    return GridFunction2.from_rows(ts1, ts2, rows)


def nondecreasing_grid(rng, ts1, ts2, positive=False):
    """Running sums of nonnegative increments, nondecreasing in each axis."""
    n1, n2 = len(ts1.points), len(ts2.points)
    rows = [[rand_fraction(rng) for _ in range(n2)] for _ in range(n1)]
    if positive:
        rows[0][0] = rand_fraction(rng, 1)
    return GridFunction2.from_rows(ts1, ts2, _running_sum_rows(rows))


def random_discrete_windows(rng, max_window=8):
    """A pair of random discrete windows mixing the three exact kinds."""
    scales = []
    for _ in range(2):
        n = rng.randint(2, max_window)
        kind = rng.choice(("integers", "qscale", "sequence"))
        if kind == "integers":
            scales.append(TimeScale.integers(0, n - 1))
        elif kind == "qscale":
            scales.append(TimeScale.qscale(Fraction(rng.randint(2, 4)), 1, n - 1))
        else:
            incs = [rand_fraction(rng, 1) for _ in range(n - 1)]
            scales.append(TimeScale.sequence(0, incs))
    return tuple(scales)


# Round-trip corpus for the expression language: parse -> print -> parse
# must reproduce an identical tree for every entry.
EXPR_CORPUS = [
    "0",
    "1",
    "42",
    "1/4",
    "3/5",
    "0.25",
    "0.5",
    "2.75",
    "t1",
    "t2",
    "u",
    "-t1",
    "--t1",
    "t1+t2",
    "t1-t2",
    "t1*t2",
    "t1/t2",
    "t1^2",
    "t1^t2",
    "2^3^2",
    "(2^3)^2",
    "t1+t2+u",
    "t1-t2-u",
    "t1-(t2-u)",
    "t1*(t2+u)",
    "(t1+t2)*u",
    "t1+t2*u",
    "t1*t2+u",
    "-t1*t2",
    "t1*-t2",
    "-(t1+t2)",
    "t1^-2",
    "2*t1^2+3*t2",
    "t1/2+t2/3",
    "1/(t1+1)",
    "(q-1)*s",
    "t2*u",
    "t1^2+t2^2",
    "sqrt(t1)",
    "sqrt(t1+t2)",
    "sqrt(4)",
    "min(t1,t2)",
    "max(t1,t2)",
    "min(t1,t2,u)",
    "max(t1+1,t2*2)",
    "min(sqrt(t1),t2)",
    "1/2*t1",
    "0.125*t2+1/8",
    "t1*t2*u",
    "((t1))",
    "sqrt(min(t1,t2))+max(u,1)-0.5",
    # literal-only subtrees: the first two fold to constants, the rest
    # raise and so stay in place, raising where the walk meets them
    "3/8*t1",
    "(1+1/2)*t2",
    "t1*(1/(2-2))",
    "0^(0-1)+t1",
    "2^(1/2)*t1",
]

EXPR_CORPUS_VARIABLES = ("t1", "t2", "u", "q", "s")

assert len(EXPR_CORPUS) >= 50
