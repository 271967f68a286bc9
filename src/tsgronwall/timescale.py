"""Finite windows of concrete time scales and their one-variable calculus.

A scale is kept as the finite, strictly increasing window of points its
generating rule produces: arithmetic steps, geometric q-steps, an
explicit sequence of positive increments, or a uniform float sample
standing in for a real interval. Sampled windows only approximate the
continuum and are flagged as such; the other kinds are exact.

Everything follows the half-open convention: integrals and exponentials
run over [a, b), so the graininess at the window maximum is never
needed. The forward jump at the maximum returns the point itself; the
maximum is simply never right of anything inside the window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import (
    MaximumPoint,
    NegativeFactorWarning,
    NotRegressive,
    PointNotInScale,
)
from .numeric import Mode, Scalar, one, require_mode, to_mode, zero

INTEGERS = "integers"
QSCALE = "qscale"
SEQUENCE = "sequence"
SAMPLE = "sample"

# Most points one window axis may hold. Every constructor checks it
# before it builds a point, so a config asking for more fails at once.
MAX_WINDOW_POINTS = 10_000


def _window_size(count):
    if not count <= MAX_WINDOW_POINTS:
        raise ValueError(
            f"a window asks for {count} points; MAX_WINDOW_POINTS allows "
            f"{MAX_WINDOW_POINTS} per axis"
        )
    return count


@dataclass(frozen=True)
class TimeScale:
    """A finite window of a time scale.

    Build instances through the classmethods below; the raw constructor
    only checks the window shape (at least two strictly increasing
    points, all in the declared numeric mode).
    """

    kind: str
    points: tuple[Scalar, ...]
    mode: Mode = Mode.EXACT
    increments: Optional[tuple[Scalar, ...]] = None

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a scale window needs at least two points")
        steps = tuple(right - left for left, right in zip(self.points, self.points[1:]))
        if not all(mu > 0 for mu in steps):
            raise ValueError("window points must be strictly increasing")
        for point in self.points:
            require_mode(point, self.mode, "window point")
        object.__setattr__(self, "_index_of", {p: i for i, p in enumerate(self.points)})
        object.__setattr__(self, "_graininesses", steps)

    @classmethod
    def integers(cls, start, stop, step=1, mode: Mode = Mode.EXACT) -> "TimeScale":
        """Arithmetic window start, start+step, ... not exceeding stop."""
        step_v = to_mode(step, mode)
        start_v = to_mode(start, mode)
        stop_v = to_mode(stop, mode)
        if step_v <= 0:
            raise ValueError("step must be positive")
        span = (stop_v - start_v) / step_v
        count = max(math.floor(_window_size(span + 1)), 0)
        # Float rounding: keep exactly the k with start + k*step <= stop.
        while count <= MAX_WINDOW_POINTS and start_v + count * step_v <= stop_v:
            count += 1
        while count and start_v + (count - 1) * step_v > stop_v:
            count -= 1
        points = tuple(start_v + k * step_v for k in range(_window_size(count)))
        return cls(INTEGERS, points, mode)

    @classmethod
    def qscale(cls, q, t0, k_max: int, mode: Mode = Mode.EXACT) -> "TimeScale":
        """Geometric window t0 * q**k for k = 0..k_max; needs q > 1, t0 > 0."""
        q_v = to_mode(q, mode)
        t0_v = to_mode(t0, mode)
        if not q_v > 1:
            raise ValueError("q must exceed 1")
        if not t0_v > 0:
            raise ValueError("t0 must be positive")
        if k_max < 1:
            raise ValueError("k_max must be at least 1 (two points)")
        points = tuple(t0_v * q_v**k for k in range(_window_size(k_max + 1)))
        return cls(QSCALE, points, mode)

    @classmethod
    def sequence(cls, t0, increments, mode: Mode = Mode.EXACT) -> "TimeScale":
        """Window t0, t0+a1, t0+a1+a2, ... from positive increments a_k."""
        t0_v = to_mode(t0, mode)
        incs = tuple(to_mode(a, mode) for a in increments)
        if not incs:
            raise ValueError("need at least one increment")
        if any(a <= 0 for a in incs):
            raise ValueError("increments must all be positive")
        _window_size(len(incs) + 1)
        points = [t0_v]
        for a in incs:
            points.append(points[-1] + a)
        return cls(SEQUENCE, tuple(points), mode, increments=incs)

    @classmethod
    def sample(cls, left, step, count: int) -> "TimeScale":
        """Uniform float64 sample left + k*step for k = 0..count-1.

        A sample only approximates a real interval; whatever is computed
        on it carries an approximate flag downstream.
        """
        left_v = float(left)
        step_v = float(step)
        if step_v <= 0:
            raise ValueError("step must be positive")
        if count < 2:
            raise ValueError("need at least two points")
        points = tuple(left_v + k * step_v for k in range(_window_size(count)))
        return cls(SAMPLE, points, Mode.FLOAT)

    @property
    def approximate(self) -> bool:
        return self.kind == SAMPLE

    @property
    def is_discrete(self) -> bool:
        return self.kind != SAMPLE

    @property
    def start(self) -> Scalar:
        return self.points[0]

    @property
    def end(self) -> Scalar:
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)

    def index(self, t: Scalar) -> int:
        try:
            return self._index_of[t]
        except (KeyError, TypeError):
            raise PointNotInScale(
                f"{t!r} is not a window point of this {self.kind} scale"
            ) from None

    def sigma(self, t: Scalar) -> Scalar:
        """Forward jump: the smallest window point past t, or t itself at
        the window maximum."""
        i = self.index(t)
        if i + 1 == len(self.points):
            return t
        return self.points[i + 1]

    def graininess(self, t: Scalar) -> Scalar:
        """sigma(t) - t; undefined at the window maximum."""
        i = self.index(t)
        if i + 1 == len(self.points):
            raise MaximumPoint("graininess is undefined at the window maximum")
        return self._graininesses[i]

    def graininesses(self) -> tuple[Scalar, ...]:
        """Graininess at every window point except the maximum."""
        return self._graininesses

    def delta_integral(self, f: Callable[[Scalar], Scalar], lower, upper) -> Scalar:
        """Delta integral of f over [lower, upper): the graininess-weighted
        left sum. On a sampled window this is the left Riemann sum."""
        i = self.index(lower)
        j = self.index(upper)
        if i > j:
            raise ValueError("lower endpoint exceeds upper endpoint")
        total = zero(self.mode)
        for k in range(i, j):
            v = require_mode(f(self.points[k]), self.mode, "integrand value")
            total += self._graininesses[k] * v
        return total

    def exp_fn(self, p: Callable[[Scalar], Scalar], t, s) -> Scalar:
        """Scale exponential e_p(t, s): the product over [s, t) of the
        regressivity factors 1 + graininess * p. Empty range gives 1."""
        i = self.index(s)
        j = self.index(t)
        if i > j:
            raise ValueError("s must not exceed t")
        points = self.points[i:j]
        return _exp_products(self._graininesses[i:j], map(p, points), self.mode, points)[-1]

    def exp_prefix(self, generator_values: Sequence[Scalar]) -> list[Scalar]:
        """Cumulative exponentials from the window start.

        Entry k is the exponential over the first k steps, so entry 0 is 1
        and the last entry consumes every supplied generator value.
        """
        if len(generator_values) > len(self.points) - 1:
            raise ValueError("more generator values than window steps")
        return _exp_products(self._graininesses, generator_values, self.mode, self.points)


def exp_prefix_from_increments(increments, generator_values, mode: Mode) -> list[Scalar]:
    """Cumulative exponentials straight off an increment sequence.

    Entry k is the product over n < k of 1 + increments[n] *
    generator_values[n]. It shares TimeScale.exp_prefix's factor loop but
    reads the increments as given, not the differences of window points,
    so cor31's cross-check still sets this literal product against thm4's.
    """
    if len(generator_values) > len(increments):
        raise ValueError("more generator values than increments")
    return _exp_products(increments, generator_values, mode)


def _exp_products(steps, values, mode: Mode, points=None) -> list[Scalar]:
    """[1, f_0, f_0 f_1, ...] for the regressivity factors f_k = 1 +
    steps[k] * values[k]. `values` is read lazily, one per factor. A
    vanishing factor raises NotRegressive and a negative one warns,
    naming points[k] when given, else the step k."""
    acc = one(mode)
    out = [acc]
    for k, (mu, v) in enumerate(zip(steps, values)):
        require_mode(v, mode, "generator value")
        factor = 1 + mu * v
        if factor <= 0:
            where = f"t = {points[k]}" if points else f"step {k}"
            if factor == 0:
                raise NotRegressive(f"1 + mu*p vanishes at {where}")
            warnings.warn(NegativeFactorWarning(
                f"1 + mu*p is negative at {where}; the generator is not positively regressive"
            ), stacklevel=3)
        acc = acc * factor
        out.append(acc)
    return out
