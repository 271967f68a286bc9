"""Exception and warning types shared across the package."""


class TsgronwallError(Exception):
    """Base class for every error this package raises on purpose."""


class PointNotInScale(TsgronwallError):
    """A point argument is not one of the window's points."""


class MaximumPoint(TsgronwallError):
    """Graininess or a forward difference was requested at the window maximum."""


class ModeMismatch(TsgronwallError):
    """Exact and float values met inside a single computation."""


class ModeRequired(TsgronwallError):
    """The requested value only exists in the other numeric mode."""


class NotRegressive(TsgronwallError):
    """A factor 1 + graininess*p vanished; the scale exponential is undefined."""


class WrongScaleKind(TsgronwallError):
    """An operation restricted to one scale kind received another."""


class NotDiscrete(TsgronwallError):
    """An exact recursion was asked to run on a sampled window."""


class GridMismatch(TsgronwallError):
    """Two grid objects do not share the same pair of scale windows."""


class KernelDomain(TsgronwallError):
    """A four-argument kernel was evaluated outside its triangular domain."""


class KernelWorkTooLarge(TsgronwallError):
    """A kernel sum would read more target-source pairs than the cap allows."""


class NonPositiveA(TsgronwallError):
    """The offset grid must stay positive where a negative power of it is needed."""


class NegativeRadicand(TsgronwallError):
    """A squared solution value went negative; the problem data broke its invariants."""


class HypothesisViolated(TsgronwallError):
    """Recorded problem data broke a hypothesis the estimate relies on."""


class ConfigError(TsgronwallError):
    """A scenario configuration document is malformed or inconsistent."""


class ExprError(TsgronwallError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Source text does not parse; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownVariable(ExprError):
    """An identifier is not among the declared variables."""

    def __init__(self, name: str, position: int = -1):
        super().__init__(f"unknown variable {name!r}")
        self.name = name
        self.position = position


class DivisionByZero(ExprError, ZeroDivisionError):
    """Division, or a negative power of zero, hit a zero denominator."""


class NegativeSqrt(ExprError):
    """A real root of a negative value was requested."""


class FloatOverflow(ExprError):
    """A float power left the float64 range."""


class PowerTooLarge(ExprError):
    """An exact power would exceed numeric.MAX_POWER_BITS."""


class NegativeFactorWarning(UserWarning):
    """A scale-exponential factor went negative: the generator left the
    positively regressive class, so bound certificates do not apply."""
