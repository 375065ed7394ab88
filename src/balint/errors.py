"""Exception types, grouped by the exit code they map to at the CLI."""


class Error(Exception):
    """Base class for everything raised deliberately by this package."""

    exit_code = 1


class SpecError(Error, ValueError):
    """Invalid parameters, configuration, or usage. CLI exit code 1."""

    exit_code = 1


class ConfigError(SpecError):
    """Config file cannot be parsed or validated."""


class WrongLinkError(SpecError):
    """A solver was applied to a link it does not handle."""


class EngineMismatchError(SpecError):
    """Exact enumeration requested for a model it cannot enumerate."""


class InfeasibleError(Error, ArithmeticError):
    """No finite or in-range answer exists. CLI exit code 2."""

    exit_code = 2


class UndefinedMomentError(InfeasibleError):
    """The requested moment does not exist (Cauchy mean)."""


class MgfDomainError(InfeasibleError):
    """E[exp(tX)] is infinite: t is outside the MGF's domain (gamma, t >= rate; Cauchy, t != 0)."""


class LinkDomainError(InfeasibleError):
    """A mean or target lies outside the link function's domain."""


class NoRootError(InfeasibleError):
    """Bracket expansion or bisection failed to pin down the intercept."""


class OutOfRangeError(InfeasibleError):
    """An outcome's model-implied mean left its valid range: outside [0, 1] (Bernoulli), or not finite."""
