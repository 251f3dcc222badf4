"""Exception types shared across the package."""


class NchoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NchoError, ValueError):
    """An input violates a mathematical domain requirement (e.g. Re(alpha) <= 0)."""


class NumericRangeError(NchoError, ArithmeticError):
    """An intermediate quantity overflowed or became non-finite."""


class SpectrumInconsistencyError(NchoError):
    """The characteristic discriminant came out negative beyond tolerance.

    For valid oscillator parameters this cannot happen; seeing it indicates
    a bug or pathological input rather than a physical configuration.
    """


class SingularConfigurationError(NchoError):
    """The eigenbasis of the numeric ground-state route became numerically singular."""


class GridConfigurationError(NchoError, ValueError):
    """A numerical grid is too small or too coarse for the requested check."""
