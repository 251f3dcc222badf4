"""Exception types shared across the package."""


class NchoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NchoError, ValueError):
    """An input violates a mathematical domain requirement (e.g. Re(alpha) <= 0)."""


class NumericRangeError(NchoError, ArithmeticError):
    """An intermediate quantity overflowed or became non-finite."""


class GridConfigurationError(NchoError, ValueError):
    """A numerical grid is too small or too coarse for the requested check."""
