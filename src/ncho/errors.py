"""Exception types shared across the package."""


class NchoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NchoError, ValueError):
    """An input violates a domain requirement, e.g. Re(alpha) <= 0 or too coarse a grid."""


class NumericRangeError(NchoError, ArithmeticError):
    """An intermediate quantity overflowed or became non-finite."""
