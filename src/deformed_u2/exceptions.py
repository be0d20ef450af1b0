"""Exception types shared across the package."""

__all__ = ["DeformedU2Error", "NonCoprimeError", "ShapeMismatchError", "NotDivisibleError",
           "WrongRatioError"]


class DeformedU2Error(Exception):
    """Base class for all library-specific errors."""


class NonCoprimeError(DeformedU2Error):
    """Frequency ratio m:n with gcd(m, n) > 1; levels would be reducible."""


class ShapeMismatchError(DeformedU2Error):
    """The generator bands of an irrep (S0, S+, H) are not N+1, N and N+1 entries long."""


class NotDivisibleError(DeformedU2Error):
    """Structure function does not admit the requested factorization."""


class WrongRatioError(DeformedU2Error):
    """Operation is defined only for a specific frequency ratio."""
