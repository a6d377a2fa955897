"""Exception types shared across the package."""


class TrigsumError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TrigsumError):
    """An input lies outside the domain of the requested evaluation.

    A series needs a finite exponent and angle and finite float64 terms and
    sums, the phase path an integer exponent in 0..64.  Closed forms return nan only outside their domain.
    """


class DivergentSeriesError(TrigsumError):
    """The series has no value under the requested summation method."""
