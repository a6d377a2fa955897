"""Exception types shared across the package."""


class TrigsumError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TrigsumError):
    """An input lies outside the domain of the requested evaluation.

    A series needs a finite exponent and angle, the phase path an integer
    exponent in 0..64.  Closed forms never raise it: they return nan.
    """


class DivergentSeriesError(TrigsumError):
    """The series has no value under the requested summation method."""


class ConjugacyError(TrigsumError):
    """Conjugate-pair evaluation failed to cancel its imaginary part.

    This indicates a bug in the evaluation path, not bad input: for real
    coefficients the two phase evaluations are exact conjugates.
    """
