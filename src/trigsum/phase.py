"""Conjugate phase-pair evaluation of the series.

Writing p = cos(phi) + i sin(phi) and q for its conjugate (so pq = 1), a
power series Delta applied at p and q recovers the two trigonometric
series at once:

    cosine sum = (Delta(p) + Delta(q)) / 2
    sine sum   = (Delta(p) - Delta(q)) / (2i)

For the binomial row this collapses further to (1+p)**n, giving a second,
independent evaluation path for integer exponents.  Both paths run on
Python's built-in ``complex``; the conjugate combinations are checked for
a cancelled imaginary residue below.
"""

from __future__ import annotations

import math

from .exceptions import ConjugacyError

#: Relative bound on the imaginary residue of a conjugate combination.
RESIDUE_BOUND = 1e-12


def phase_point(phi: float) -> complex:
    """Unit-circle point p = cos(phi) + i sin(phi); its conjugate is q."""
    return complex(math.cos(phi), math.sin(phi))


def series_at_phase(coeffs, phi: float) -> tuple[float, float]:
    """Cosine and sine sums of a finite coefficient row via the phase pair.

    Evaluates the polynomial at p and q by Horner accumulation and takes
    the conjugate combinations.  The imaginary part of the cosine
    combination must cancel; if its residue exceeds RESIDUE_BOUND times
    the coefficient mass the evaluation itself is broken and a
    ConjugacyError is raised.
    """
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if not all(math.isfinite(c) for c in coeffs):
        raise ValueError("coefficients must be finite")
    p = phase_point(phi)
    q = p.conjugate()
    dp = dq = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        dp = dp * p + c
        dq = dq * q + c
    scale = sum(abs(c) for c in coeffs)
    cos_residue = abs(dp.imag + dq.imag) / 2.0
    sin_residue = abs(dp.real - dq.real) / 2.0
    if max(cos_residue, sin_residue) > RESIDUE_BOUND * scale:
        raise ConjugacyError(
            f"imaginary residue {max(cos_residue, sin_residue):.3e} exceeds "
            f"{RESIDUE_BOUND:.0e} * {scale:.3e}")
    cos_sum = (dp.real + dq.real) / 2.0
    sin_sum = (dp.imag - dq.imag) / 2.0
    return cos_sum, sin_sum


def binomial_phase_power(n: int, phi: float) -> tuple[float, float]:
    """(cosine sum, sine sum) of the full binomial row as (1 + p)**n.

    The real and imaginary parts of (1+p)**n are exactly the two series
    sums by conjugate symmetry.  Only integer n in 0..64 is accepted.
    """
    if not float(n).is_integer():
        raise ValueError("n must be an integer")
    n = int(n)
    if not 0 <= n <= 64:
        raise ValueError("n must be in 0..64")
    z = (1.0 + phase_point(phi)) ** n
    return z.real, z.imag
