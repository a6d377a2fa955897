"""Conjugate phase-pair evaluation of the series.

Writing p = cos(phi) + i sin(phi) and q for its conjugate (so pq = 1), a
power series Delta applied at p and q recovers the two trigonometric
series at once:

    cosine sum = (Delta(p) + Delta(q)) / 2
    sine sum   = (Delta(p) - Delta(q)) / (2i)

For the binomial row this collapses further to (1+p)**n, giving a second,
independent evaluation path for integer exponents.  Both paths carry a
complex number as a (re, im) pair and run split real arithmetic on it, on
Python floats for one angle or numpy arrays for an angle grid alike, with
the bits of CPython's ``complex`` at every angle.  The conjugate
combinations are checked, angle by angle, for a cancelled imaginary residue.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConjugacyError

#: Relative bound on the imaginary residue of a conjugate combination.
RESIDUE_BOUND = 1e-12


def phase_point(phi: float) -> complex:
    """Unit-circle point p = cos(phi) + i sin(phi); its conjugate is q."""
    return complex(math.cos(phi), math.sin(phi))


def _cmul(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi), each part formed as CPython's complex product forms it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _conjugate_sums(coeffs, phis, c, s):
    """Cosine and sine sums of a finite coefficient row at the angles ``phis``
    (a float or an array) whose cosines are ``c`` and sines ``s``.

    Horner's rule at p and q runs ``acc * p + coeff`` as CPython's complex
    does, where adding a float adds +0.0 to the imaginary part.  The
    imaginary residue of the conjugate combinations must cancel; at the
    first angle where it exceeds RESIDUE_BOUND times the coefficient mass
    the evaluation itself is broken, and a ConjugacyError names that angle.
    """
    coeffs = [float(a) for a in coeffs]
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if not all(math.isfinite(a) for a in coeffs):
        raise ValueError("coefficients must be finite")
    pr = qr = coeffs[-1]
    pi = qi = 0.0
    for a in reversed(coeffs[:-1]):
        (pr, pi), (qr, qi) = _cmul(pr, pi, c, s), _cmul(qr, qi, c, -s)
        pr, pi, qr, qi = pr + a, pi + 0.0, qr + a, qi + 0.0
    scale = sum(abs(a) for a in coeffs)
    cos_residue, sin_residue = abs(pi + qi) / 2.0, abs(pr - qr) / 2.0
    over = (cos_residue > RESIDUE_BOUND * scale) | (sin_residue > RESIDUE_BOUND * scale)
    if np.any(over):
        i = np.argmax(over)  # the first angle over the bound
        raise ConjugacyError(
            f"imaginary residue {np.ravel(np.maximum(cos_residue, sin_residue))[i]:.3e} at"
            f" phi={float(np.ravel(phis)[i])!r} exceeds {RESIDUE_BOUND:.0e} * {scale:.3e}")
    return (pr + qr) / 2.0, (pi - qi) / 2.0


def _power(n, c, s):
    """(1 + p)**n by CPython's binary powering (c_powu), from r = 1; integer n in 0..64."""
    if not float(n).is_integer():
        raise ValueError("n must be an integer")
    n = int(n)
    if not 0 <= n <= 64:
        raise ValueError("n must be in 0..64")
    pr, pi = 1.0 + c, 0.0 + s
    rr, ri = 1.0, 0.0
    while n:
        if n & 1:
            rr, ri = _cmul(rr, ri, pr, pi)
        n >>= 1
        if n:
            pr, pi = _cmul(pr, pi, pr, pi)
    return rr, ri


def _on_grid(kernel, phis) -> tuple[np.ndarray, np.ndarray]:
    """kernel(cos, sin) on the cosines and sines of an array of angles, taken
    as phase_point takes them: arrays of cosine and sine sums."""
    phis = np.asarray(phis, dtype=float).tolist()
    c = np.array([math.cos(x) for x in phis])
    s = np.array([math.sin(x) for x in phis])
    return tuple(np.array(np.broadcast_to(v, c.shape)) for v in kernel(c, s))


def series_at_phase(coeffs, phi: float) -> tuple[float, float]:
    """Cosine and sine sums of a finite coefficient row via the phase pair.

    Evaluates the polynomial at p and q by Horner accumulation and takes
    the conjugate combinations; see ``_conjugate_sums``.
    """
    return _conjugate_sums(coeffs, phi, math.cos(phi), math.sin(phi))


def series_at_phase_grid(coeffs, phis) -> tuple[np.ndarray, np.ndarray]:
    """``series_at_phase`` at each angle of ``phis``, with the bits of its one-angle call."""
    return _on_grid(lambda c, s: _conjugate_sums(coeffs, phis, c, s), phis)


def binomial_phase_power(n: int, phi: float) -> tuple[float, float]:
    """(cosine sum, sine sum) of the full binomial row as (1 + p)**n.

    The real and imaginary parts of (1+p)**n are exactly the two series
    sums by conjugate symmetry.  Only integer n in 0..64 is accepted.
    """
    return _power(n, math.cos(phi), math.sin(phi))


def binomial_phase_grid(n: int, phis) -> tuple[np.ndarray, np.ndarray]:
    """``binomial_phase_power`` at each angle of ``phis``, with the bits of its one-angle call."""
    return _on_grid(lambda c, s: _power(n, c, s), phis)
