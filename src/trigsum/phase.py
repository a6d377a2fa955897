"""Conjugate phase-pair evaluation of the series.

Writing p = cos(phi) + i sin(phi) and q for its conjugate (so pq = 1), a
power series Delta applied at p and q recovers the two trigonometric
series at once:

    cosine sum = (Delta(p) + Delta(q)) / 2
    sine sum   = (Delta(p) - Delta(q)) / (2i)

For real coefficients Delta(q) = conj Delta(p), so the two sums are the
real and imaginary parts of Delta(p), and one pass at p gives both.  The
pair formulas, evaluated as written, give other bits on two kinds of row
only, neither of which the package builds: +0.0 where a -0.0 constant
coefficient meets a zero cosine sum (one pass gives -0.0), and inf where
Delta(p) + Delta(q) overflows, as on the row [1.7e308].  For the
binomial row Delta(p) collapses further to (1+p)**n, giving a second,
independent evaluation path for integer exponents.  Both paths carry a
complex number as a (re, im) pair and run split real arithmetic on it, on
Python floats for one angle or numpy arrays for a sequence of angles alike,
with the bits of CPython's ``complex`` at every angle.
"""

from __future__ import annotations

import math

import numpy as np


def _cmul(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi), each part formed as CPython's complex product forms it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _horner(coeffs, c, s):
    """(cosine sum, sine sum) of a finite coefficient row as (Re, Im) of
    Delta(p), at the angles (a float or an array) whose cosines are ``c``
    and sines ``s``.

    Horner's rule runs ``acc * p + coeff`` as CPython's complex does, where
    adding a float adds +0.0 to the imaginary part.
    """
    coeffs = [float(a) for a in coeffs]
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if not all(math.isfinite(a) for a in coeffs):
        raise ValueError("coefficients must be finite")
    re, im = coeffs[-1], 0.0
    for a in reversed(coeffs[:-1]):
        re, im = _cmul(re, im, c, s)
        re, im = re + a, im + 0.0
    return re, im


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


def _at(kernel, first, phi):
    """kernel(first, cos, sin) at the angle ``phi`` (floats back) or at each
    angle of a sequence ``phi`` (arrays back, each entry with the bits of its
    one-angle call)."""
    phis = np.asarray(phi, dtype=float)
    if not phis.ndim:
        return kernel(first, math.cos(phi), math.sin(phi))
    phis = phis.tolist()
    c = np.array([math.cos(x) for x in phis])
    s = np.array([math.sin(x) for x in phis])
    return tuple(np.array(np.broadcast_to(v, c.shape)) for v in kernel(first, c, s))


def series_at_phase(coeffs, phi):
    """Cosine and sine sums of a finite coefficient row via the phase pair,
    at one angle or at each angle of a sequence.

    Evaluates the polynomial at p by Horner accumulation; see ``_horner``.
    """
    return _at(_horner, coeffs, phi)


def binomial_phase_power(n: int, phi):
    """(cosine sum, sine sum) of the full binomial row as (1 + p)**n, at one
    angle or at each angle of a sequence.

    The real and imaginary parts of (1+p)**n are exactly the two series
    sums by conjugate symmetry.  Only integer n in 0..64 is accepted.
    """
    return _at(_power, n, phi)
