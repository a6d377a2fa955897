"""Double-double arithmetic kernels.

A value is carried as an unevaluated pair ``hi + lo`` of floats with
``|lo| <= ulp(hi) / 2``, giving roughly 32 significant digits.  The
kernels are the classic error-free transforms (two_sum, Dekker split
product) and operate elementwise, so the same code runs on plain floats
and on numpy arrays.

The ill-conditioned radial series sums need this: near the radial limit
the terms of an alternating binomial series are many orders of magnitude
larger than their sum, and plain doubles lose the answer entirely.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_sum(a, b):
    """Exact sum: returns (s, e) with s = fl(a+b) and a + b = s + e."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """Exact product: returns (p, e) with p = fl(a*b) and a * b = p + e."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def renorm(hi, lo):
    s = hi + lo
    return s, lo - (s - hi)


def add(xh, xl, yh, yl):
    sh, sl = two_sum(xh, yh)
    return renorm(sh, sl + (xl + yl))


def mul(xh, xl, yh, yl):
    ph, pl = two_prod(xh, yh)
    return renorm(ph, pl + (xh * yl + xl * yh))


def div(xh, xl, yh, yl):
    q0 = xh / yh
    # remainder x - q0*y, then one Newton correction
    th, tl = mul(q0, 0.0, yh, yl)
    rh, rl = add(xh, xl, -th, -tl)
    q1 = (rh + rl) / yh
    return renorm(q0, q1)

