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


# Complex double-double: each part of x + iy is a (hi, lo) pair.

def cmul(xh, xl, yh, yl, ch, cl, sh, sl):
    """(x + iy) * (c + is)."""
    t1h, t1l = mul(xh, xl, ch, cl)
    t2h, t2l = mul(yh, yl, sh, sl)
    nyh, nyl = add(*mul(yh, yl, ch, cl), *mul(xh, xl, sh, sl))
    nxh, nxl = add(t1h, t1l, -t2h, -t2l)
    return nxh, nxl, nyh, nyl


def crecip(xh, xl, yh, yl):
    """1 / (x + iy) = (x - iy) / (x**2 + y**2)."""
    nh, nl = add(*mul(xh, xl, xh, xl), *mul(yh, yl, yh, yl))
    return (*div(xh, xl, nh, nl), *div(-yh, -yl, nh, nl))
