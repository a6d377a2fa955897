"""Generalized binomial coefficients for a real upper argument.

``gen_binom(n, k)`` is the coefficient of ``x**k`` in ``(1 + x)**n``,
defined through the falling product ``n (n-1) ... (n-k+1) / k!`` for any
real ``n`` and integer ``k``.  Integer ``n`` of moderate size is routed
through exact big-integer arithmetic; everything else uses the forward
multiplicative recurrence ``c_{k+1} = c_k * (n - k) / (k + 1)``, which
follows the product definition term for term and avoids the pole and
branch headaches of a gamma-function formulation at negative arguments.
"""

from __future__ import annotations

import math

import numpy as np

# Integer exponents above this magnitude fall back to the floating
# recurrence; exactness is only needed at desk scale.
EXACT_INTEGER_LIMIT = 64


def is_integer_exponent(n: float) -> bool:
    """True when ``n`` equals its nearest integer exactly (no tolerance)."""
    return float(n).is_integer()


def _to_float(value: int) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def gen_binom_exact(n: int, k: int) -> int:
    """Exact integer value of gen_binom for integer ``n``.

    Negative upper arguments reduce through
    ``C(-m, k) = (-1)**k * C(m + k - 1, k)``.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    m = -n
    value = math.comb(m + k - 1, k)
    return -value if k % 2 else value


def gen_binom(n: float, k: int) -> float:
    """Generalized binomial coefficient ``(n choose k)`` for real ``n``.

    Total function: ``k < 0`` gives 0, ``k == 0`` gives 1.  Read off
    ``binom_prefix``, so integer ``n`` with ``|n| <= EXACT_INTEGER_LIMIT``
    is exact before the conversion to float.
    """
    if k < 0:
        return 0.0
    return binom_prefix(n, k + 1)[-1]


def binom_prefix(n: float, count: int) -> list[float]:
    """First ``count`` coefficients ``[gen_binom(n, 0), ..., gen_binom(n, count-1)]``:
    the list form of ``binom_scan``."""
    return binom_scan(n, count).tolist()


def binom_scan(n: float, count: int) -> np.ndarray:
    """``binom_prefix(n, count)`` as a float64 array.

    For integer ``n`` within the exact limit the recurrence runs over Python
    integers (the division is always exact), so every element is exact.
    Other exponents, and n = -1, take one cumulative product (np.cumprod) of
    the factors (n - k) / (k + 1), which multiplies in index order and so
    gives the doubles of the recurrence.
    """
    nf = float(n)
    if count < 0:
        raise ValueError("count must be >= 0")
    # n = -1 needs no big integers: every factor (n - k) / (k + 1) is exactly -1
    if nf.is_integer() and abs(nf) <= EXACT_INTEGER_LIMIT and nf != -1.0:
        out, ni, c = [], int(nf), 1
        for k in range(count):
            out.append(_to_float(c))
            c = c * (ni - k) // (k + 1)
        return np.array(out, dtype=float)
    factors = np.ones(count)
    k = np.arange(count - 1, dtype=float)
    factors[1:] = (nf - k) / (k + 1.0)
    return np.multiply.accumulate(factors)
