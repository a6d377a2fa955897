"""Product closed forms of the binomial multiple-angle series.

The cosine series sums to ``2**n * cos(phi/2)**n * cos(n*phi/2)`` and the
sine series to ``2**n * cos(phi/2)**n * sin(n*phi/2)``.  For integer
exponents both sides are trigonometric polynomials and the identity holds
for every angle; for fractional exponents the power of the half-angle
cosine is taken on the principal branch, which confines the angle to the
open interval (-pi, pi).

Also here: the reduced algebraic forms for negative integer exponents,
the quarter-turn specialization (the alternating even-index coefficient
sum), its mirror written in a rate parameter lambda, and a small catalog
of half-integer special values kept as radical recipes that are evaluated
in extended precision rather than typed in as decimals.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .binom import is_integer_exponent
from .series import SeriesKind, SeriesSpec, _at_half_turn


@dataclass(frozen=True)
class ClosedFormValue:
    """A closed-form value; outside the form's domain it is nan with domain_ok False."""

    value: float
    domain_ok: bool


def _ipow(base, exponent: int):
    """base**exponent by repeated multiplication, sign-correct for base < 0; elementwise on an array."""
    if exponent < 0:
        return 1.0 / _ipow(base, -exponent)
    result = 1.0
    while exponent:
        if exponent & 1:
            result *= base
        base = base * base  # not *=, which would overwrite a caller's array
        exponent >>= 1
    return result


def evaluate_closed(kind: SeriesKind, n: float, phi) -> ClosedFormValue:
    """Product closed form of the ``kind`` series sum_k gen_binom(n,k) trig(k*phi).

    Defined for every phi away from the half-turn poles for integer n, and
    for phi in (-pi, pi) for fractional n; outside, it returns nan with
    domain_ok False and raises nothing.  At a sequence of angles both fields
    are arrays, each entry with the bits of its one-angle call.
    """
    sine = kind == SeriesKind.SINE  # two comparisons cost less than a SeriesKind call
    if not sine and kind != SeriesKind.COSINE:
        SeriesKind(kind)  # raises ValueError
    if hasattr(phi, "__len__") and np.ndim(phi):  # a sequence of angles
        phis = np.asarray(phi, dtype=float).tolist()
        if not is_integer_exponent(n):  # np.exp and np.log round otherwise than math's
            parts = [evaluate_closed(kind, n, x) for x in phis]
            return ClosedFormValue(np.array([p.value for p in parts]),
                                   np.array([p.domain_ok for p in parts], dtype=bool))
        base = [2.0 * math.cos(0.5 * x) for x in phis]
        ok = ~np.array([n < 0 and (_at_half_turn(x) or b == 0.0) for x, b in zip(phis, base)], dtype=bool)
        trig = [math.sin(0.5 * n * x) if sine else math.cos(0.5 * n * x) for x in phis]
        with np.errstate(all="ignore"):  # quiet, as one angle is: overflow, and 1 / +-0 = +-inf
            value = _ipow(np.array(base), int(n)) * np.array(trig)
        return ClosedFormValue(np.where(ok, value, math.nan), ok)
    half = 0.5 * n * phi
    trig = math.sin(half) if sine else math.cos(half)
    if is_integer_exponent(n):
        base = 2.0 * math.cos(0.5 * phi)
        if n < 0 and (_at_half_turn(phi) or base == 0.0):
            return ClosedFormValue(math.nan, False)
        try:
            factor = _ipow(base, int(n))
        except ZeroDivisionError:  # base**-n underflowed to +-0, and IEEE gives 1 / +-0 = +-inf
            factor = math.copysign(math.inf, _ipow(base, -int(n)))
    else:
        base = 2.0 * math.cos(0.5 * phi) if -math.pi < phi < math.pi else 0.0
        if base <= 0.0:
            return ClosedFormValue(math.nan, False)
        log_power = n * math.log(base)
        try:
            factor = math.exp(log_power)
        except OverflowError:  # the power alone is past the doubles; times trig the value may not be
            try:  # log(0) raises ValueError, and inf * 0 below is nan, as on the integer route
                return ClosedFormValue(math.copysign(math.exp(log_power + math.log(abs(trig))), trig), True)
            except (OverflowError, ValueError):
                factor = math.inf
    return ClosedFormValue(factor * trig, True)


def reduced_neg_int(m: int, phi: float) -> ClosedFormValue:
    """Reduced algebraic form of the cosine series at n = -m, m in 1..7.

    A multiple-angle cosine divided by the matching power of the half-angle
    cosine; at m = 1 the quotient is exactly 1/2.  Equal to
    evaluate_closed("cos", -m, phi) everywhere away from the poles, and
    undefined like it at the half-turn.
    """
    if not 1 <= m <= 7:
        raise ValueError("m must be in 1..7")
    if _at_half_turn(phi):
        return ClosedFormValue(math.nan, False)
    value = math.cos(0.5 * m * phi) / (2.0 ** m * math.cos(0.5 * phi) ** m)
    return ClosedFormValue(value, True)


#: The sign of cos(n * 45 degrees) at n mod 8; times 2**(n // 2), it gives integer n's sum.
_EIGHTH_TURN_SIGNS = (1.0, 1.0, 0.0, -1.0, -1.0, -1.0, 0.0, 1.0)


def quarter_turn_sum(n: float) -> ClosedFormValue:
    """Value of the alternating even-index sum 1 - (n|2) + (n|4) - ...

    This is the cosine series at a quarter turn, where odd-index terms
    drop out; its closed form is 2**(n/2) * cos(n * 45 degrees).  For
    integer n that is exactly 0 or +-2**(n // 2).
    """
    if is_integer_exponent(n):
        scale, exponent = _EIGHTH_TURN_SIGNS[int(n) % 8], int(n) // 2
    else:
        cosine = math.cos(0.25 * n * math.pi)
        try:
            return ClosedFormValue(2.0 ** (0.5 * n) * cosine, True)
        except OverflowError:  # 2**(n/2) alone is past the doubles; times the cosine it may not be
            exponent = math.floor(0.5 * n)
            scale = cosine * 2.0 ** (0.5 * n - exponent)
    try:
        return ClosedFormValue(math.ldexp(scale, exponent), True)
    except OverflowError:  # past the doubles: a signed infinity, as evaluate_closed gives
        return ClosedFormValue(math.copysign(math.inf, scale), True)


def lambda_series_closed(lam: float) -> ClosedFormValue:
    """Closed value cos(lambda * 45 degrees) / 2**(lambda/2).

    Sums the family 1 - lam(lam+1)/2! + lam(lam+1)(lam+2)(lam+3)/4! - ...,
    which is the quarter-turn sum at exponent -lambda, and is computed as
    exactly that mirror.
    """
    return quarter_turn_sum(-float(lam))


# ----------------------------------------------------------------------
# Half-integer special values, kept as radical recipes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    spec: SeriesSpec
    recipe: Callable[[], mp.mpf] | None
    description: str
    value: float | None
    divergent: bool = False


def _entry(n: float, phi: float, recipe: Callable[[], mp.mpf] | None, description: str) -> CatalogEntry:
    value = None
    if recipe is not None:
        with mp.workdps(50):
            value = float(recipe())
    return CatalogEntry(SeriesSpec(SeriesKind.COSINE, n, phi), recipe, description,
                        value, divergent=recipe is None)


@lru_cache(maxsize=1)
def special_value_catalog() -> tuple[CatalogEntry, ...]:
    """Half-integer cosine series values at distinguished angles.

    Every decimal comes from evaluating the stored radical recipe at 50
    digits; nothing is typed in by hand.  The half-turn entry for the
    exponent -1/2 has no value: that series diverges.
    """
    return (
        _entry(0.5, 0.0, lambda: mp.sqrt(2), "sqrt(2)"),
        _entry(0.5, math.pi, lambda: mp.mpf(0), "0"),
        _entry(0.5, 0.5 * math.pi, lambda: mp.sqrt((1 + mp.sqrt(2)) / 2),
               "sqrt((1+sqrt(2))/2)"),
        _entry(0.5, math.pi / 3.0, lambda: mp.sqrt(3 + 2 * mp.sqrt(3)) / 2,
               "(1/2)*sqrt(3+2*sqrt(3))"),
        _entry(-0.5, 0.0, lambda: mp.sqrt(mp.mpf(1) / 2), "1/sqrt(2)"),
        _entry(-0.5, 0.5 * math.pi, lambda: mp.sqrt(1 + mp.sqrt(2)) / 2,
               "(1/2)*sqrt(1+sqrt(2))"),
        _entry(-0.5, math.pi, None, "divergent"),
    )
