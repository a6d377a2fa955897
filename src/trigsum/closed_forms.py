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
of half-integer special values: each double stored beside the radical it
rounds, which a test evaluates at 50 digits to check the stored bits.
Every closed form is nan exactly outside its domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binom import is_integer_exponent
from .exceptions import DomainError
from .series import SeriesKind, SeriesSpec, _at_half_turn


@dataclass(frozen=True)
class ClosedFormValue:
    """A closed-form value: nan exactly outside the form's domain."""

    value: float


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


def _times_power(factor: float, log2_power: float) -> float:
    """factor * 2**log2_power without forming the power alone: a signed infinity
    past the doubles, and 0 (signed as factor) where factor is 0."""
    try:
        whole = math.floor(log2_power)
        return math.ldexp(factor * 2.0 ** (log2_power - whole), whole)
    except OverflowError:
        return math.copysign(math.inf, factor)


def evaluate_closed(kind: SeriesKind, n: float, phi) -> ClosedFormValue:
    """Product closed form of the ``kind`` series sum_k gen_binom(n,k) trig(k*phi).

    Defined for every phi but the half turn for integer n < 0, every phi for
    integer n >= 0, and phi in (-pi, pi) for fractional n; outside, it is nan
    and raises nothing.  Inside, it is never nan: a signed infinity past the
    doubles, and a DomainError where |n*phi/2| >= 2**53 (never for fractional
    n).  At a sequence of angles, each entry is what its one-angle call gives.
    """
    sine = kind == SeriesKind.SINE  # two comparisons cost less than a SeriesKind call
    if not sine and kind != SeriesKind.COSINE:
        SeriesKind(kind)  # raises ValueError
    integer = is_integer_exponent(n)
    if hasattr(phi, "__len__") and np.ndim(phi):  # a sequence of angles
        phis = np.asarray(phi, dtype=float).tolist()
        if not integer:  # np.exp and np.log round otherwise than math's
            return ClosedFormValue(np.array([evaluate_closed(kind, n, x).value for x in phis]))
        ok = np.array([n >= 0 or not _at_half_turn(x) for x in phis], dtype=bool)
        base = np.array([2.0 * math.cos(0.5 * x) for x in phis])
        with np.errstate(all="ignore"):  # quiet, as one angle is: overflow, and 1 / +-0 = +-inf
            half = 0.5 * n * np.array(phis)
            known = np.abs(half) < 2.0 ** 53  # the one-angle call below refuses the other angles
            trig = np.array([math.sin(h) if sine else math.cos(h) for h in np.where(known, half, 0.0).tolist()])
            value = np.where(ok, _ipow(base, int(n)) * trig, math.nan)
        for i in np.flatnonzero(ok & ~(np.isfinite(value) & known)).tolist():  # refused, or past the doubles
            value[i] = evaluate_closed(kind, n, phis[i]).value
        return ClosedFormValue(value)
    if (n < 0 and _at_half_turn(phi)) if integer else not -math.pi < phi < math.pi:
        return ClosedFormValue(math.nan)
    half = 0.5 * n * phi
    if not abs(half) < 2.0 ** 53:  # rounded, half is off by up to a radian: not even trig's sign is known
        raise DomainError(f"closed form at n={n!r}, phi={phi!r}: its angle n*phi/2 = {half!r} reaches 2**53")
    trig = math.sin(half) if sine else math.cos(half)
    base = 2.0 * math.cos(0.5 * phi)  # never 0 at a double phi, and above 0 inside (-pi, pi)
    try:
        value = (_ipow(base, int(n)) if integer else math.exp(n * math.log(base))) * trig
    except (OverflowError, ZeroDivisionError):  # exp past the doubles, or 1 / (base**-n = +-0)
        value = math.inf
    if not math.isfinite(value):  # the power alone is past the doubles; times trig the value may not be
        value = _times_power(trig if base > 0.0 or n % 2 == 0 else -trig, n * math.log2(abs(base)))
    return ClosedFormValue(value)


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
        return ClosedFormValue(math.nan)
    return ClosedFormValue(math.cos(0.5 * m * phi) / (2.0 ** m * math.cos(0.5 * phi) ** m))


#: The sign of cos(n * 45 degrees) at n mod 8; times 2**(n // 2), it gives integer n's sum.
_EIGHTH_TURN_SIGNS = (1.0, 1.0, 0.0, -1.0, -1.0, -1.0, 0.0, 1.0)


def quarter_turn_sum(n: float) -> ClosedFormValue:
    """Value of the alternating even-index sum 1 - (n|2) + (n|4) - ...

    This is the cosine series at a quarter turn, where odd-index terms
    drop out; its closed form is 2**(n/2) * cos(n * 45 degrees).  For
    integer n that is exactly 0 or +-2**(n // 2).
    """
    if is_integer_exponent(n):
        return ClosedFormValue(_times_power(_EIGHTH_TURN_SIGNS[int(n) % 8], int(n) // 2))
    cosine = math.cos(0.25 * n * math.pi)
    try:
        return ClosedFormValue(2.0 ** (0.5 * n) * cosine)
    except OverflowError:  # 2**(n/2) alone is past the doubles; times the cosine it may not be
        return ClosedFormValue(_times_power(cosine, 0.5 * n))


def lambda_series_closed(lam: float) -> ClosedFormValue:
    """Closed value cos(lambda * 45 degrees) / 2**(lambda/2).

    Sums the family 1 - lam(lam+1)/2! + lam(lam+1)(lam+2)(lam+3)/4! - ...,
    which is the quarter-turn sum at exponent -lambda, and is computed as
    exactly that mirror.
    """
    return quarter_turn_sum(-float(lam))


# ----------------------------------------------------------------------
# Half-integer special values, each stored beside its radical
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A cosine series value: its radical ``description`` rounded to a double, or None if divergent."""

    spec: SeriesSpec
    description: str
    value: float | None

    @property
    def divergent(self) -> bool:
        return self.value is None


_CATALOG = tuple(CatalogEntry(SeriesSpec(SeriesKind.COSINE, n, phi), text, value) for n, phi, text, value in (
    (0.5, 0.0, "sqrt(2)", float.fromhex("0x1.6a09e667f3bcdp+0")),
    (0.5, math.pi, "0", 0.0),
    (0.5, 0.5 * math.pi, "sqrt((1+sqrt(2))/2)", float.fromhex("0x1.19435caffa9f9p+0")),
    (0.5, math.pi / 3.0, "(1/2)*sqrt(3+2*sqrt(3))", float.fromhex("0x1.456f524181a36p+0")),
    (-0.5, 0.0, "1/sqrt(2)", float.fromhex("0x1.6a09e667f3bcdp-1")),
    (-0.5, 0.5 * math.pi, "(1/2)*sqrt(1+sqrt(2))", float.fromhex("0x1.8dc42193d5c03p-1")),
    (-0.5, math.pi, "divergent", None)))


def special_value_catalog() -> tuple[CatalogEntry, ...]:
    """Half-integer cosine series values at distinguished angles.

    Each value is its radical description rounded to a double, as a test
    checks at 50 digits.  The entry for n = -1/2 at the half turn has no
    value: that series diverges.
    """
    return _CATALOG
