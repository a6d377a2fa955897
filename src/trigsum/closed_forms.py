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

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .binom import is_integer_exponent
from .exceptions import DomainError, PoleError
from .series import SeriesKind, SeriesSpec, _at_half_turn


class ClosedFormId(str, enum.Enum):
    GENERAL_COS = "general_cos"
    GENERAL_SIN = "general_sin"
    REDUCED_NEG_INT = "reduced_neg_int"
    QUARTER_TURN = "quarter_turn"
    LAMBDA_SERIES = "lambda_series"


@dataclass(frozen=True)
class ClosedFormValue:
    value: float
    domain_ok: bool
    form_id: ClosedFormId


def _ipow(base: float, exponent: int) -> float:
    """base**exponent by repeated multiplication, sign-correct for base < 0."""
    if exponent < 0:
        return 1.0 / _ipow(base, -exponent)
    result = 1.0
    b = base
    e = exponent
    while e:
        if e & 1:
            result *= b
        b *= b
        e >>= 1
    return result


def _general(n: float, phi: float, sine: bool) -> float:
    if is_integer_exponent(n):
        ni = int(n)
        if ni < 0 and _at_half_turn(phi):
            raise PoleError(f"half-angle cosine vanishes at phi={phi} with n={n}")
        base = 2.0 * math.cos(0.5 * phi)
        if ni < 0 and base == 0.0:
            raise PoleError(f"half-angle cosine vanishes at phi={phi} with n={n}")
        factor = _ipow(base, ni)
    else:
        if not -math.pi < phi < math.pi:
            if n < 0 and _at_half_turn(phi):
                raise PoleError(f"half-angle cosine vanishes at phi={phi} with n={n}")
            raise DomainError(
                f"fractional exponent needs phi in (-pi, pi), got phi={phi}")
        base = 2.0 * math.cos(0.5 * phi)
        if base <= 0.0:
            raise DomainError(f"half-angle base {base!r} not positive at phi={phi}")
        factor = math.exp(n * math.log(base))
    half = 0.5 * n * phi
    return factor * (math.sin(half) if sine else math.cos(half))


def cos_closed(n: float, phi: float) -> ClosedFormValue:
    """Closed form of sum_k gen_binom(n,k) cos(k*phi).

    Integer n: valid for every phi away from the poles of negative powers.
    Fractional n: restricted to phi in (-pi, pi).
    """
    return ClosedFormValue(_general(n, phi, sine=False), True, ClosedFormId.GENERAL_COS)


def sin_closed(n: float, phi: float) -> ClosedFormValue:
    """Closed form of sum_k gen_binom(n,k) sin(k*phi); same domain as cos_closed."""
    return ClosedFormValue(_general(n, phi, sine=True), True, ClosedFormId.GENERAL_SIN)


def evaluate_closed(kind: SeriesKind, n: float, phi: float) -> ClosedFormValue:
    """Non-raising variant: domain exits come back as nan with domain_ok False."""
    kind = SeriesKind(kind)
    form = ClosedFormId.GENERAL_SIN if kind is SeriesKind.SINE else ClosedFormId.GENERAL_COS
    try:
        return ClosedFormValue(_general(n, phi, kind is SeriesKind.SINE), True, form)
    except DomainError:
        return ClosedFormValue(math.nan, False, form)


def reduced_neg_int(m: int, phi: float) -> ClosedFormValue:
    """Reduced algebraic form of the cosine series at n = -m, m in 1..7.

    m = 1 collapses to the constant 1/2; the others divide a multiple-angle
    cosine by the matching power of the half-angle cosine.  Equal to
    cos_closed(-m, phi) everywhere away from the poles.
    """
    if not 1 <= m <= 7:
        raise ValueError("m must be in 1..7")
    if _at_half_turn(phi):
        raise PoleError(f"half-angle cosine vanishes at phi={phi}")
    h = math.cos(0.5 * phi)
    if m == 1:
        value = 0.5
    else:
        value = math.cos(0.5 * m * phi) / (2.0 ** m * h ** m)
    return ClosedFormValue(value, True, ClosedFormId.REDUCED_NEG_INT)


def _quarter_turn_value(n: float) -> float:
    """2**(n/2) * cos(n * pi/4).

    Integer n lands on an eighth of a turn, where the cosine is 0, +-1 or
    +-sqrt(2)/2 and the value collapses to 0 or an exact power of two;
    those cases are returned exactly.
    """
    if is_integer_exponent(n):
        ni = int(n)
        j = ni % 8
        if j % 2:
            sign = 1.0 if j in (1, 7) else -1.0
            return sign * 2.0 ** ((ni - 1) // 2)
        if j in (2, 6):
            return 0.0
        sign = 1.0 if j == 0 else -1.0
        return sign * 2.0 ** (ni // 2)
    return 2.0 ** (0.5 * n) * math.cos(0.25 * n * math.pi)


def quarter_turn_sum(n: float) -> ClosedFormValue:
    """Value of the alternating even-index sum 1 - (n|2) + (n|4) - ...

    This is the cosine series at a quarter turn, where odd-index terms
    drop out; its closed form is 2**(n/2) * cos(n * 45 degrees).
    """
    return ClosedFormValue(_quarter_turn_value(n), True, ClosedFormId.QUARTER_TURN)


def lambda_series_closed(lam: float) -> ClosedFormValue:
    """Closed value cos(lambda * 45 degrees) / 2**(lambda/2).

    Sums the family 1 - lam(lam+1)/2! + lam(lam+1)(lam+2)(lam+3)/4! - ...,
    which is the quarter-turn sum at exponent -lambda, and is computed as
    exactly that mirror.
    """
    return ClosedFormValue(_quarter_turn_value(-float(lam)), True, ClosedFormId.LAMBDA_SERIES)


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


def _entry(n: float, phi: float, recipe: Callable[[], mp.mpf] | None, description: str,
           divergent: bool = False) -> CatalogEntry:
    value = None
    if recipe is not None:
        with mp.workdps(50):
            value = float(recipe())
    return CatalogEntry(SeriesSpec(SeriesKind.COSINE, n, phi), recipe, description,
                        value, divergent)


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
        _entry(-0.5, math.pi, None, "divergent", divergent=True),
    )
