"""Direct evaluation of binomial multiple-angle series.

The cosine family is ``sum_k gen_binom(n, k) * cos(k*phi)`` and the sine
family ``sum_k gen_binom(n, k) * sin(k*phi)``.  For nonnegative integer
``n`` the series terminates; for other exponents it converges, converges
conditionally, or acquires a value only through a summability method,
depending on ``n`` and on whether ``phi`` sits on the half-turn boundary.

Three methods are provided:

* ``partial_sum``   -- plain truncation,
* ``cesaro_sum``    -- (C,1) mean of the partial sums,
* ``abel_sum``      -- radial samples ``f(r) = sum_k c_k r^k trig(k*phi)``
  extrapolated polynomially in ``1 - r`` to the unit radius.

One rule, ``_settle``, decides for each of the three which rows it
refuses and which it settles without summing.  ``evaluate`` dispatches one
``SummationMethod`` to these three or to the conjugate phase path of
``phase``.  All of them serve as summation oracles, deliberately
independent of the product closed forms they are checked against.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dd
from .binom import EXACT_INTEGER_LIMIT, binom_scan, is_integer_exponent
from .exceptions import DivergentSeriesError, DomainError
from .phase import binomial_phase_power

_TWO_PI = 2.0 * math.pi

#: Radial sample schedule used when the caller does not pick one.
DEFAULT_ABEL_RADII = (0.90, 0.925, 0.95, 0.965, 0.975, 0.985, 0.99)

#: Default truncation budget for plain partial summation.
PARTIAL_TERM_BUDGET = 100_000

#: A radial sample beyond this magnitude is treated as divergence.
DIVERGENCE_THRESHOLD = 1e12

# Tail cutoff for automatic Abel term budgets, in log space.  Far below
# any tolerance the extrapolation can deliver.
_ABEL_CUT_LOG = math.log(1e-22)

#: Most terms any route sums: the largest ``terms`` that ``evaluate`` accepts,
#: and the largest automatic Abel budget before a radius counts as too close to 1.
MAX_TERMS = 5_000_000

# Most elements in one block of the Abel engine's trig table, of a term budget's chunk, of
# plain-double terms, or of a Levin set-up block; a Levin angle block holds half as many
# samples.  Larger blocks cost memory and, past about 2**13 elements, run the double-double
# kernels slower per element.
_BLOCK_ELEMS = 2 ** 12
_EXP_BIAS = 1073  # np.frexp gives exponents -1073 .. 1024 for finite doubles


class SeriesKind(str, enum.Enum):
    COSINE = "cos"
    SINE = "sin"


class SummationMethod(str, enum.Enum):
    """How a value is computed; ``.value`` is the name reports and the CLI print."""

    PARTIAL = "partial"
    CESARO = "cesaro"
    ABEL = "abel"
    PHASE = "phase"
    CLOSED = "closed"
    REDUCED = "reduced"


#: The methods ``evaluate`` sums a series by, in CLI order.
SUMMATION_METHODS = (
    SummationMethod.PARTIAL,
    SummationMethod.CESARO,
    SummationMethod.ABEL,
    SummationMethod.PHASE,
)


class ConvergenceClass(str, enum.Enum):
    FINITE = "finite"
    ABSOLUTELY_CONVERGENT = "absolutely_convergent"
    CONDITIONALLY_CONVERGENT = "conditionally_convergent"
    SUMMABLE_ONLY = "summable_only"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class SeriesSpec:
    """One series instance: kind, exponent and angle (radians)."""

    kind: SeriesKind
    n: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "kind", SeriesKind(self.kind))
        object.__setattr__(self, "n", float(self.n))
        object.__setattr__(self, "phi", float(self.phi))
        if not (math.isfinite(self.n) and math.isfinite(self.phi)):
            raise DomainError(f"n and phi must be finite, got n={self.n} phi={self.phi}")


@dataclass(frozen=True)
class SummationResult:
    value: float
    method: SummationMethod
    terms_used: int
    residual_estimate: float
    convergence: ConvergenceClass


def _principal(phi: float) -> float:
    """Reduce phi to (-pi, pi], exactly preserving the half-turn boundary."""
    return math.remainder(phi, _TWO_PI)


def _at_half_turn(phi: float) -> bool:
    return abs(_principal(phi)) == math.pi


def _at_full_turn(phi: float) -> bool:
    return _principal(phi) == 0.0


def _zero_row(spec: SeriesSpec, conv: ConvergenceClass) -> bool:
    """A non-terminating sine row at a half or full turn: every term is exactly zero."""
    return (conv is not ConvergenceClass.FINITE and spec.kind is SeriesKind.SINE
            and (_at_half_turn(spec.phi) or _at_full_turn(spec.phi)))


def classify(spec: SeriesSpec) -> ConvergenceClass:
    """Convergence class of the series on the unit circle.

    The half-turn boundary (phi congruent to pi) is where the cosine
    series has all-positive terms and loses convergence for n < 0; the
    sine series vanishes identically there and at full turns.
    """
    n = spec.n
    if is_integer_exponent(n) and n >= 0:
        return ConvergenceClass.FINITE
    half = _at_half_turn(spec.phi)
    if spec.kind is SeriesKind.SINE and (half or _at_full_turn(spec.phi)):
        # every term is exactly zero
        return ConvergenceClass.ABSOLUTELY_CONVERGENT
    if n > 0.0:
        return ConvergenceClass.ABSOLUTELY_CONVERGENT
    if -1.0 < n < 0.0:
        if half:
            return ConvergenceClass.DIVERGENT
        return ConvergenceClass.CONDITIONALLY_CONVERGENT
    # n <= -1: coefficients no longer tend to zero
    if half:
        return ConvergenceClass.DIVERGENT
    return ConvergenceClass.SUMMABLE_ONLY


def rotations(phi, count: int) -> np.ndarray:
    """z**k = cos(k*phi) + i sin(k*phi) for k = 0..count-1, as a complex array.

    np.multiply.accumulate of z = cos(phi) + i sin(phi) takes the coupled
    angle-addition step (one rotation per index, in index order), which
    keeps the absolute error near machine precision uniformly in phi; the
    value at k carries roughly k rounding errors that average out instead
    of being amplified near phi = 0 or pi.  An array of angles gives one
    column per angle, shaped (count, angles): the accumulate runs down each
    column and gives it the bits of its one-angle call.
    """
    shape = np.shape(phi)
    z = [complex(math.cos(x), math.sin(x)) for x in np.ravel(phi).tolist()]
    steps = np.full((count,) + shape, z if shape else z[0])
    steps[:1] = 1.0
    return np.multiply.accumulate(steps, axis=0)


def trig_values(phi, count: int, kind: SeriesKind) -> np.ndarray:
    """cos(k*phi) or sin(k*phi) for k = 0..count-1: the float64 real or
    imaginary part of ``rotations(phi, count)``."""
    rot = rotations(phi, count)
    return rot.imag if SeriesKind(kind) is SeriesKind.SINE else rot.real


def _term_blocks(spec: SeriesSpec, count: int):
    """The terms gen_binom(n, k) * trig(k*phi), k < count, as (first k, block) pairs.

    Each block's np.multiply.accumulate scans start from the last coefficient
    and rotation of the block before, keeping the bits of binom_scan(n, count)
    * trig_values(phi, count, kind).  Blocks hold _BLOCK_ELEMS terms but the
    first, which takes the remainder (so any exact-branch row, count <= n <= 64),
    since numpy rounds a 1-term block's 2-element complex accumulate differently.
    """
    first = count % _BLOCK_ELEMS or _BLOCK_ELEMS
    coeffs, rot = binom_scan(spec.n, first), rotations(spec.phi, first)
    part = "imag" if spec.kind is SeriesKind.SINE else "real"
    yield 0, coeffs * getattr(rot, part)
    z = complex(math.cos(spec.phi), math.sin(spec.phi))
    for start in range(first, count, _BLOCK_ELEMS):
        k = np.arange(start - 1.0, start + _BLOCK_ELEMS - 1.0)
        coeffs = np.multiply.accumulate(np.concatenate((coeffs[-1:], (spec.n - k) / (k + 1.0))))[1:]
        rot = np.multiply.accumulate(np.concatenate((rot[-1:], np.full(_BLOCK_ELEMS, z))))[1:]
        yield start, coeffs * getattr(rot, part)


class _ExactSum:
    """Exact sum of float64 blocks, rounded once: the bits of math.fsum.

    ``add`` splits each m * 2**e (np.frexp) into integers hi * 2**26 + lo =
    m * 2**53 and adds lo at exponent e and hi at e + 26 into one row of
    buckets by np.bincount, exact for up to 2**26 elements (MAX_TERMS is
    fewer).  ``value`` rounds the integer total once by int true division,
    which CPython rounds correctly (Neal 2015, "small superaccumulator").
    Non-finite input (indexed from ``first``) or overflow raise DomainError.
    ``merge`` adds another sum's buckets, exact up to 2**26 elements in all.
    """

    def __init__(self, first: int = 0):
        self._seen, self._buckets = first, np.zeros(2 * _EXP_BIAS)

    def merge(self, other: _ExactSum) -> _ExactSum:
        self._buckets += other._buckets
        return self

    def add(self, x: np.ndarray) -> _ExactSum:
        for start in range(0, x.size, _BLOCK_ELEMS):
            block = x[start:start + _BLOCK_ELEMS]
            if not np.isfinite(block).all():
                k = self._seen + start + int(np.argmin(np.isfinite(block)))
                raise DomainError(f"float64 sum: the term or partial sum at k = {k} is not finite")
            m, e = np.frexp(block)
            hi = np.trunc(m * 2.0 ** 27)
            e += _EXP_BIAS
            self._buckets += np.bincount(e, m * 2.0 ** 53 - hi * 2.0 ** 26, self._buckets.size)
            self._buckets[26:] += np.bincount(e, hi, self._buckets.size - 26)
        self._seen += x.size
        return self

    def value(self) -> float:
        used = np.flatnonzero(self._buckets)  # every bucket an integer below 2**53
        total = sum(v << e for e, v in zip(used.tolist(), self._buckets[used].astype(np.int64).tolist()))
        try:
            return total / (1 << _EXP_BIAS + 53)  # bucket 0 holds units of 2**-1126
        except OverflowError:
            raise DomainError("float64 sum: the exact sum overflows a double") from None


#: Per method: the classes it cannot sum, and the exponent at or below which
#: it sums no row but a zero row.  Partial sums grow without bound on
#: summable-only and divergent rows; for n <= -2 the terms grow like
#: k**(-n - 1), too fast for the (C,1) mean to settle.
_CANNOT_SUM = {
    SummationMethod.PARTIAL: ((ConvergenceClass.SUMMABLE_ONLY, ConvergenceClass.DIVERGENT), -math.inf),
    SummationMethod.CESARO: ((ConvergenceClass.DIVERGENT,), -2.0),
    SummationMethod.ABEL: ((ConvergenceClass.DIVERGENT,), -math.inf),
}


def _settle(spec: SeriesSpec, method: SummationMethod,
            terms: float = math.inf) -> tuple[ConvergenceClass, SummationResult | None]:
    """The one rule for a row and a method: refuse it, settle it, or leave it to be summed.

    Raises DivergentSeriesError when ``method`` cannot sum the row (see
    _CANNOT_SUM).  Otherwise returns the row's class and the result of a
    row that needs no summing, else None.  A zero row (see ``_zero_row``)
    is 0, with residual 0 and no terms.  A terminating row has constant
    partial sums from k = n on, so its Cesaro mean and Abel value are its
    whole sum (Hardy, Divergent Series: regularity; see ``_whole_row``), as
    are its partial sums once ``terms`` exceeds n; fewer terms truncate it.
    """
    conv = classify(spec)
    if _zero_row(spec, conv):
        return conv, SummationResult(0.0, method, 0, 0.0, conv)
    classes, n_bound = _CANNOT_SUM[method]
    if conv in classes or spec.n <= n_bound:
        raise DivergentSeriesError(f"no {method.value} value for the {conv.value} row"
                                   f" kind={spec.kind.value} n={spec.n} phi={spec.phi}")
    if conv is ConvergenceClass.FINITE and (method is not SummationMethod.PARTIAL or terms > spec.n):
        return conv, _whole_row(spec, method, conv)
    return conv, None


#: The longest terminating row in doubles: C(1029, 514) ~ 2**1023.67 fits, C(1030, 515) ~ 2**1024.67 not.
_WHOLE_ROW_MAX_N = 1029


def _whole_row(spec: SeriesSpec, method: SummationMethod, conv: ConvergenceClass) -> SummationResult:
    """A terminating row summed through k = n, exactly rounded by math.fsum.

    The error is the terms' own: their scans put up to about k units of
    2**-53 on term k, so the residual is count * 2**-53 * sum_k |t_k|.
    DomainError past _WHOLE_ROW_MAX_N, before any array, or where a sum overflows.
    """
    if spec.n > _WHOLE_ROW_MAX_N:
        raise DomainError(f"float64 sum: the terminating row n={spec.n} has coefficients past the doubles"
                          f" (rows up to n = {_WHOLE_ROW_MAX_N} fit)")
    count = int(spec.n) + 1
    ts = (binom_scan(spec.n, count) * trig_values(spec.phi, count, spec.kind)).tolist()
    try:
        total, size = math.fsum(ts), math.fsum(map(abs, ts))
    except OverflowError:  # an intermediate overflow
        raise DomainError("float64 sum: the sum of a terminating row overflows a double") from None
    return SummationResult(total, method, count, count * 2.0 ** -53 * size, conv)


def partial_sum(spec: SeriesSpec, terms: int) -> SummationResult:
    """Truncated sum of the first ``terms`` terms.

    The residual estimate is the magnitude of the last included term (see
    ``_whole_row`` for a whole terminating row).  A row ``_settle`` refuses
    raises, a row it settles is not summed; see _ExactSum for DomainError.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    conv, row = _settle(spec, SummationMethod.PARTIAL, terms)
    if row is not None:
        return row
    total = _ExactSum()
    with np.errstate(over="ignore", invalid="ignore"):
        for _, ts in _term_blocks(spec, terms):
            total.add(ts)
    return SummationResult(total.value(), SummationMethod.PARTIAL, terms, abs(float(ts[-1])), conv)


def cesaro_sum(spec: SeriesSpec, terms: int) -> SummationResult:
    """(C,1) mean of the first ``terms`` partial sums.

    The partial sums are np.cumsum of the terms, which adds in index order.
    The residual estimate compares the means of the last two windows of
    ceil(terms/4) partial sums; it stays large when the means oscillate, the
    method's own signal that it has not settled.  A row ``_settle`` refuses
    raises, a row it settles is not summed; see _ExactSum for DomainError.
    """
    if terms < 2:
        raise ValueError("terms must be >= 2")
    conv, row = _settle(spec, SummationMethod.CESARO)
    if row is not None:
        return row
    w = -(-terms // 4)  # ceil; 2 * w <= terms
    cuts = (0, terms - 2 * w, terms - w, terms)  # before the windows, the last but one, the last
    before, prev, last = sums = [_ExactSum(first) for first in cuts[:3]]
    carry = -0.0  # -0.0 + x is x for every x, -0.0 included
    with np.errstate(over="ignore", invalid="ignore"):
        for start, partials in _term_blocks(spec, terms):
            partials[0] += carry
            carry = np.cumsum(partials, out=partials)[-1]
            for part, lo, hi in zip(sums, cuts, cuts[1:]):
                part.add(partials[max(lo - start, 0):max(hi - start, 0)])
    residual = abs(last.value() / w - prev.value() / w)
    total = before.merge(prev).merge(last).value()
    return SummationResult(total / terms, SummationMethod.CESARO, terms, residual, conv)


# ----------------------------------------------------------------------
# Abel summation
# ----------------------------------------------------------------------

def _validate_radii(radii) -> tuple[float, ...]:
    radii = tuple(float(r) for r in (DEFAULT_ABEL_RADII if radii is None else radii))
    if len(radii) < 3:
        raise ValueError("need at least 3 radii")
    for r in radii:
        if not 0.0 < r < 1.0:
            raise ValueError(f"radius {r!r} outside (0, 1)")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    return radii


def abel_terms_needed(r: float) -> int:
    """Smallest truncation satisfying r**terms < 1e-16 at the radius ``r``."""
    return int(math.ceil(math.log(1e-16) / math.log(r))) + 1


def _past_cutoff(logc: np.ndarray, r: float, first: int = 1) -> int:
    """Least k >= abel_terms_needed(r) with log|gen_binom(n, k) * r**k| below
    the tail cutoff, or 0 if none; ``logc`` holds log|gen_binom(n, k)| from k = ``first``."""
    kmin = max(abel_terms_needed(r), first)
    k = np.arange(kmin, first + logc.size, dtype=float)
    (hit,) = np.nonzero(logc[kmin - first:] + k * math.log(r) < _ABEL_CUT_LOG)
    return kmin + int(hit[0]) if hit.size else 0


def _log_coeffs(n: float, r: float) -> np.ndarray:
    """log|gen_binom(n, k)| for k = 1, 2, ... up to ``_past_cutoff`` at radius ``r``.

    A running sum of log|n - j| - log(j + 1), taken by np.cumsum over
    chunks of _BLOCK_ELEMS indices; cumsum adds in index order, so it is
    the same running sum a loop over k forms, whatever the chunks.  The
    scan also stops at MAX_TERMS.  No terminating row gets here: ``_settle``
    sums those whole.
    """
    chunks, lc, start = [], 0.0, 1
    while start <= MAX_TERMS:
        k = np.arange(start, min(start + _BLOCK_ELEMS, MAX_TERMS + 1), dtype=float)
        steps = np.log(np.abs(n - (k - 1.0))) - np.log(k)
        steps[0] += lc
        logc = np.cumsum(steps)
        hit = _past_cutoff(logc, r, start)
        chunks.append(logc[:hit - start + 1] if hit else logc)
        if hit:
            break
        lc = float(logc[-1])
        start += k.size
    return np.concatenate(chunks)


def _abel_term_count(r: float, logc: np.ndarray) -> int:
    """Truncation making |gen_binom(n, k) * r**k| fall below the tail cutoff.

    ``logc`` is ``_log_coeffs(n, r')`` for some r' >= r: a smaller radius
    meets the cutoff no later, so one scan serves every radius of a query.
    """
    hit = _past_cutoff(logc, r)
    if hit:
        return hit + 1
    raise ValueError(f"radius {r!r} too close to 1 for a feasible term budget")


def _abel_point_f64(r: float, count: int, coeffs: np.ndarray, trig: np.ndarray) -> float:
    """One radial sample in plain doubles, summed exactly rounded by _ExactSum.

    ``coeffs`` and ``trig`` are the prefix scans partial sums use
    (``binom_scan``, ``trig_values``), at least ``count`` long; their first
    ``count`` entries are the scans of that length.  The powers r**k are an
    np.cumprod of r, which multiplies in index order.
    """
    rk = np.cumprod(np.concatenate(([1.0], np.full(count - 1, r))))
    return _ExactSum().add((coeffs[:count] * rk) * trig[:count]).value()


def _abel_point_dd(kind: SeriesKind, n: float, phi: float, radii):
    """Levin radial samples at one angle: the grid engine on a one-angle grid.

    Returns the samples as lists of (hi, lo) floats per radius, the largest
    accepted Levin gap and the largest Levin order used.
    """
    hi, lo, gap, order = _levin_samples(kind, n, np.array([phi]), radii)
    return hi[:, 0].tolist(), lo[:, 0].tolist(), float(gap.max()), int(order.max())


def _neville_amplification(radii) -> float:
    """Sum of |l_i(0)| over the Lagrange basis of the nodes x_i = 1 - r_i.

    Neville's value at x = 0 is sum_i l_i(0) f_i, so sample errors up to e
    move it by at most e times this sum.
    """
    return math.fsum(abs(math.prod((1.0 - rj) / (ri - rj) for rj in radii if rj != ri))
                     for ri in radii)


def _extrapolate_radial(radii, f_hi, f_lo):
    """Neville extrapolation of the samples to r -> 1, i.e. to x = 1-r = 0.

    Returns (value, |last correction|).  The tableau runs in double-double:
    each node x_i = 1 - r_i and each difference x_j - x_i = r_i - r_j is
    exact there.  The samples are floats, one per radius, or numpy arrays,
    one entry per angle; both give the same bits.
    """
    xs = [dd.two_sum(1.0, -r) for r in radii]
    t = list(zip(f_hi, f_lo))
    for lev in range(1, len(t)):
        top = t[0]  # the value the last level corrects
        for i in range(len(t) - lev):
            ah, al = dd.mul(*xs[i + lev], *t[i])
            bh, bl = dd.mul(*xs[i], *t[i + 1])
            t[i] = dd.div(*dd.add(ah, al, -bh, -bl), *dd.two_sum(radii[i], -radii[i + lev]))
    return t[0][0], abs(dd.add(*t[0], -top[0], -top[1])[0])


def _radial_limit(radii, hi, lo, gap):
    """Value and residual at r -> 1 of samples with errors up to ``gap``.

    Samples are floats or arrays over angles, one per radius, as for
    ``_extrapolate_radial``.  Raises DivergentSeriesError when one exceeds
    DIVERGENCE_THRESHOLD.
    """
    if np.abs(hi).max() > DIVERGENCE_THRESHOLD:
        raise DivergentSeriesError("radial samples grow without bound")
    value, correction = _extrapolate_radial(radii, hi, lo)
    return value, correction + gap * _neville_amplification(radii)


def abel_sum(spec: SeriesSpec, radii=None) -> SummationResult:
    """Abel sum: radial samples extrapolated to the unit radius.

    ``radii`` must be strictly increasing inside (0, 1), at least three of
    them.  The method picks its own term count: exponents above -2 sum
    each sample in plain doubles up to a term budget that pushes the
    neglected tail far below the extrapolation error, and exponents at or
    below -2 take Levin samples in double-double (see ``_levin_samples``):
    close to the unit radius the terms dwarf their sum and plain doubles
    cannot cancel them accurately.  A row ``_settle`` settles is not summed.

    Raises DivergentSeriesError on a row ``_settle`` refuses (one with no
    radial limit), when the Levin orders do not settle, or when a sample
    exceeds DIVERGENCE_THRESHOLD.
    """
    radii = _validate_radii(radii)
    conv, row = _settle(spec, SummationMethod.ABEL)
    if row is not None:
        return row
    if spec.n > -2.0:
        # one log scan, coefficient scan and rotation scan, up to the
        # largest radius's budget, serve every sample of the query
        logc = _log_coeffs(spec.n, radii[-1])
        counts = [_abel_term_count(r, logc) for r in radii]
        used = max(counts)
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs, trig = binom_scan(spec.n, used), trig_values(spec.phi, used, spec.kind)
            hi = [_abel_point_f64(r, count, coeffs, trig) for r, count in zip(radii, counts)]
        lo, gap = [0.0] * len(radii), 0.0
    else:
        hi, lo, gap, used = _abel_point_dd(spec.kind, spec.n, spec.phi, radii)
    value, residual = _radial_limit(radii, hi, lo, gap)
    return SummationResult(value, SummationMethod.ABEL, used, residual, conv)


def evaluate(spec: SeriesSpec, method: SummationMethod, terms: int | None = None,
             radii=None) -> SummationResult:
    """Sum ``spec`` by one of the ``SUMMATION_METHODS``.

    Partial and Cesaro sums default to PARTIAL_TERM_BUDGET terms and take
    at most MAX_TERMS; Abel summation and the phase path pick their own
    count.  A ``terms`` they cannot take raises ValueError.  ``radii`` only
    reaches Abel summation.  The summation functions refuse a row they
    cannot sum with DivergentSeriesError (see ``_settle``).  The phase
    path reads the row off ``(1 + p)**n`` and raises DomainError unless n
    is an integer in 0..64.
    """
    method = SummationMethod(method)
    if method not in SUMMATION_METHODS:
        raise ValueError(f"{method.value!r} is not a summation method")
    if terms is not None and terms > MAX_TERMS:
        raise ValueError(f"terms must be <= {MAX_TERMS}")
    if method in (SummationMethod.PARTIAL, SummationMethod.CESARO):
        summed = partial_sum if method is SummationMethod.PARTIAL else cesaro_sum
        return summed(spec, PARTIAL_TERM_BUDGET if terms is None else terms)
    if terms is not None:
        raise ValueError(f"terms must be left out: {method.value} picks its own count")
    if method is SummationMethod.ABEL:
        return abel_sum(spec, radii=radii)
    try:
        cos_sum, sin_sum = binomial_phase_power(spec.n, spec.phi)
    except ValueError as exc:
        raise DomainError(f"phase path needs integer n in 0..64: {exc}") from exc
    value = sin_sum if spec.kind is SeriesKind.SINE else cos_sum
    return SummationResult(value, method, int(spec.n) + 1, 0.0, classify(spec))


def evaluate_grid(rows, phis: tuple, method: SummationMethod, radii=None) -> list[np.ndarray]:
    """``evaluate`` of each (kind, n) row of ``rows`` at the angles ``phis``:
    one array per row, nan exactly where ``evaluate`` refuses the point.

    The rows share one ``binomial_phase_power`` call per exponent (phase),
    one ``rotations`` table (terminating partial-sum rows with n <= 64, each
    summed whole as ``_whole_row`` sums one angle) or one ``abel_sum_grid``
    call per kind; other rows, and those the shared call refuses, take
    ``evaluate`` one angle at a time.  Each value has its one-angle bits but
    on the Abel rows with n > -2 that the grid sums: it takes Levin samples
    where one angle takes float64 ones (6.7e-13 apart at most on the suites'
    rows; ROADMAP item 2 makes them one route).
    """
    method = SummationMethod(method)
    rows = [(SeriesKind(kind), float(n)) for kind, n in rows]
    grid = {}  # (kind, n): the values of a row summed on the grid
    if method is SummationMethod.PHASE:
        for n in dict.fromkeys(n for _, n in rows):
            with contextlib.suppress(ValueError):  # integer n in 0..64 only
                grid[SeriesKind.COSINE, n], grid[SeriesKind.SINE, n] = binomial_phase_power(n, phis)
    elif method is SummationMethod.ABEL:
        for kind in dict.fromkeys(kind for kind, _ in rows):
            with contextlib.suppress(DivergentSeriesError, DomainError):  # one refused point refuses the grid
                sums = abel_sum_grid(kind, [n for k, n in rows if k is kind], phis, radii)
                grid.update(((kind, n), values) for n, (values, _, _) in sums.items())
    elif method is SummationMethod.PARTIAL:
        whole = [(kind, n) for kind, n in rows if is_integer_exponent(n) and 0 <= n <= EXACT_INTEGER_LIMIT]
        rot = rotations(phis, EXACT_INTEGER_LIMIT + 1) if whole else None
        for kind, n in whole:
            part = (rot.imag if kind is SeriesKind.SINE else rot.real)[:int(n) + 1]
            terms = binom_scan(n, int(n) + 1)[:, None] * part  # one column per angle
            grid[kind, n] = np.array([math.fsum(col) for col in terms.T.tolist()])
    return [grid[row] if row in grid else np.array([_value_or_nan(SeriesSpec(*row, phi), method, radii=radii)
                                                    for phi in phis]) for row in rows]


def _value_or_nan(spec: SeriesSpec, method: SummationMethod, terms=None, radii=None) -> float:
    try:
        return evaluate(spec, method, terms=terms, radii=radii).value
    except (DivergentSeriesError, DomainError):
        return math.nan


# ----------------------------------------------------------------------
# Double-double Abel engine: one angle (abel_sum) or an angle grid (evaluate_grid)
# ----------------------------------------------------------------------

@functools.cache
def _fixed_pi(bits: int) -> int:
    """pi * 2**bits within a unit, by Machin's pi = 16 atan(1/5) - 4 atan(1/239)."""
    total = 0
    for c, x in ((16, 5), (-4, 239)):
        t, k = (1 << bits + 16) // x, 1  # x**-k; atan(1/x) sums (-1)**(k//2) x**-k / k
        while t:
            total += c * (t // k if k % 4 == 1 else -(t // k))
            t, k = t // (x * x), k + 2
    return total >> 16


def _unit_powers(phi: float):
    """The words (cos hi, cos lo, sin hi, sin lo) of z**L, z = exp(i*phi), for L = 1, 2, 4, ...

    z is a Taylor series in integers over 2**bits after |phi| >= 1 is reduced by pi/2, with
    guard bits for its exponent; a tiny phi gets more bits, for the low words of 1 - phi**2/2
    and phi - phi**3/6.  Each z**L squares the one before and is rounded once, as int / int is.
    """
    e = math.frexp(phi)[1]
    bits, guard = 200 + 3 * max(-e, 0), max(e, 0) + 16
    num, den = phi.as_integer_ratio()
    x, q = (num << bits + guard) // den, 0  # phi * 2**(bits + guard), exact
    if e > 0:
        half_pi = _fixed_pi(bits + guard - 1)
        q = (2 * x + half_pi) // (2 * half_pi)  # the nearest multiple of pi/2
        x -= q * half_pi
    terms = [1 << bits]  # |r|**k / k! for the reduced r = x / 2**(bits + guard)
    while terms[-1]:
        terms.append((terms[-1] * abs(x >> guard) >> bits) // len(terms))
    c = sum(terms[::4]) - sum(terms[2::4])
    s = (sum(terms[1::4]) - sum(terms[3::4])) * (-1 if x < 0 else 1)
    for _ in range(q % 4):  # times i**q
        c, s = -s, c
    while True:
        words = []
        for v in (c, s):
            hi = v / (1 << bits)
            p, d = hi.as_integer_ratio()
            words += (hi, (v * d - (p << bits)) / (d << bits))
        yield words
        c, s = (c * c - s * s) >> bits, (c * s) >> bits - 1


def _dd_trig_table(phis: np.ndarray, count: int):
    """cos(k*phi) and sin(k*phi) for k < count, double-double, per angle.

    Returns (cos hi, cos lo, sin hi, sin lo), each shaped (count, angles).
    z**k for z = exp(i*phi) is built by one doubling rule: rows [s, s + L)
    are the rows L back times z**L, where L = min(s, B) and B is the largest
    power of two that keeps B rows of every angle within _BLOCK_ELEMS
    elements.  Every z**L is rounded once from integers (``_unit_powers``),
    so errors add up only along the log2(B) doublings and the count/B steps.
    """
    powers = [_unit_powers(phi) for phi in phis.tolist()]
    block = 1
    while block < count and 2 * block * len(powers) <= _BLOCK_ELEMS:
        block *= 2
    table = tuple(np.zeros((count, len(powers))) for _ in range(4))
    table[0][0] = 1.0
    start = 1
    while start < count:
        back = min(start, block)
        if back == start:  # z**1, z**2, ..., z**B; then z**B again
            zback = tuple(np.array([next(p) for p in powers]).T)
        stop = min(start + back, count)
        for t, e in zip(table, dd.cmul(*(t[start - back:stop - back] for t in table), *zback)):
            t[start:stop] = e
        start = stop
    return table


def _dd_coeff_arrays(n: float, count: int):
    """gen_binom(n, k) for k < count in double-double.

    A prefix-product scan (``_dd_scan_axis0`` with dd.mul) of the factors
    f_k = (n - k) / (k + 1), with n - k an exact double-double difference.
    """
    k = np.arange(count - 1, dtype=float)
    ph, pl = _dd_scan_axis0(dd.mul, *dd.div(*dd.add(n, 0.0, -k, 0.0), k + 1.0, 0.0))
    return np.concatenate(([1.0], ph)), np.concatenate(([0.0], pl))


def _dd_power_arrays(r, count: int):
    """r**k for k < count in double-double: a prefix-product scan
    (``_dd_scan_axis0`` with dd.mul) of (1, r, r, ...).

    ``r`` is one radius, giving arrays of ``count`` entries, or an array of
    radii, giving arrays shaped (count, radii).
    """
    r = np.asarray(r, dtype=float)
    hi = np.broadcast_to(r, (count,) + r.shape).copy()
    hi[0] = 1.0
    return _dd_scan_axis0(dd.mul, hi, np.zeros_like(hi))


def _dd_reduce_axis0(th: np.ndarray, tl: np.ndarray):
    """Double-double sum along axis 0, in place in arrays the caller owns: of m
    rows, row i takes row i + m // 2, an odd last row moves down.  Returns row 0."""
    rows = th.shape[0]
    while rows > 1:
        half = rows // 2
        th[:half], tl[:half] = dd.add(th[:half], tl[:half], th[half:2 * half], tl[half:2 * half])
        if rows % 2:
            th[half], tl[half] = th[rows - 1], tl[rows - 1]
        rows -= half
    return th[0], tl[0]


# Levin's u transform (Levin 1973; Weniger 1989, sections 7-8) of the
# complex series sum_k a_k with a_k = c_k w**k, w = r*exp(i*phi): with
# partial sums s_j and omega_j = (j + 1) * a_j, order K is
#     L_K = sum_j W_Kj s_j / omega_j  /  sum_j W_Kj / omega_j,
#     W_Kj = (-1)**j * C(K, j) * (j + 1)**(K - 1),  j = 0..K.
# The complex series has the single ratio w, which is the model the
# transform fits; the real series mixes r*exp(+-i*phi) and does not.

#: Orders walked for each sample; the last one needs _LEVIN_ROWS terms.
_LEVIN_ORDERS = tuple(range(16, 65, 8))
_LEVIN_ROWS = _LEVIN_ORDERS[-1] + 1
#: Pairs of orders, of 25, 41, 57 or 65 rows; orders 16 and 24 settle most samples.
_LEVIN_STAGES = tuple(_LEVIN_ORDERS[i:i + 2] for i in range(0, len(_LEVIN_ORDERS), 2))
#: Two consecutive orders agree when |L_K - L_K'| is at most this times
#: max(|L_K|, max_j |s_j|).  Near the half-turn the error of L_K falls and
#: then rises again within a few orders: at n = -2.5, 170 deg and r = 0.996
#: the closest pair differs by 4.5e-13, while at the branch point n = -3,
#: phi = pi - 1e-6 no pair is closer than 4.5e-12.
_LEVIN_AGREE = 1e-12


def _levin_weights(order: int):
    """W_Kj for j = 0..K as exact integers, each rounded once to double-double."""
    exact = [(-1) ** j * math.comb(order, j) * (j + 1) ** (order - 1) for j in range(order + 1)]
    hi = [float(w) for w in exact]
    return np.array(hi), np.array([float(w - int(h)) for w, h in zip(exact, hi)])


_LEVIN_WEIGHTS = {order: _levin_weights(order) for order in _LEVIN_ORDERS}


def _dd_scan_axis0(op, h: np.ndarray, l: np.ndarray):
    """Running double-double sums (op=dd.add) or products (op=dd.mul) along axis 0.

    In place, by log2(rows) doubling passes.  Callers pass ``op`` at call
    time, so a rebound dd.add or dd.mul is the one used.
    """
    shift = 1
    while shift < h.shape[0]:
        h[shift:], l[shift:] = op(h[shift:], l[shift:], h[:-shift], l[:-shift])
        shift *= 2
    return h, l


@np.errstate(over="ignore", invalid="ignore")  # terms past the doubles: no order agrees, so they are refused
def _levin_samples(kind: SeriesKind, n: float, phis: np.ndarray, radii, trig=None):
    """Abel radial samples of the complex series by Levin's u transform.

    ``trig``, a _dd_trig_table of ``phis`` with at least _LEVIN_ROWS rows,
    serves callers that sample several exponents; left out, one table is built,
    and built again longer only when a stage needs more rows.  Each (radius,
    angle) sample walks the orders of _LEVIN_ORDERS and is taken at the first
    order that agrees with the one before it to _LEVIN_AGREE.  In angle blocks of
    _BLOCK_ELEMS / 2 samples, a stage of _LEVIN_STAGES tabulates the rows its last
    order reads at the angles with an open sample, in set-up blocks of about
    _BLOCK_ELEMS terms, each summed at once into every order's weighted sums;
    each order then judges the open samples.  Row k of a table depends only on
    rows 0..k and all else is elementwise: no stage or block moves a bit.
    Returns (hi, lo) of the real (cosine) or imaginary part (sine), the accepted
    gap |L_K - L_K'| and order K, each shaped (radii, angles).  Raises
    DivergentSeriesError when some sample has no agreeing pair of orders, as near
    a branch point of (1 + w)**n, naming the grid's first, radius-major, by |phi|.
    """
    shape = (len(radii), len(phis))
    out_h, out_l, gap = (np.empty(shape[0] * shape[1]) for _ in range(3))
    order = np.zeros(out_h.size, dtype=int)  # 0 while a sample is open
    part = slice(2, 4) if kind is SeriesKind.SINE else slice(0, 2)  # (hi, lo) of sin or cos
    span = max(1, _BLOCK_ELEMS // (2 * shape[0]))  # angles per block: at most _BLOCK_ELEMS / 2 samples
    for cols in np.split(np.arange(shape[1]), range(span, shape[1], span)):
        prev = None  # the last order's values at the open samples, radius-major
        for stage in _LEVIN_STAGES:
            cols = cols[(order.reshape(shape)[:, cols] == 0).any(axis=0)]  # the angles with an open sample
            if not cols.size:
                break
            ids = (np.arange(shape[0])[:, None] * shape[1] + cols).ravel()  # their samples, radius-major
            rows = stage[-1] + 1
            if trig is None or len(trig[0]) < rows:  # a shorter table is the longer one's prefix
                trig = _dd_trig_table(phis, rows)
            # c_k r**k shaped (rows, radii, 1), times z**k: the complex terms a_k
            crh, crl = (c[..., None] for c in dd.mul(*(c[:, None] for c in _dd_coeff_arrays(n, rows)),
                                                     *_dd_power_arrays(radii, rows)))
            j1 = np.arange(1.0, rows + 1.0)[:, None, None]
            # per order: (hi, lo) of its weighted numerator and denominator parts, and max_j |s_j|
            sums = np.empty((len(stage), 2, 4, shape[0], cols.size))
            scale = np.empty((len(stage), shape[0], cols.size))
            width = -(-cols.size // max(1, round(rows * shape[0] * cols.size / _BLOCK_ELEMS)))
            for b in range(0, cols.size, width):
                ch, cl, sh, sl = (t[:rows, None, cols[b:b + width]] for t in trig)
                re, im = dd.mul(crh, crl, ch, cl), dd.mul(crh, crl, sh, sl)
                inv = dd.crecip(*dd.mul(*re, j1, 0.0), *dd.mul(*im, j1, 0.0))
                partial = (*_dd_scan_axis0(dd.add, *re), *_dd_scan_axis0(dd.add, *im))
                scale[..., b:b + width] = np.maximum.accumulate(np.hypot(partial[0], partial[2]))[list(stage)]
                terms = np.stack((*dd.cmul(*partial, *inv), *inv), axis=1)  # (rows, 8, radii, width)
                del re, im, inv, partial  # before the weighted rows are formed
                for i, K in enumerate(stage):
                    wh, wl = (w[:, None, None, None] for w in _LEVIN_WEIGHTS[K])
                    sums[i, 0, ..., b:b + width], sums[i, 1, ..., b:b + width] = _dd_reduce_axis0(*dd.mul(
                        wh, wl, terms[:K + 1, 0::2], terms[:K + 1, 1::2]))
            for i, K in enumerate(stage):
                open_ = np.flatnonzero(order[ids] == 0)
                if not open_.size:
                    break
                rh, rl = sums[i].reshape(2, 4, -1)[..., open_]
                value = dd.cmul(rh[0], rl[0], rh[1], rl[1], *dd.crecip(rh[2], rl[2], rh[3], rl[3]))
                if prev is not None:
                    diff = np.hypot(dd.add(*value[:2], -prev[0], -prev[1])[0],
                                    dd.add(*value[2:], -prev[2], -prev[3])[0])
                    ok = diff <= _LEVIN_AGREE * np.maximum(np.hypot(value[0], value[2]), scale[i].ravel()[open_])
                    done = ids[open_[ok]]
                    out_h[done], out_l[done] = (v[ok] for v in value[part])
                    gap[done] = diff[ok]
                    order[done] = K
                    value = tuple(v[~ok] for v in value)
                prev = value
    first = int(np.argmin(order))  # the first open sample of every block, radius-major
    if not order[first]:
        raise DivergentSeriesError(
            f"Levin orders up to {_LEVIN_ORDERS[-1]} do not agree for n={n} ({kind.value}, "
            f"|phi|={abs(float(phis[first % shape[1]]))}, r={float(radii[first // shape[1]])}): no Abel value")
    return tuple(a.reshape(shape) for a in (out_h, out_l, gap, order))


def abel_sum_grid(kind: SeriesKind, ns, phis, radii=None) -> dict[float, tuple[np.ndarray, np.ndarray, int]]:
    """Abel sums for several exponents over a shared angle grid.

    Levin samples in double-double, in angle blocks (see ``_levin_samples``),
    with one trig table and one Neville tableau shared across exponents and
    radii; this is the vectorized back end of ``evaluate_grid``.  Returns, per
    exponent, the array of values aligned with ``phis``, the per-angle
    residual estimates, and the largest Levin order or row length used.
    ``_settle`` judges every point: the points it settles take its value and
    stay out of the table, and one it refuses (a divergent point) refuses
    the whole grid.
    """
    kind = SeriesKind(kind)
    radii = _validate_radii(radii)
    phis = np.asarray(phis, dtype=float)
    settled = {n: [_settle(SeriesSpec(kind, n, phi), SummationMethod.ABEL)[1] for phi in phis.tolist()]
               for n in dict.fromkeys(ns)}

    # the rule leaves the same angles open for every exponent it does not settle
    open_ = np.array(sorted({i for rows in settled.values() for i, row in enumerate(rows)
                             if row is None}), dtype=int)
    if open_.size:
        # cos is even and sin is odd in phi, so tables are built on |phi|
        # and the sine columns get the sign back afterwards; the float
        # sequences are bit-identical to building each signed angle directly.
        uniq, inverse = np.unique(np.abs(phis[open_]), return_inverse=True)
        trig = _dd_trig_table(uniq, _LEVIN_ROWS)
        sign = np.sign(phis[open_]) if kind is SeriesKind.SINE else 1.0

    # one elementwise tableau on every open exponent's samples side by side
    sampled = {n: _levin_samples(kind, n, uniq, radii, trig) for n, rows in settled.items() if None in rows}
    if sampled:
        hi, lo, gap = (np.concatenate([s[i] for s in sampled.values()], axis=1) for i in range(3))
        value, residual = (a.reshape(len(sampled), -1)[:, inverse]
                           for a in _radial_limit(radii, hi, lo, gap.max(axis=0)))
        sampled = dict(zip(sampled, zip(value * sign, residual, [int(s[3].max()) for s in sampled.values()])))

    out: dict[float, tuple[np.ndarray, np.ndarray, int]] = {}
    for n, rows in settled.items():
        values, residuals, used = np.zeros(len(phis)), np.zeros(len(phis)), 0
        if n in sampled:
            values[open_], residuals[open_], used = sampled[n]
        for i, row in enumerate(rows):
            if row is not None:
                values[i], residuals[i] = row.value, row.residual_estimate
                used = max(used, row.terms_used)
        out[n] = (values, residuals, used)
    return out
