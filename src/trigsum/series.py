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

``evaluate`` dispatches one ``SummationMethod`` to these three or to the
conjugate phase path of ``phase``.  All of them serve as summation
oracles, deliberately independent of the product closed forms they are
checked against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import dd
from .binom import binom_scan, is_integer_exponent
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

# Largest automatic Abel term budget before a radius counts as too close to 1.
_MAX_ABEL_TERMS = 5_000_000

# Most elements in one block of the Abel engine's trig table or coefficient
# scan, or in one chunk of a term budget.  Larger blocks cost memory and,
# past about 2**13 elements, run the double-double kernels slower per element.
_BLOCK_ELEMS = 2 ** 12


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


def trig_values(phi: float, count: int, kind: SeriesKind) -> np.ndarray:
    """cos(k*phi) or sin(k*phi) for k = 0..count-1, as a float64 array.

    np.multiply.accumulate of z = cos(phi) + i sin(phi) takes the coupled
    angle-addition step (one rotation per index, in index order), which
    keeps the absolute error near machine precision uniformly in phi; the
    value at k carries roughly k rounding errors that average out instead
    of being amplified near phi = 0 or pi.
    """
    kind = SeriesKind(kind)
    steps = np.full(count, complex(math.cos(phi), math.sin(phi)))
    steps[:1] = 1.0
    rot = np.multiply.accumulate(steps)
    return rot.imag if kind is SeriesKind.SINE else rot.real


def _row_value(spec: SeriesSpec, conv: ConvergenceClass,
               method: SummationMethod) -> SummationResult | None:
    """What a row sums to by ``method`` without summing it, or None.

    A zero row (see ``_zero_row``) is 0, with residual 0 and no terms.  A
    terminating row has constant partial sums from k = n on, so its Cesaro
    mean and Abel value are its (n+1)-term sum with residual 0 (Hardy,
    Divergent Series: regularity); partial sums still truncate it.
    """
    if _zero_row(spec, conv):
        return SummationResult(0.0, method, 0, 0.0, conv)
    if conv is ConvergenceClass.FINITE and method is not SummationMethod.PARTIAL:
        row = partial_sum(spec, int(spec.n) + 1)
        return SummationResult(row.value, method, row.terms_used, 0.0, conv)
    return None


def partial_sum(spec: SeriesSpec, terms: int) -> SummationResult:
    """Truncated sum of the first ``terms`` terms.

    The residual estimate is the magnitude of the last included term; a
    row ``_row_value`` settles is not summed.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    conv = classify(spec)
    if (row := _row_value(spec, conv, SummationMethod.PARTIAL)) is not None:
        return row
    # all coefficients beyond k = n vanish exactly for a terminating row
    count = min(terms, int(spec.n) + 1) if conv is ConvergenceClass.FINITE else terms
    ts = (binom_scan(spec.n, count) * trig_values(spec.phi, count, spec.kind)).tolist()
    value = math.fsum(ts)
    residual = abs(ts[-1]) if count == terms else 0.0
    return SummationResult(value, SummationMethod.PARTIAL, count, residual, conv)


def cesaro_sum(spec: SeriesSpec, terms: int) -> SummationResult:
    """(C,1) mean of the first ``terms`` partial sums.

    The partial sums are np.cumsum of the terms, which adds in index order.
    The residual estimate compares the means of the last two windows of
    ceil(terms/4) partial sums; it stays large when the means oscillate,
    which is the method's own signal that it has not settled.  A row
    ``_row_value`` settles is not summed.
    """
    if terms < 2:
        raise ValueError("terms must be >= 2")
    conv = classify(spec)
    if (row := _row_value(spec, conv, SummationMethod.CESARO)) is not None:
        return row
    partials = np.cumsum(binom_scan(spec.n, terms) * trig_values(spec.phi, terms, spec.kind))
    value = math.fsum(partials.tolist()) / terms
    w = -(-terms // 4)  # ceil
    last = math.fsum(partials[-w:].tolist()) / w
    prev = partials[-2 * w:-w]
    residual = abs(last - math.fsum(prev.tolist()) / prev.size)
    return SummationResult(value, SummationMethod.CESARO, terms, residual, conv)


# ----------------------------------------------------------------------
# Abel summation
# ----------------------------------------------------------------------

def _validate_radii(radii) -> tuple[float, ...]:
    radii = tuple(float(r) for r in radii)
    if len(radii) < 3:
        raise ValueError("need at least 3 radii")
    for r in radii:
        if not 0.0 < r < 1.0:
            raise ValueError(f"radius {r!r} outside (0, 1)")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    return radii


def abel_terms_needed(radii) -> int:
    """Smallest truncation satisfying r**terms < 1e-16 at the largest radius."""
    r = max(radii)
    return int(math.ceil(math.log(1e-16) / math.log(r))) + 1


def _abel_term_count(n: float, r: float) -> int:
    """Truncation making |gen_binom(n, k) * r**k| fall below the tail cutoff.

    log|gen_binom(n, k)| is a running sum of log|n - j| - log(j + 1), taken
    by np.cumsum over chunks of _BLOCK_ELEMS indices; cumsum adds in index
    order, so it is the same running sum a loop over k forms.
    """
    logr = math.log(r)
    kmin = abel_terms_needed((r,))
    nf = float(n)
    # a nonnegative integer exponent terminates: gen_binom(n, n + 1) == 0
    last = _MAX_ABEL_TERMS
    if is_integer_exponent(nf) and nf >= 0:
        last = min(int(nf), last)
    lc = 0.0  # log |gen_binom(n, start - 1)|
    start = 1
    while start <= last:
        k = np.arange(start, min(start + _BLOCK_ELEMS, last + 1), dtype=float)
        steps = np.log(np.abs(nf - (k - 1.0))) - np.log(k)
        steps[0] += lc
        logc = np.cumsum(steps)
        (hit,) = np.nonzero((k >= kmin) & (logc + k * logr < _ABEL_CUT_LOG))
        if hit.size:
            return int(k[hit[0]]) + 1
        lc = float(logc[-1])
        start += k.size
    if last < _MAX_ABEL_TERMS:
        return last + 1  # terminating series
    raise ValueError(f"radius {r!r} too close to 1 for a feasible term budget")


def _abel_point_f64(kind: SeriesKind, n: float, phi: float, r: float, count: int) -> float:
    """One radial sample in plain doubles, summed exactly rounded by math.fsum.

    The coefficient and rotation scans are the ones partial sums use; the
    powers r**k are an np.cumprod of r, which multiplies in index order.
    """
    rk = np.cumprod(np.concatenate(([1.0], np.full(count - 1, r))))
    return math.fsum((binom_scan(n, count) * rk * trig_values(phi, count, kind)).tolist())


def _abel_point_dd(kind: SeriesKind, n: float, phi: float, radii):
    """Levin radial samples at one angle: the grid engine on a one-angle grid.

    Returns the samples as lists of (hi, lo) floats per radius, the largest
    accepted Levin gap and the largest Levin order used.
    """
    hi, lo, gap, order = _levin_samples(kind, n, _dd_trig_table(np.array([phi]), _LEVIN_ROWS), radii)
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
    top = t[0]
    corr = 0.0
    for lev in range(1, len(t)):
        for i in range(len(t) - lev):
            ah, al = dd.mul(*xs[i + lev], *t[i])
            bh, bl = dd.mul(*xs[i], *t[i + 1])
            t[i] = dd.div(*dd.add(ah, al, -bh, -bl), *dd.two_sum(radii[i], -radii[i + lev]))
        corr = dd.add(*t[0], -top[0], -top[1])[0]
        top = t[0]
    return t[0][0], abs(corr)


def abel_sum(spec: SeriesSpec, terms: int | None = None, radii=None) -> SummationResult:
    """Abel sum: radial samples extrapolated to the unit radius.

    ``radii`` must be strictly increasing inside (0, 1), at least three of
    them.  ``terms`` fixes a plain truncation per sample (enough that
    r**terms < 1e-16), summed in double-double.  By default exponents above
    -2 sum each sample in plain doubles up to a term budget that pushes the
    neglected tail far below the extrapolation error, and exponents at or
    below -2 take Levin samples in double-double (see ``_levin_samples``):
    close to the unit radius the terms dwarf their sum and plain doubles
    cannot cancel them accurately.  A row ``_row_value`` settles is not
    summed.

    Raises DivergentSeriesError when the series has no radial limit, when
    the Levin orders do not settle, or when a sample exceeds
    DIVERGENCE_THRESHOLD.
    """
    radii = _validate_radii(DEFAULT_ABEL_RADII if radii is None else radii)
    conv = classify(spec)
    if conv is ConvergenceClass.DIVERGENT:
        raise DivergentSeriesError(
            f"no Abel value for kind={spec.kind.value} n={spec.n} at phi={spec.phi}")
    if terms is not None:
        if terms < 1:
            raise ValueError("terms must be >= 1")
        if max(radii) ** terms >= 1e-16:
            raise ValueError("terms too small: need r**terms < 1e-16 at the largest radius")
    if (row := _row_value(spec, conv, SummationMethod.ABEL)) is not None:
        return row
    gap = 0.0
    if terms is not None:
        # c_k trig(k phi) once, then r**k per radius
        trig = _dd_trig_table(np.array([spec.phi]), terms)[_part(spec.kind)]
        wh, wl = dd.mul(*_dd_coeff_arrays(spec.n, terms), *(t[:, 0] for t in trig))
        del trig  # free the table before the per-radius products
        samples = [_dd_reduce_axis0(*dd.mul(wh, wl, *_dd_power_arrays(r, terms))) for r in radii]
        hi, lo = ([float(s[i]) for s in samples] for i in (0, 1))
        used = terms
    elif spec.n > -2.0:
        counts = [_abel_term_count(spec.n, r) for r in radii]
        hi = [_abel_point_f64(spec.kind, spec.n, spec.phi, r, count)
              for r, count in zip(radii, counts)]
        lo = [0.0] * len(radii)
        used = max(counts)
    else:
        hi, lo, gap, used = _abel_point_dd(spec.kind, spec.n, spec.phi, radii)
    if max(abs(h) for h in hi) > DIVERGENCE_THRESHOLD:
        raise DivergentSeriesError("radial samples grow without bound")
    value, correction = _extrapolate_radial(radii, hi, lo)
    residual = correction + gap * _neville_amplification(radii)
    return SummationResult(value, SummationMethod.ABEL, used, residual, conv)


def evaluate(spec: SeriesSpec, method: SummationMethod, terms: int | None = None,
             radii=None) -> SummationResult:
    """Sum ``spec`` by one of the ``SUMMATION_METHODS``.

    Partial and Cesaro sums default to PARTIAL_TERM_BUDGET terms; ``radii``
    only reaches Abel summation.  Partial sums raise DivergentSeriesError
    on a summable-only or divergent series, Cesaro means on a divergent one
    or for n <= -2 unless it is a zero row.  The phase path reads the row off
    ``(1 + p)**n`` and raises DomainError unless n is an integer in 0..64.
    """
    method = SummationMethod(method)
    conv = classify(spec)
    if method is SummationMethod.PARTIAL:
        if conv in (ConvergenceClass.SUMMABLE_ONLY, ConvergenceClass.DIVERGENT):
            raise DivergentSeriesError(f"partial sums do not settle for a {conv.value} series")
        return partial_sum(spec, PARTIAL_TERM_BUDGET if terms is None else terms)
    if method is SummationMethod.CESARO:
        if conv is ConvergenceClass.DIVERGENT or (spec.n <= -2.0 and not _zero_row(spec, conv)):
            # at the half-turn with n < 0 the terms keep one sign; for
            # n <= -2 they grow like k**(-n - 1): (C,1) cannot average either
            raise DivergentSeriesError(f"no first-order Cesaro mean for a {conv.value} series"
                                       f" with n={spec.n}")
        return cesaro_sum(spec, PARTIAL_TERM_BUDGET if terms is None else terms)
    if method is SummationMethod.ABEL:
        return abel_sum(spec, terms=terms, radii=radii)
    if method is SummationMethod.PHASE:
        try:
            cos_sum, sin_sum = binomial_phase_power(spec.n, spec.phi)
        except ValueError as exc:
            raise DomainError(f"phase path needs integer n in 0..64: {exc}") from exc
        value = sin_sum if spec.kind is SeriesKind.SINE else cos_sum
        return SummationResult(value, method, int(spec.n) + 1, 0.0, conv)
    raise ValueError(f"{method.value!r} is not a summation method")


# ----------------------------------------------------------------------
# Double-double Abel engine: one angle (abel_sum) or an angle grid (suites)
# ----------------------------------------------------------------------

def _dd_unit_power(phis, k: int):
    """cos(k*phi) and sin(k*phi) per angle as double-double (hi, lo, hi, lo) arrays.

    Taken from 40-digit mpmath values, where k*phi is exact, and rounded
    once to double-double.
    """
    out = np.empty((4, len(phis)))
    with mp.workdps(40):
        for i, phi in enumerate(phis):
            for j, v in enumerate(mp.cos_sin(mp.mpf(phi) * k)):
                out[2 * j, i] = hi = float(v)
                out[2 * j + 1, i] = float(v - mp.mpf(hi))
    return tuple(out)


def _dd_trig_table(phis: np.ndarray, count: int):
    """cos(k*phi) and sin(k*phi) for k < count, double-double, per angle.

    Returns (cos hi, cos lo, sin hi, sin lo), each shaped (count, angles).
    z**k for z = exp(i*phi) is built by doubling, z**[L, 2L) = z**[0, L) * z**L,
    over a block of B rows, B the largest power of two that keeps a block
    within _BLOCK_ELEMS elements; each further block is the previous one
    times z**B.  Every z**L is read from mpmath, so errors add up only
    along the log2(B) doublings and the count/B block steps.
    """
    phis = phis.tolist()
    m = len(phis)
    rows = 1
    while rows < count and 2 * rows * m <= _BLOCK_ELEMS:
        rows *= 2
    block = tuple(np.zeros((rows, m)) for _ in range(4))
    block[0][0] = 1.0
    size = 1
    while size < rows:
        ext = dd.cmul(*(a[:size] for a in block), *_dd_unit_power(phis, size))
        for a, e in zip(block, ext):
            a[size:2 * size] = e
        size *= 2
    zrows = _dd_unit_power(phis, rows)
    table = tuple(np.empty((count, m)) for _ in range(4))
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        for t, a in zip(table, block):
            t[start:stop] = a[:stop - start]
        if stop < count:
            block = dd.cmul(*block, *zrows)
    return table


def _part(kind: SeriesKind) -> slice:
    """The (hi, lo) pair of a _dd_trig_table result that ``kind`` sums."""
    return slice(2, 4) if kind is SeriesKind.SINE else slice(0, 2)


def _dd_coeff_arrays(n: float, count: int):
    """gen_binom(n, k) for k < count in double-double.

    A prefix-product scan of f_k = (n - k) / (k + 1), with n - k an exact
    double-double difference: within each block of _BLOCK_ELEMS factors
    log2(block) passes multiply every element by the one ``shift`` places
    back, and the block's products are then scaled by the coefficient the
    block starts from.
    """
    hi = np.ones(count)
    lo = np.zeros(count)
    for start in range(0, count - 1, _BLOCK_ELEMS):
        k = np.arange(start, min(start + _BLOCK_ELEMS, count - 1), dtype=float)
        ph, pl = dd.div(*dd.add(n, 0.0, -k, 0.0), k + 1.0, 0.0)
        shift = 1
        while shift < k.size:
            ph[shift:], pl[shift:] = dd.mul(ph[shift:], pl[shift:], ph[:-shift], pl[:-shift])
            shift *= 2
        block = slice(start + 1, start + 1 + k.size)
        hi[block], lo[block] = dd.mul(ph, pl, hi[start], lo[start])
    return hi, lo


def _dd_power_arrays(r, count: int):
    """r**k for k < count in double-double, by doubling: r**[L, 2L) = r**[0, L) * r**L.

    ``r`` is one radius, giving arrays of ``count`` entries, or an array of
    radii, giving arrays shaped (count, radii).
    """
    r = np.asarray(r, dtype=float)
    hi = np.ones((count,) + r.shape)
    lo = np.zeros_like(hi)
    ph, pl = r, np.zeros_like(r)
    size = 1
    while size < count:
        step = min(size, count - size)
        hi[size:size + step], lo[size:size + step] = dd.mul(hi[:step], lo[:step], ph, pl)
        ph, pl = dd.mul(ph, pl, ph, pl)
        size += step
    return hi, lo


def _dd_reduce_axis0(th: np.ndarray, tl: np.ndarray):
    while th.shape[0] > 1:
        half = th.shape[0] // 2
        sh, sl = dd.add(th[:half], tl[:half], th[half:2 * half], tl[half:2 * half])
        if th.shape[0] % 2:
            sh = np.concatenate([sh, th[-1:]], axis=0)
            sl = np.concatenate([sl, tl[-1:]], axis=0)
        th, tl = sh, sl
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


def _dd_scan_axis0(h: np.ndarray, l: np.ndarray):
    """Running double-double sums along axis 0, in place, by log2(rows) doubling passes."""
    shift = 1
    while shift < h.shape[0]:
        h[shift:], l[shift:] = dd.add(h[shift:], l[shift:], h[:-shift], l[:-shift])
        shift *= 2
    return h, l


def _levin_samples(kind: SeriesKind, n: float, trig, radii):
    """Abel radial samples of the complex series by Levin's u transform.

    ``trig`` is a _dd_trig_table of at least _LEVIN_ROWS rows.  Each
    (radius, angle) sample walks the orders of _LEVIN_ORDERS and is taken
    at the first order that agrees with the one before it to _LEVIN_AGREE.
    Returns the real part (cosine) or imaginary part (sine) as (hi, lo),
    the accepted gap |L_K - L_K'| and the accepted order K, each shaped
    (radii, angles).  Raises DivergentSeriesError when some sample has no
    agreeing pair of orders, as near a branch point of (1 + w)**n.
    """
    rows = _LEVIN_ROWS
    ch, cl, sh, sl = (t[:rows, None, :] for t in trig)
    # c_k r**k shaped (rows, radii, 1), times z**k: the complex terms a_k
    crh, crl = dd.mul(*(c[:, None] for c in _dd_coeff_arrays(n, rows)),
                      *_dd_power_arrays(radii, rows))
    crh, crl = crh[..., None], crl[..., None]
    re, im = dd.mul(crh, crl, ch, cl), dd.mul(crh, crl, sh, sl)
    j1 = np.arange(1.0, rows + 1.0)[:, None, None]
    inv = dd.crecip(*dd.mul(*re, j1, 0.0), *dd.mul(*im, j1, 0.0))
    sums = (*_dd_scan_axis0(*re), *_dd_scan_axis0(*im))
    scale = np.maximum.accumulate(np.hypot(sums[0], sums[2]), axis=0)
    quot = dd.cmul(*sums, *inv)
    # numerator and denominator parts stacked on axis 1, samples flattened
    # on axis 2: (rows, 4, radii * angles)
    shape = scale.shape[1:]
    stack_h = np.stack([quot[0], quot[2], inv[0], inv[2]], axis=1).reshape(rows, 4, -1)
    stack_l = np.stack([quot[1], quot[3], inv[1], inv[3]], axis=1).reshape(rows, 4, -1)
    scale = scale.reshape(rows, -1)

    out_h, out_l, gap = (np.empty(scale.shape[1]) for _ in range(3))
    order = np.zeros(scale.shape[1], dtype=int)
    part = _part(kind)
    todo = np.arange(scale.shape[1])  # samples not yet accepted
    prev = None
    for K in _LEVIN_ORDERS:
        wh, wl = (w[:, None, None] for w in _LEVIN_WEIGHTS[K])
        rh, rl = _dd_reduce_axis0(*dd.mul(wh, wl, stack_h[:K + 1, :, todo], stack_l[:K + 1, :, todo]))
        value = dd.cmul(rh[0], rl[0], rh[1], rl[1], *dd.crecip(rh[2], rl[2], rh[3], rl[3]))
        if prev is not None:
            diff = np.hypot(dd.add(*value[:2], -prev[0], -prev[1])[0],
                            dd.add(*value[2:], -prev[2], -prev[3])[0])
            ok = diff <= _LEVIN_AGREE * np.maximum(np.hypot(value[0], value[2]), scale[K, todo])
            done = todo[ok]
            out_h[done], out_l[done] = (v[ok] for v in value[part])
            gap[done] = diff[ok]
            order[done] = K
            todo = todo[~ok]
            if not todo.size:
                return tuple(a.reshape(shape) for a in (out_h, out_l, gap, order))
            value = tuple(v[~ok] for v in value)
        prev = value
    raise DivergentSeriesError(
        f"Levin orders up to {_LEVIN_ORDERS[-1]} do not agree for n={n}: no Abel value")


def abel_sum_grid(kind: SeriesKind, ns, phis, radii=None) -> dict[float, tuple[np.ndarray, np.ndarray, int]]:
    """Abel sums for several exponents over a shared angle grid.

    Levin samples in double-double (see ``_levin_samples``), with one trig
    table shared across exponents and radii; this is the vectorized back
    end the verification suites use.  Returns, per exponent, the array of
    values aligned with ``phis``, the per-angle residual estimates, and
    the largest Levin order or row length used.  The points ``_row_value``
    settles take its value and stay out of the table.

    Every (n, phi) pair must be summable: grid points where the series
    diverges are the caller's job to exclude.
    """
    kind = SeriesKind(kind)
    radii = _validate_radii(DEFAULT_ABEL_RADII if radii is None else radii)
    phis = np.asarray(phis, dtype=float)
    settled: dict[float, list[SummationResult | None]] = {n: [] for n in ns}
    for n, rows in settled.items():
        for phi in phis.tolist():
            spec = SeriesSpec(kind, n, phi)
            if (conv := classify(spec)) is ConvergenceClass.DIVERGENT:
                raise DivergentSeriesError(f"grid contains a divergent point: n={n} phi={phi}")
            rows.append(_row_value(spec, conv, SummationMethod.ABEL))

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
        amplification = _neville_amplification(radii)

    out: dict[float, tuple[np.ndarray, np.ndarray, int]] = {}
    for n, rows in settled.items():
        values, residuals, used = np.zeros(len(phis)), np.zeros(len(phis)), 0
        if None in rows:
            sample_h, sample_l, gap, order = _levin_samples(kind, n, trig, radii)
            if np.abs(sample_h).max() > DIVERGENCE_THRESHOLD:
                raise DivergentSeriesError("radial samples grow without bound")
            v, corrections = _extrapolate_radial(radii, sample_h, sample_l)
            values[open_] = v[inverse] * sign
            residuals[open_] = (corrections + gap.max(axis=0) * amplification)[inverse]
            used = int(order.max())
        for i, row in enumerate(rows):
            if row is not None:
                values[i], residuals[i] = row.value, row.residual_estimate
                used = max(used, row.terms_used)
        out[n] = (values, residuals, used)
    return out
