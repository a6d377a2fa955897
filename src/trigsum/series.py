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

# Most elements in one block of the Abel engine's trig table, coefficient
# scan or term products, or in one chunk of a term budget.  Larger blocks
# cost memory and, past about 2**13 elements, run the double-double
# kernels slower per element.
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


def _effective_terms(spec: SeriesSpec, terms: int) -> int:
    # all coefficients beyond k = n vanish exactly for nonnegative integer n
    if is_integer_exponent(spec.n) and spec.n >= 0:
        return min(terms, int(spec.n) + 1)
    return terms


def partial_sum(spec: SeriesSpec, terms: int) -> SummationResult:
    """Truncated sum of the first ``terms`` terms.

    The residual estimate is the magnitude of the last included term.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    count = _effective_terms(spec, terms)
    ts = (binom_scan(spec.n, count) * trig_values(spec.phi, count, spec.kind)).tolist()
    value = math.fsum(ts)
    residual = abs(ts[-1]) if count == terms else 0.0
    return SummationResult(value, SummationMethod.PARTIAL, count, residual, classify(spec))


def cesaro_sum(spec: SeriesSpec, terms: int) -> SummationResult:
    """(C,1) mean of the first ``terms`` partial sums.

    The partial sums are np.cumsum of the terms, which adds in index order.
    The residual estimate compares the means of the last two windows of
    ceil(terms/4) partial sums; it stays large when the means oscillate,
    which is the method's own signal that it has not settled.
    """
    if terms < 2:
        raise ValueError("terms must be >= 2")
    partials = np.cumsum(binom_scan(spec.n, terms) * trig_values(spec.phi, terms, spec.kind))
    value = math.fsum(partials.tolist()) / terms
    w = -(-terms // 4)  # ceil
    last = math.fsum(partials[-w:].tolist()) / w
    prev = partials[-2 * w:-w]
    residual = abs(last - math.fsum(prev.tolist()) / prev.size)
    return SummationResult(value, SummationMethod.CESARO, terms, residual, classify(spec))


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


def _abel_point_dd(kind: SeriesKind, n: float, phi: float, radii, counts):
    """Radial samples at one angle in double-double: (hi, lo) arrays, one entry per radius.

    The grid engine on a one-angle grid: the trig and coefficient tables
    are built once and shared by every radius.
    """
    Th, Tl = _dd_trig_table(np.array([phi]), max(counts), kind is SeriesKind.SINE)
    hi, lo = _dd_radial_samples(_dd_coeff_arrays(n, max(counts)), radii, counts, Th, Tl)
    return hi[:, 0], lo[:, 0]


def _extrapolate_radial(radii, f_hi, f_lo) -> tuple[float, float]:
    """Neville extrapolation of the samples to r -> 1, i.e. to x = 1-r = 0.

    Returns (value, |last correction|).  Runs in extended precision so the
    tableau arithmetic never limits the result.
    """
    with mp.workdps(50):
        xs = [mp.mpf(1) - mp.mpf(r) for r in radii]
        t = [mp.mpf(h) + mp.mpf(l) for h, l in zip(f_hi, f_lo)]
        top_prev = t[0]
        corr = mp.mpf(0)
        for lev in range(1, len(t)):
            for i in range(len(t) - lev):
                t[i] = (xs[i + lev] * t[i] - xs[i] * t[i + 1]) / (xs[i + lev] - xs[i])
            corr = t[0] - top_prev
            top_prev = t[0]
        return float(t[0]), abs(float(corr))


def abel_sum(spec: SeriesSpec, terms: int | None = None, radii=None) -> SummationResult:
    """Abel sum: radial samples extrapolated to the unit radius.

    ``radii`` must be strictly increasing inside (0, 1), at least three of
    them.  ``terms`` fixes the truncation per sample; by default each
    sample gets a budget that pushes the neglected tail far below the
    extrapolation error (always enough that r**terms < 1e-16).

    Exponents at or below -2 are summed in double-double arithmetic: close
    to the unit radius the terms dwarf their sum and plain doubles cannot
    cancel them accurately.

    Raises DivergentSeriesError when the series has no radial limit, or
    when a sample exceeds DIVERGENCE_THRESHOLD.
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
        counts = [terms] * len(radii)
    if conv is ConvergenceClass.FINITE:
        # a terminating row is its own Abel value: its sum at r = 1
        row = partial_sum(spec, int(spec.n) + 1)
        return SummationResult(row.value, SummationMethod.ABEL, row.terms_used, 0.0, conv)
    if terms is None:
        counts = [_abel_term_count(spec.n, r) for r in radii]
    if spec.n <= -2.0:
        hi, lo = _abel_point_dd(spec.kind, spec.n, spec.phi, radii, counts)
    else:
        hi = [_abel_point_f64(spec.kind, spec.n, spec.phi, r, count)
              for r, count in zip(radii, counts)]
        lo = [0.0] * len(radii)
    if max(abs(h) for h in hi) > DIVERGENCE_THRESHOLD:
        raise DivergentSeriesError("radial samples grow without bound")
    value, residual = _extrapolate_radial(radii, hi, lo)
    return SummationResult(value, SummationMethod.ABEL, max(counts), residual, conv)


def evaluate(spec: SeriesSpec, method: SummationMethod, terms: int | None = None,
             radii=None) -> SummationResult:
    """Sum ``spec`` by one of the ``SUMMATION_METHODS``.

    Partial and Cesaro sums default to PARTIAL_TERM_BUDGET terms; ``radii``
    only reaches Abel summation.  Cesaro means raise DivergentSeriesError
    for n <= -2.  The phase path reads the row off
    ``(1 + p)**n`` and raises DomainError unless n is an integer in 0..64.
    """
    method = SummationMethod(method)
    if method is SummationMethod.PARTIAL:
        return partial_sum(spec, terms or PARTIAL_TERM_BUDGET)
    if method is SummationMethod.CESARO:
        if spec.n <= -2.0:
            # the terms grow like k**(-n - 1), faster than (C,1) can average
            raise DivergentSeriesError(f"no first-order Cesaro mean for n={spec.n} <= -2")
        return cesaro_sum(spec, terms or PARTIAL_TERM_BUDGET)
    if method is SummationMethod.ABEL:
        return abel_sum(spec, terms=terms, radii=radii)
    if method is SummationMethod.PHASE:
        try:
            cos_sum, sin_sum = binomial_phase_power(spec.n, spec.phi)
        except ValueError as exc:
            raise DomainError(f"phase path needs integer n in 0..64: {exc}") from exc
        value = sin_sum if spec.kind is SeriesKind.SINE else cos_sum
        return SummationResult(value, method, int(spec.n) + 1, 0.0, classify(spec))
    raise ValueError(f"{method.value!r} is not a summation method")


# ----------------------------------------------------------------------
# Double-double Abel engine: one angle (abel_sum) or an angle grid (suites)
# ----------------------------------------------------------------------

def _dd_rotate(xh, xl, yh, yl, ch, cl, sh, sl):
    """(x + iy) * (c + is) with each part a double-double pair."""
    t1h, t1l = dd.mul(xh, xl, ch, cl)
    t2h, t2l = dd.mul(yh, yl, sh, sl)
    nyh, nyl = dd.add(*dd.mul(yh, yl, ch, cl), *dd.mul(xh, xl, sh, sl))
    nxh, nxl = dd.add(t1h, t1l, -t2h, -t2l)
    return nxh, nxl, nyh, nyl


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


def _dd_trig_table(phis: np.ndarray, count: int, want_sine: bool):
    """cos(k*phi), or sin(k*phi) when ``want_sine``, for k < count, double-double, per angle.

    z**k for z = exp(i*phi) is built by doubling, z**[L, 2L) = z**[0, L) * z**L,
    over a block of B rows, B the largest power of two that keeps a block
    within _BLOCK_ELEMS elements; each further block is the previous one
    times z**B.  Every z**L is read from mpmath, so errors add up only
    along the log2(B) doublings and the count/B block steps.  Only the
    requested part is stored.
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
        ext = _dd_rotate(*(a[:size] for a in block), *_dd_unit_power(phis, size))
        for a, e in zip(block, ext):
            a[size:2 * size] = e
        size *= 2
    zrows = _dd_unit_power(phis, rows)
    part = slice(2, 4) if want_sine else slice(0, 2)
    hi = np.empty((count, m))
    lo = np.empty((count, m))
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        hi[start:stop], lo[start:stop] = (a[:stop - start] for a in block[part])
        if stop < count:
            block = _dd_rotate(*block, *zrows)
    return hi, lo


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


def _dd_power_arrays(r: float, count: int):
    """r**k for k < count in double-double, by doubling: r**[L, 2L) = r**[0, L) * r**L."""
    hi = np.ones(count)
    lo = np.zeros(count)
    ph, pl = r, 0.0
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


def _dd_radial_samples(coeffs, radii, counts, Th, Tl):
    """sum_k c_k r**k T[k] per radius, in double-double, shape (radii, angles).

    ``coeffs`` is the (hi, lo) coefficient table, ``counts`` the truncation
    per radius and ``Th``, ``Tl`` the trig table.  The term products and
    their pairwise reduction run in row blocks of at most _BLOCK_ELEMS
    elements, and the block sums are added in double-double.
    """
    co_h, co_l = coeffs
    m = Th.shape[1]
    rows = max(1, _BLOCK_ELEMS // m)
    out_h = np.empty((len(counts), m))
    out_l = np.empty((len(counts), m))
    for j, (r, kr) in enumerate(zip(radii, counts)):
        wh, wl = dd.mul(co_h[:kr], co_l[:kr], *_dd_power_arrays(r, kr))
        acc_h, acc_l = np.zeros(m), np.zeros(m)
        for start in range(0, kr, rows):
            blk = slice(start, min(start + rows, kr))
            th, tl = dd.mul(wh[blk, None], wl[blk, None], Th[blk], Tl[blk])
            acc_h, acc_l = dd.add(acc_h, acc_l, *_dd_reduce_axis0(th, tl))
        out_h[j], out_l[j] = acc_h, acc_l
    return out_h, out_l


def abel_sum_grid(kind: SeriesKind, ns, phis, radii=None) -> dict[float, tuple[np.ndarray, np.ndarray, int]]:
    """Abel sums for several exponents over a shared angle grid.

    Double-double throughout, with trig tables shared across exponents and
    radii; this is the vectorized back end the verification suites use.
    Returns, per exponent, the array of values aligned with ``phis``, the
    per-angle residual estimates, and the largest truncation used.

    Every (n, phi) pair must be summable: grid points where the series
    diverges are the caller's job to exclude.
    """
    kind = SeriesKind(kind)
    radii = _validate_radii(DEFAULT_ABEL_RADII if radii is None else radii)
    phis = np.asarray(phis, dtype=float)
    ns = list(ns)
    for n in ns:
        for phi in phis:
            spec = SeriesSpec(kind, n, float(phi))
            if classify(spec) is ConvergenceClass.DIVERGENT:
                raise DivergentSeriesError(f"grid contains a divergent point: n={n} phi={phi}")

    counts = {(n, r): _abel_term_count(n, r) for n in ns for r in radii}
    kmax = max(counts.values())

    # cos is even and sin is odd in phi, so tables are built on |phi| and
    # the sine columns get the sign back afterwards; the float sequences
    # are bit-identical to building each signed angle directly.
    aphi = np.abs(phis)
    uniq, inverse = np.unique(aphi, return_inverse=True)
    want_sine = kind is SeriesKind.SINE
    Th, Tl = _dd_trig_table(uniq, kmax, want_sine)

    out: dict[float, tuple[np.ndarray, np.ndarray, int]] = {}
    for n in ns:
        kr = [counts[(n, r)] for r in radii]
        sample_h, sample_l = _dd_radial_samples(_dd_coeff_arrays(n, max(kr)), radii, kr, Th, Tl)
        if np.abs(sample_h).max() > DIVERGENCE_THRESHOLD:
            raise DivergentSeriesError("radial samples grow without bound")
        values = np.empty(len(uniq))
        residuals = np.empty(len(uniq))
        for i in range(len(uniq)):
            values[i], residuals[i] = _extrapolate_radial(radii, sample_h[:, i], sample_l[:, i])
        values = values[inverse]
        residuals = residuals[inverse]
        if want_sine:
            values = values * np.sign(phis)
        out[n] = (values, residuals, max(kr))
    return out
