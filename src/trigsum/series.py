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
from itertools import accumulate

import mpmath as mp
import numpy as np

from . import dd
from .binom import binom_prefix, is_integer_exponent
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


def trig_values(phi: float, count: int, kind: SeriesKind) -> list[float]:
    """cos(k*phi) or sin(k*phi) for k = 0..count-1.

    Uses the coupled angle-addition recurrence (one rotation per step),
    which keeps the absolute error near machine precision uniformly in
    phi; the value at k carries roughly k rounding errors that average
    out instead of being amplified near phi = 0 or pi.
    """
    kind = SeriesKind(kind)
    cphi, sphi = math.cos(phi), math.sin(phi)
    x, y = 1.0, 0.0
    out = []
    want_cos = kind is SeriesKind.COSINE
    for _ in range(count):
        out.append(x if want_cos else y)
        x, y = x * cphi - y * sphi, y * cphi + x * sphi
    return out


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
    coeffs = binom_prefix(spec.n, count)
    trig = trig_values(spec.phi, count, spec.kind)
    ts = [c * t for c, t in zip(coeffs, trig)]
    value = math.fsum(ts)
    residual = abs(ts[-1]) if count == terms else 0.0
    return SummationResult(value, SummationMethod.PARTIAL, count, residual, classify(spec))


def cesaro_sum(spec: SeriesSpec, terms: int) -> SummationResult:
    """(C,1) mean of the first ``terms`` partial sums.

    The residual estimate compares the means of the last two windows of
    ceil(terms/4) partial sums; it stays large when the means oscillate,
    which is the method's own signal that it has not settled.
    """
    if terms < 2:
        raise ValueError("terms must be >= 2")
    coeffs = binom_prefix(spec.n, terms)
    trig = trig_values(spec.phi, terms, spec.kind)
    ts = [c * t for c, t in zip(coeffs, trig)]
    partials = list(accumulate(ts))
    value = math.fsum(partials) / terms
    w = -(-terms // 4)  # ceil
    last = math.fsum(partials[-w:]) / w
    prev = math.fsum(partials[-2 * w:-w]) / len(partials[-2 * w:-w])
    residual = abs(last - prev)
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
    """Truncation making |gen_binom(n, k) * r**k| fall below the tail cutoff."""
    logr = math.log(r)
    kmin = abel_terms_needed((r,))
    nf = float(n)
    lc = 0.0  # log |gen_binom(n, k)|
    k = 0
    while True:
        a = nf - k
        k += 1
        if a == 0.0:
            return k  # terminating series
        lc += math.log(abs(a)) - math.log(k)
        if k >= kmin and lc + k * logr < _ABEL_CUT_LOG:
            return k + 1
        if k > 5_000_000:
            raise ValueError(f"radius {r!r} too close to 1 for a feasible term budget")


def _dd_from_mpf(x) -> tuple[float, float]:
    hi = float(x)
    lo = float(x - mp.mpf(hi))
    return hi, lo


def _dd_phase_seed(phi: float) -> tuple[float, float, float, float]:
    with mp.workdps(40):
        p = mp.mpf(phi)
        ch, cl = _dd_from_mpf(mp.cos(p))
        sh, sl = _dd_from_mpf(mp.sin(p))
    return ch, cl, sh, sl


def _abel_point_f64(kind: SeriesKind, n: float, phi: float, r: float, count: int) -> float:
    """One radial sample in plain doubles with Neumaier compensation."""
    cphi, sphi = math.cos(phi), math.sin(phi)
    x, y = 1.0, 0.0
    co = 1.0
    rk = 1.0
    acc = 0.0
    comp = 0.0
    want_cos = kind is SeriesKind.COSINE
    for k in range(count):
        t = co * rk * (x if want_cos else y)
        s = acc + t
        if abs(acc) >= abs(t):
            comp += (acc - s) + t
        else:
            comp += (t - s) + acc
        acc = s
        x, y = x * cphi - y * sphi, y * cphi + x * sphi
        co *= (n - k) / (k + 1)
        rk *= r
    return acc + comp


def _abel_point_dd(kind: SeriesKind, n: float, phi: float, r: float, count: int) -> tuple[float, float]:
    """One radial sample in double-double arithmetic (streaming)."""
    ch, cl, sh, sl = _dd_phase_seed(phi)
    xh, xl, yh, yl = 1.0, 0.0, 0.0, 0.0
    rh, rl = 1.0, 0.0
    ah, al = 0.0, 0.0
    want_cos = kind is SeriesKind.COSINE
    integer_n = is_integer_exponent(n)
    ci = 1  # exact integer coefficient when integer_n
    coh, col = 1.0, 0.0
    for k in range(count):
        if integer_n:
            coh, col = dd.from_int(ci)
        wh, wl = dd.mul(coh, col, rh, rl)
        if want_cos:
            th, tl = dd.mul(wh, wl, xh, xl)
        else:
            th, tl = dd.mul(wh, wl, yh, yl)
        ah, al = dd.add(ah, al, th, tl)
        # advance rotation, coefficient, power
        t1h, t1l = dd.mul(xh, xl, ch, cl)
        t2h, t2l = dd.mul(yh, yl, sh, sl)
        nyh, nyl = dd.add(*dd.mul(yh, yl, ch, cl), *dd.mul(xh, xl, sh, sl))
        xh, xl = dd.add(t1h, t1l, -t2h, -t2l)
        yh, yl = nyh, nyl
        if integer_n:
            ci = ci * (int(n) - k) // (k + 1)
        else:
            fh, fl = dd.add(n, 0.0, -float(k), 0.0)
            coh, col = dd.mul(coh, col, fh, fl)
            coh, col = dd.div(coh, col, float(k + 1), 0.0)
        rh, rl = dd.mul(rh, rl, r, 0.0)
    return ah, al


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
    else:
        counts = [_abel_term_count(spec.n, r) for r in radii]
    use_dd = spec.n <= -2.0
    hi: list[float] = []
    lo: list[float] = []
    for r, count in zip(radii, counts):
        if use_dd:
            fh, fl = _abel_point_dd(spec.kind, spec.n, spec.phi, r, count)
        else:
            fh, fl = _abel_point_f64(spec.kind, spec.n, spec.phi, r, count), 0.0
        if abs(fh) > DIVERGENCE_THRESHOLD:
            raise DivergentSeriesError("radial samples grow without bound")
        hi.append(fh)
        lo.append(fl)
    value, residual = _extrapolate_radial(radii, hi, lo)
    return SummationResult(value, SummationMethod.ABEL, max(counts), residual, conv)


def evaluate(spec: SeriesSpec, method: SummationMethod, terms: int | None = None,
             radii=None) -> SummationResult:
    """Sum ``spec`` by one of the ``SUMMATION_METHODS``.

    Partial and Cesaro sums default to PARTIAL_TERM_BUDGET terms; ``radii``
    only reaches Abel summation.  The phase path reads the row off
    ``(1 + p)**n`` and raises DomainError unless n is an integer in 0..64.
    """
    method = SummationMethod(method)
    if method is SummationMethod.PARTIAL:
        return partial_sum(spec, terms or PARTIAL_TERM_BUDGET)
    if method is SummationMethod.CESARO:
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
# Batched Abel evaluation over an angle grid (suite back end)
# ----------------------------------------------------------------------

def _dd_trig_table(phis: np.ndarray, count: int, want_sine: bool):
    """cos(k*phi) (and optionally sin) for k < count, double-double, per angle."""
    seeds = [_dd_phase_seed(p) for p in phis.tolist()]
    ch = np.array([s[0] for s in seeds])
    cl = np.array([s[1] for s in seeds])
    sh = np.array([s[2] for s in seeds])
    sl = np.array([s[3] for s in seeds])
    m = len(phis)
    Ch = np.empty((count, m))
    Cl = np.empty((count, m))
    Sh = np.empty((count, m)) if want_sine else None
    Sl = np.empty((count, m)) if want_sine else None
    xh = np.ones(m)
    xl = np.zeros(m)
    yh = np.zeros(m)
    yl = np.zeros(m)
    for k in range(count):
        Ch[k] = xh
        Cl[k] = xl
        if want_sine:
            Sh[k] = yh
            Sl[k] = yl
        t1h, t1l = dd.mul(xh, xl, ch, cl)
        t2h, t2l = dd.mul(yh, yl, sh, sl)
        nyh, nyl = dd.add(*dd.mul(yh, yl, ch, cl), *dd.mul(xh, xl, sh, sl))
        xh, xl = dd.add(t1h, t1l, -t2h, -t2l)
        yh, yl = nyh, nyl
    return Ch, Cl, Sh, Sl


def _dd_coeff_arrays(n: float, count: int):
    hi = np.empty(count)
    lo = np.empty(count)
    if is_integer_exponent(n):
        ci = 1
        ni = int(n)
        for k in range(count):
            hi[k], lo[k] = dd.from_int(ci)
            ci = ci * (ni - k) // (k + 1)
    else:
        ch, cl = 1.0, 0.0
        for k in range(count):
            hi[k], lo[k] = ch, cl
            fh, fl = dd.add(n, 0.0, -float(k), 0.0)
            ch, cl = dd.mul(ch, cl, fh, fl)
            ch, cl = dd.div(ch, cl, float(k + 1), 0.0)
    return hi, lo


def _dd_power_arrays(r: float, count: int):
    hi = np.empty(count)
    lo = np.empty(count)
    ph, pl = 1.0, 0.0
    for k in range(count):
        hi[k], lo[k] = ph, pl
        ph, pl = dd.mul(ph, pl, r, 0.0)
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
    Ch, Cl, Sh, Sl = _dd_trig_table(uniq, kmax, want_sine)
    Th, Tl = (Sh, Sl) if want_sine else (Ch, Cl)

    powers = {r: _dd_power_arrays(r, kmax) for r in radii}
    out: dict[float, tuple[np.ndarray, np.ndarray, int]] = {}
    for n in ns:
        kn = max(counts[(n, r)] for r in radii)
        co_h, co_l = _dd_coeff_arrays(n, kn)
        sample_h = np.empty((len(radii), len(uniq)))
        sample_l = np.empty((len(radii), len(uniq)))
        for j, r in enumerate(radii):
            kr = counts[(n, r)]
            ph, pl = powers[r]
            wh, wl = dd.mul(co_h[:kr], co_l[:kr], ph[:kr], pl[:kr])
            th, tl = dd.mul(wh[:, None], wl[:, None], Th[:kr], Tl[:kr])
            sample_h[j], sample_l[j] = _dd_reduce_axis0(th, tl)
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
        out[n] = (values, residuals, kn)
    return out
