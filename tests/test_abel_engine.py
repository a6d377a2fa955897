"""The Abel engine's double-double tables, Levin samples, Neville tableau,
term budgets and pinned values.

The tables and budgets are numpy constructions (doubling, prefix scans,
chunked cumsum); the references here are mpmath, exact integers and the
plain loops the constructions replace.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import trigsum
from trigsum import (
    DEFAULT_ABEL_RADII,
    NEGATIVE_SUITE_RADII,
    ConvergenceClass,
    DivergentSeriesError,
    SeriesKind,
    SeriesSpec,
    SummationMethod,
    abel_sum,
    build_suite,
    classify,
)
from trigsum import dd, series
from trigsum.binom import binom_scan, gen_binom_exact
from trigsum.series import (
    _ABEL_CUT_LOG,
    _LEVIN_ORDERS,
    _LEVIN_ROWS,
    _abel_point_f64,
    _abel_term_count,
    _dd_coeff_arrays,
    _dd_power_arrays,
    _dd_trig_table,
    _extrapolate_radial,
    _levin_samples,
    _log_coeffs,
    abel_terms_needed,
    trig_values,
)

#: Largest term budget of the negative_integer suite (n = -6, r = 0.996).
SUITE_KMAX = 24030


def _dd_value(hi, lo):
    return mp.mpf(float(hi)) + mp.mpf(float(lo))


# ---------------------------------------------------------------- tables

def test_dd_trig_table_against_mpmath():
    phis = [1e-3, 0.1, 1.0, 2.0, 3.0, math.pi - 1e-3]
    # all angles at once steps blocks by z**B; one angle is pure doubling
    grids = [np.array(phis)] + [np.array([phi]) for phi in phis]
    worst = 0.0
    with mp.workdps(50):
        for grid in grids:
            table = _dd_trig_table(grid, SUITE_KMAX)
            for (hi, lo), exact in ((table[:2], mp.cos), (table[2:], mp.sin)):
                assert hi.shape == (SUITE_KMAX, len(grid))
                for j, phi in enumerate(grid.tolist()):
                    for k in range(0, SUITE_KMAX, 997):
                        err = _dd_value(hi[k, j], lo[k, j]) - exact(k * mp.mpf(phi))
                        worst = max(worst, abs(float(err)))
    # every z**L rounded once from its exact value: 1.56e-31 (a table stepped
    # in double-double from one 40-digit z per angle reaches 2.5e-28, and then
    # accepts the branch point below)
    assert worst <= 2e-31


def _rounded_once(v):
    """(RN(v), RN(v - RN(v))) of an mpf, each rounded by exact rational division."""
    exact = int(mp.sign(v)) * Fraction(v.man) * Fraction(2) ** v.exp
    hi = float(exact)
    return hi, float(exact - Fraction(hi))


#: Zero, the least subnormal, tiny angles whose low words need more than 136
#: bits (at 1e-100 the low word of sin, phi**3/6, needs about three bits per
#: binary order of phi), the quarter and half turns as doubles, one step short
#: of the half turn, and angles that need pi/2 to many bits to be reduced.
_UNIT_ANGLES = [0.0, 5e-324, 1e-300, 1e-100, 1e-30, 1e-20, math.pi / 2, math.pi - 1e-6, math.pi,
                100.0, 1e300, -2.5]


def test_each_unit_power_is_its_exact_value_rounded_to_double_double():
    # z**k for z = exp(i*phi), k = 1, 2, 4, ..., 64: the 0.1 degree grid and
    # the edge angles, against mpmath at enough bits to hold each low word
    phis = _UNIT_ANGLES + np.radians(np.arange(-1800, 1801) / 10.0).tolist()
    for phi in phis:
        powers = series._unit_powers(phi)
        for k in (2 ** j for j in range(7)):
            with mp.workprec(250 + 3 * abs(math.frexp(phi)[1])):
                c, s = mp.cos_sin(k * mp.mpf(phi))
            assert tuple(next(powers)) == _rounded_once(c) + _rounded_once(s), (phi, k)


@pytest.mark.parametrize("angles", [1, 40, 50, 84, 3600])
def test_a_shorter_trig_table_is_its_longer_tables_prefix(angles):
    # these angle counts give blocks of 32 or 128, 32 or 64, 32 and 1 rows
    # for 25 and 65 rows; the first Levin stage reads 25 rows of either
    phis = np.linspace(1e-3, math.pi - 1e-3, angles)
    short, full = _dd_trig_table(phis, 25), _dd_trig_table(phis, _LEVIN_ROWS)
    for s, f in zip(short, full):
        assert [x.hex() for x in s.ravel().tolist()] == [x.hex() for x in f[:25].ravel().tolist()]


@pytest.mark.parametrize("m", range(1, 7))
def test_dd_coeff_arrays_match_exact_integers(m):
    hi, lo = _dd_coeff_arrays(float(-m), SUITE_KMAX)
    for k in range(SUITE_KMAX):
        exact = gen_binom_exact(-m, k)
        assert abs(Fraction(hi[k]) + Fraction(lo[k]) - exact) <= Fraction(1, 10**29) * abs(exact)


@pytest.mark.parametrize("n", [-2.5, -2.3])  # n - k is inexact in doubles for -2.3
def test_dd_coeff_arrays_fractional_exponent_against_mpmath(n):
    hi, lo = _dd_coeff_arrays(n, SUITE_KMAX)
    with mp.workdps(50):
        for k in range(0, SUITE_KMAX, 7):
            exact = mp.binomial(mp.mpf(n), k)
            assert abs(_dd_value(hi[k], lo[k]) - exact) <= 1e-29 * abs(exact)


def test_dd_coeff_arrays_terminate_on_nonnegative_integers():
    hi, lo = _dd_coeff_arrays(3.0, 8)
    assert hi.tolist() == [1.0, 3.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert not lo.any()


@pytest.mark.parametrize("r", [0.9, 0.99, 0.996])
def test_dd_power_arrays_against_mpmath(r):
    hi, lo = _dd_power_arrays(r, SUITE_KMAX)
    with mp.workdps(50):
        for k in range(0, SUITE_KMAX, 101):
            exact = mp.mpf(r) ** k
            if exact > 1e-280:  # below that the double-double underflows
                assert abs(_dd_value(hi[k], lo[k]) - exact) <= 1e-28 * exact


def _dd_powers_by_doubling(r, count):
    """The former r**k construction: r**[L, 2L) = r**[0, L) * r**L by doubling."""
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


@pytest.mark.parametrize("r", [0.5, 0.996, np.array(NEGATIVE_SUITE_RADII), np.array(DEFAULT_ABEL_RADII)],
                         ids=["0.5", "0.996", "suite_radii", "default_radii"])
def test_dd_power_arrays_match_the_doubling_by_hex(r):
    for count in [*range(1, 66), SUITE_KMAX]:
        for got, want in zip(_dd_power_arrays(r, count), _dd_powers_by_doubling(r, count)):
            assert got.shape == want.shape == (count,) + np.shape(r)
            assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]


def _f64_terms_by_loop(kind, n, phi, r, count):
    """The terms of _abel_point_f64, stepping each recurrence one index at a time."""
    cphi, sphi = math.cos(phi), math.sin(phi)
    x, y, co, rk = 1.0, 0.0, 1.0, 1.0
    terms = []
    for k in range(count):
        terms.append(co * rk * (y if kind is SeriesKind.SINE else x))
        x, y = x * cphi - y * sphi, y * cphi + x * sphi
        co *= (n - k) / (k + 1)
        rk *= r
    return terms


def _budget(n, r):
    """The term budget at radius r from a log scan of its own."""
    return _abel_term_count(r, _log_coeffs(n, r))


@pytest.mark.parametrize("kind", list(SeriesKind))
@pytest.mark.parametrize("n,phi", [(-1.9, 2.0), (-0.5, -1.2), (1.5, 0.3), (-1.0, 3.1)])
def test_abel_point_f64_sums_the_loop_terms_exactly(kind, n, phi):
    for r in (0.9, 0.99):
        count = _budget(n, r)
        assert _abel_point_f64(r, count, binom_scan(n, count), trig_values(phi, count, kind)) == math.fsum(
            _f64_terms_by_loop(kind, n, phi, r, count))


def _recording(fn, calls):
    """``fn``, appending (args, result) of each call to ``calls``."""
    def wrapper(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]
    return wrapper


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(SeriesKind)),
       n=st.floats(-2.0, 12.0, exclude_min=True, exclude_max=True).filter(
           lambda x: not (x.is_integer() and x >= 0)),
       phi=st.floats(allow_nan=False, allow_infinity=False),
       radii=st.one_of(st.just(DEFAULT_ABEL_RADII),
                       st.sets(st.integers(300, 995), min_size=3, max_size=7).map(
                           lambda s: tuple(x / 1000 for x in sorted(s)))))
def test_abel_f64_samples_share_one_scan(kind, n, phi, radii):
    # abel_sum takes one log, coefficient and rotation scan up to the
    # largest budget; each radius still gets the budget and the sample of
    # its own step-by-step loops
    spec = SeriesSpec(kind, n, phi)
    conv = classify(spec)
    assume(conv is not ConvergenceClass.DIVERGENT and not series._zero_row(spec, conv))
    budgets, samples = [], []
    with mock.patch.object(series, "_abel_term_count", _recording(_abel_term_count, budgets)), \
         mock.patch.object(series, "_abel_point_f64", _recording(_abel_point_f64, samples)):
        abel_sum(spec, radii)
    assert [args[0] for args, _ in budgets] == [args[0] for args, _ in samples] == list(radii)
    (_, _, coeffs, trig), _ = samples[0]
    assert len(coeffs) == len(trig) == max(count for _, count in budgets)
    for (_, count), ((r, used, *scans), value) in zip(budgets, samples):
        assert scans[0] is coeffs and scans[1] is trig
        assert type(count) is int
        assert count == used == _term_count_by_loop(n, r)
        assert value == math.fsum(_f64_terms_by_loop(kind, n, phi, r, count))


# ---------------------------------------------------------------- Levin samples

LEVIN_DEGREES = (2.0, 17.0, 45.0, 73.0, 90.0, 111.0, 135.0, 150.0, 163.0, 168.0, 170.0)


@pytest.mark.parametrize("radii", [DEFAULT_ABEL_RADII, NEGATIVE_SUITE_RADII],
                         ids=["default_radii", "suite_radii"])
@pytest.mark.parametrize("n", [-1.0, -2.0, -2.5, -3.0, -6.0])
def test_levin_samples_against_mpmath(n, radii):
    phis = np.radians(LEVIN_DEGREES)
    trig = _dd_trig_table(phis, _LEVIN_ROWS)
    worst = 0.0
    with mp.workdps(40):
        for kind in SeriesKind:
            hi, lo, gap, order = _levin_samples(kind, n, phis, radii, trig)
            assert hi.shape == gap.shape == order.shape == (len(radii), len(phis))
            assert order.max() <= _LEVIN_ROWS - 1
            for i, r in enumerate(radii):
                for j, phi in enumerate(phis.tolist()):
                    value = (1 + mp.mpf(r) * mp.expj(mp.mpf(phi))) ** n
                    exact = value.imag if kind is SeriesKind.SINE else value.real
                    err = abs(_dd_value(hi[i, j], lo[i, j]) - exact) / abs(value)
                    worst = max(worst, float(err))
    assert worst <= 1e-12


def test_levin_refuses_the_branch_point():
    # (1 + r exp(i phi))**-3 next to phi = pi: no two orders agree
    phis = np.array([math.pi - 1e-6])
    with pytest.raises(DivergentSeriesError):
        _levin_samples(SeriesKind.COSINE, -3.0, phis, DEFAULT_ABEL_RADII)


def test_abel_refusal_names_the_first_open_sample():
    # only the largest default radius has no agreeing pair of orders there;
    # the message names |phi|, the angle a grid samples, so a point and a
    # grid at a negative angle refuse in the same words
    phi = math.pi - 1e-6
    message = rf"n=-3\.0 \(cos, \|phi\|={re.escape(repr(phi))}, r=0\.99\): no Abel value"
    with pytest.raises(DivergentSeriesError, match=message):
        abel_sum(SeriesSpec("cos", -3.0, phi))
    with pytest.raises(DivergentSeriesError, match=message) as point:
        abel_sum(SeriesSpec("cos", -3.0, -phi))
    with pytest.raises(DivergentSeriesError) as grid:
        series.abel_sum_grid("cos", [-3.0], [-phi])
    assert str(grid.value) == str(point.value)


def _bits(samples):
    """(hi, lo, gap, order) per sample, the floats as hex."""
    hi, lo, gap, order = (a.ravel().tolist() for a in samples)
    return [(h.hex(), l.hex(), g.hex(), k) for h, l, g, k in zip(hi, lo, gap, order)]


def _staged_and_unstaged(*args):
    """_levin_samples(*args) in its stages and in one stage of every order
    on all rows: the same bits, or the same refusal.  The staged samples
    (None on a refusal) are returned."""
    results = []
    for stages in (series._LEVIN_STAGES, (_LEVIN_ORDERS,)):
        with mock.patch.object(series, "_LEVIN_STAGES", stages):
            try:
                results.append(_bits(_levin_samples(*args)))
            except DivergentSeriesError as exc:
                results.append(str(exc))
    assert results[0] == results[1]
    return None if isinstance(results[0], str) else results[0]


def _suite_abel_angles():
    """The |phi| of the negative_integer suite's Abel cases: 84 angles."""
    suite = build_suite("negative_integer")
    return np.unique([abs(c.spec.phi) for c in suite if c.method is SummationMethod.ABEL])


def test_levin_stages_change_no_bit():
    phis = _suite_abel_angles()
    trig = _dd_trig_table(phis, _LEVIN_ROWS)
    samples = [_staged_and_unstaged(SeriesKind.COSINE, float(-m), phis, NEGATIVE_SUITE_RADII, trig)
               for m in range(1, 7)]
    # a 0.1 degree band toward the half-turn, one degree per grid
    for first in range(160, 180):
        band = np.radians(np.arange(10 * first, 10 * first + 10) / 10.0)
        trig = _dd_trig_table(band, _LEVIN_ROWS)
        for n in (-2.5, -3.0, -6.0):
            for kind in SeriesKind:
                samples.append(_staged_and_unstaged(kind, n, band, NEGATIVE_SUITE_RADII, trig))
    # one angle builds its own table per stage
    for degrees in (1.0, 90.0, 150.0, 170.0, 179.0):
        for n in (-2.5, -3.0, -6.0):
            samples.append(_staged_and_unstaged(SeriesKind.SINE, n, np.radians([degrees]),
                                                DEFAULT_ABEL_RADII))
    accepted = [k for bits in samples if bits is not None for *_, k in bits]
    # staging is tested, not skipped: samples reach the second stage and
    # some grids are refused
    assert max(accepted) > series._LEVIN_STAGES[0][-1]
    assert None in samples
    with pytest.raises(DivergentSeriesError):
        _levin_samples(SeriesKind.COSINE, -3.0, np.array([math.pi - 1e-6]), DEFAULT_ABEL_RADII)


def _bits_or_refusal(*args):
    try:
        return _bits(_levin_samples(*args))
    except DivergentSeriesError:
        return None


def test_each_angle_of_a_grid_keeps_its_bits():
    # a grid drops its accepted samples from the orders after them; every
    # angle gets the samples of a one-angle grid on the same table column
    mixed = False
    for first in range(160, 180):
        band = np.radians(np.arange(10 * first, 10 * first + 10) / 10.0)
        trig = _dd_trig_table(band, _LEVIN_ROWS)
        for n in (-2.5, -3.0, -6.0):
            for kind in SeriesKind:
                grid = _bits_or_refusal(kind, n, band, NEGATIVE_SUITE_RADII, trig)
                alone = [_bits_or_refusal(kind, n, band[i:i + 1], NEGATIVE_SUITE_RADII,
                                          tuple(t[:, i:i + 1] for t in trig))
                         for i in range(band.size)]
                assert (grid is None) == (None in alone)
                if grid is not None:
                    # grid bits are radius-major: angle i at i, i + 10, ...
                    assert [grid[i::band.size] for i in range(band.size)] == alone
                    orders = {max(k for *_, k in bits) for bits in alone}
                    mixed |= min(orders) == 24 and max(orders) >= 32
    # the second stage ran on a strict subset of a band's angles
    assert mixed


def test_levin_column_blocks_keep_each_angles_bits():
    # the order loop sums its weighted rows a column block of samples at a
    # time; with a 0.1 degree band below 170 degrees, orders 16 and 24 span
    # at least 3 blocks, and at n = -6 the second stage more than one
    phis = np.concatenate([_suite_abel_angles(), np.radians(np.arange(1690, 1700) / 10.0)])
    trig = _dd_trig_table(phis, _LEVIN_ROWS)
    second_stage = []
    for n in (-3.0, -6.0):
        grid = _bits(_levin_samples(SeriesKind.COSINE, n, phis, NEGATIVE_SUITE_RADII, trig))
        alone = [_bits(_levin_samples(SeriesKind.COSINE, n, phis[i:i + 1], NEGATIVE_SUITE_RADII,
                                      tuple(t[:, i:i + 1] for t in trig)))
                 for i in range(phis.size)]
        # grid bits are radius-major: angle i at i, i + phis.size, ...
        assert [grid[i::phis.size] for i in range(phis.size)] == alone
        assert len(grid) > 2 * (series._BLOCK_ELEMS // 17)  # 3 blocks at order 16, more at 24
        second_stage.append(sum(k > series._LEVIN_STAGES[0][-1] for *_, k in grid))
    assert max(second_stage) > series._BLOCK_ELEMS // 33


def _reduce_by_concatenation(th, tl):
    """The pairwise double-double sum along axis 0, each level a new array."""
    while th.shape[0] > 1:
        half = th.shape[0] // 2
        sh, sl = dd.add(th[:half], tl[:half], th[half:2 * half], tl[half:2 * half])
        if th.shape[0] % 2:
            sh, sl = np.concatenate([sh, th[-1:]]), np.concatenate([sl, tl[-1:]])
        th, tl = sh, sl
    return th[0], tl[0]


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 17, 25, 33, 65])
def test_in_place_reduction_pairs_rows_as_concatenation_does(rows):
    rng = np.random.default_rng(rows)
    hi = rng.standard_normal((rows, 4, 7)) * 10.0 ** rng.integers(-8, 9, (rows, 4, 7))
    hi, lo = dd.two_sum(hi, hi * rng.standard_normal(hi.shape) * 2.0 ** -60)
    want = _reduce_by_concatenation(hi, lo)
    got = series._dd_reduce_axis0(hi.copy(), lo.copy())
    for a, b in zip(got, want):
        assert [x.hex() for x in a.ravel().tolist()] == [x.hex() for x in b.ravel().tolist()]


@pytest.mark.parametrize("ns, bound_mib", [([-3.0], 5.0), ([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0], 5.5)],
                         ids=["one_exponent", "six_exponents"])
def test_the_abel_grid_memory_peak_is_bounded(ns, bound_mib):
    # aim 3: the order loop forms its weighted rows a column block at a
    # time.  tracemalloc peaked at 3.72 MiB (one exponent) and 4.80 MiB
    # (six) with the blocks, and at 6.05 and 6.16 MiB with each order's
    # whole (K + 1) x 4 x samples product, which these bounds refuse
    phis = _suite_abel_angles().tolist()
    series.abel_sum_grid(SeriesKind.COSINE, ns, phis, NEGATIVE_SUITE_RADII)  # warm up
    tracemalloc.start()
    try:
        series.abel_sum_grid(SeriesKind.COSINE, ns, phis, NEGATIVE_SUITE_RADII)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2 ** 20


@pytest.mark.parametrize("kind, ns, degrees, radii", [
    (SeriesKind.COSINE, [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0], None, NEGATIVE_SUITE_RADII),
    (SeriesKind.SINE, [-3.0, 2.0, -1.5], [-170.0, -135.0, -90.0, -20.0, 0.0, 20.0, 90.0, 150.0, 180.0],
     DEFAULT_ABEL_RADII),
], ids=["negative_integer", "signed_sine"])
def test_one_tableau_gives_each_exponent_its_own_bits(kind, ns, degrees, radii):
    if degrees is None:
        suite = build_suite("negative_integer")
        phis = sorted({c.spec.phi for c in suite if c.method is SummationMethod.ABEL})
    else:
        phis = np.radians(degrees).tolist()
    grid = series.abel_sum_grid(kind, ns, phis, radii)
    for n in ns:
        (alone,) = series.abel_sum_grid(kind, [n], phis, radii).values()
        for together, apart in zip(grid[n][:2], alone[:2]):
            assert [float(x).hex() for x in together] == [float(x).hex() for x in apart]
        assert grid[n][2] == alone[2]


#: A signed grid with the band toward the half-turn where Levin samples
#: reach the second stage; 0 is a settled point of the sine rows.
PIN_DEGREES = (-167.0, -163.0, -159.0, -151.0, -135.0, -90.0, -45.0, -1.0, 0.0, 1.0, 20.0, 45.0,
               73.0, 90.0, 111.0, 120.0, 135.0, 145.0, 150.0, 151.0, 152.0, 154.0, 156.0, 158.0,
               160.0, 161.0, 162.0, 163.0, 164.0, 165.0, 166.0, 168.0)


@pytest.mark.parametrize("radii", [DEFAULT_ABEL_RADII, NEGATIVE_SUITE_RADII],
                         ids=["default_radii", "suite_radii"])
@pytest.mark.parametrize("kind", list(SeriesKind))
def test_abel_sum_and_the_grid_are_one_engine_at_n_le_minus_2(kind, radii):
    # at n <= -2 a point is a one-angle grid of the same engine: a grid of
    # signed angles gives each point the value and residual of abel_sum
    ns = (-2.0, -2.5, -3.0, -4.0, -6.0)
    phis = np.radians(PIN_DEGREES).tolist()
    grid = series.abel_sum_grid(kind, ns, phis, radii)
    for n in ns:
        points = [abel_sum(SeriesSpec(kind, n, phi), radii) for phi in phis]
        assert [float(v).hex() for v in grid[n][0]] == [p.value.hex() for p in points]
        assert [float(e).hex() for e in grid[n][1]] == [p.residual_estimate.hex() for p in points]
        assert grid[n][2] == max(p.terms_used for p in points)
    # the pin reaches the second Levin stage
    assert max(used for _, _, used in grid.values()) > series._LEVIN_STAGES[0][-1]


@pytest.mark.parametrize("kind", list(SeriesKind))
@pytest.mark.parametrize("n", [-1e8, -1e9, -1.7e308])
def test_terms_past_the_doubles_are_refused_without_a_warning(kind, n):
    # from n = -1e8 the double-double terms overflow; the orders then never agree
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for phi in (1.0, 2.0, 0.3):
            with pytest.raises(DivergentSeriesError):
                abel_sum(SeriesSpec(kind, n, phi))
        with pytest.raises(DivergentSeriesError):
            series.abel_sum_grid(kind, [n], [1.0, 2.0, 0.3])


def test_a_grid_with_one_diverging_exponent_is_refused():
    phis = np.radians([20.0, 60.0])
    with pytest.raises(DivergentSeriesError):
        series.abel_sum_grid(SeriesKind.COSINE, [50.5], phis)
    with pytest.raises(DivergentSeriesError):
        series.abel_sum_grid(SeriesKind.COSINE, [-3.0, 50.5], phis)


def test_the_abel_engine_leaves_numpy_ma_unimported():
    # numpy imports numpy.ma lazily, e.g. from np.unique on integers; the
    # engine selects its open angles without it
    env = dict(os.environ, PYTHONPATH=str(Path(trigsum.__file__).parents[1]))
    code = ("import sys, math, numpy as np\n"
            "from trigsum import SeriesSpec, abel_sum\n"
            "from trigsum.series import abel_sum_grid\n"
            "abel_sum(SeriesSpec('cos', -3.0, math.radians(175.0)))\n"
            "abel_sum_grid('sin', [-2.5, -3.0], np.radians([-170.0, 20.0, 170.0, 180.0]))\n"
            "sys.exit('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr



# ---------------------------------------------------------------- Neville tableau

def _neville_mpmath(radii, f_hi, f_lo):
    """The former 50-digit tableau: (value, |last correction|)."""
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


@pytest.mark.parametrize("radii", [DEFAULT_ABEL_RADII, NEGATIVE_SUITE_RADII],
                         ids=["default_radii", "suite_radii"])
def test_dd_neville_matches_the_mpmath_tableau(radii):
    phis = np.radians(LEVIN_DEGREES)
    trig = _dd_trig_table(phis, _LEVIN_ROWS)
    for n in (-1.0, -2.5, -6.0):
        hi, lo, _, _ = _levin_samples(SeriesKind.COSINE, n, phis, radii, trig)
        values, corrections = _extrapolate_radial(radii, hi, lo)
        for j in range(len(phis)):
            value, correction = _neville_mpmath(radii, hi[:, j].tolist(), lo[:, j].tolist())
            # one ulp of the value, or of double-double where it cancels to near 0
            assert abs(values[j] - value) <= max(math.ulp(value), 1e-29 * np.abs(hi[:, j]).max())
            assert corrections[j] == pytest.approx(correction, rel=1e-12, abs=1e-300)


def test_dd_neville_gives_the_same_bits_on_arrays_and_floats():
    rng = np.random.default_rng(7)
    for radii in (DEFAULT_ABEL_RADII, NEGATIVE_SUITE_RADII):
        hi = rng.normal(size=(len(radii), 16)) * 10.0 ** rng.integers(-8, 8, size=16)
        lo = hi * 2.0 ** -60 * rng.uniform(-1, 1, size=hi.shape)
        values, corrections = _extrapolate_radial(radii, hi, lo)
        for j in range(hi.shape[1]):
            value, correction = _extrapolate_radial(radii, hi[:, j].tolist(), lo[:, j].tolist())
            assert type(value) is float
            assert (value.hex(), correction.hex()) == (values[j].hex(), corrections[j].hex())


# ---------------------------------------------------------------- term budgets

#: The largest Levin order abel_sum takes at phi = 1 rad and the default radii.
LEVIN_ORDER_AT_ONE_RADIAN = {-3.0: 24, -6.0: 24}


@pytest.mark.parametrize("n,terms", [(-1.5, 5482), (-3.0, 6727), (-6.0, 9101)])
def test_abel_term_budget_at_default_radii(n, terms):
    # n > -2 truncates each float64 sample at its budget; n <= -2 reports
    # the Levin order of its double-double samples instead
    used = abel_sum(SeriesSpec("cos", n, 1.0)).terms_used
    assert used == (terms if n > -2.0 else LEVIN_ORDER_AT_ONE_RADIAN[n])
    assert max(_budget(n, r) for r in DEFAULT_ABEL_RADII) == terms


def _meets_cutoff(n, r, k):
    """Whether term k is past the budget's cutoff, from 30-digit logarithms."""
    if k < abel_terms_needed(r):
        return False
    with mp.workdps(30):
        return mp.log(abs(mp.binomial(mp.mpf(n), k))) + k * mp.log(mp.mpf(r)) < _ABEL_CUT_LOG


def _term_count_by_loop(n, r):
    """The budget by a running sum of logarithms, one index at a time."""
    logr, kmin = math.log(r), abel_terms_needed(r)
    lc, k = 0.0, 0
    while True:
        a = n - k
        k += 1
        lc += math.log(abs(a)) - math.log(k)
        if k >= kmin and lc + k * logr < _ABEL_CUT_LOG:
            return k + 1


@settings(max_examples=40, deadline=None)
@given(n=st.floats(-8.0, 8.0).filter(lambda x: not x.is_integer()),
       r=st.floats(0.5, 0.995))
def test_abel_term_budget_is_the_first_index_past_the_cutoff(n, r):
    budget = _budget(n, r)
    assert isinstance(budget, int)
    assert _meets_cutoff(n, r, budget - 1)
    assert not _meets_cutoff(n, r, budget - 2)


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.floats(-12.0, 12.0).filter(lambda x: not (x.is_integer() and x >= 0)),
                   st.integers(-12, -1).map(float)),
       r=st.floats(0.3, 0.996))
def test_abel_term_budget_matches_the_loop(n, r):
    # abel_sum budgets no terminating row (n a nonnegative integer), see below
    assert _budget(n, r) == _term_count_by_loop(n, r)


def _no_budget(*args):
    raise AssertionError("a terminating row reached the float64 term budget")


@pytest.mark.parametrize("kind", list(SeriesKind))
@pytest.mark.parametrize("n", [0.0, 3.0, 64.0])
@pytest.mark.parametrize("phi", [0.0, 1.0, math.pi, -math.pi, 3.0 * math.pi])
def test_abel_sum_of_a_terminating_row_is_its_row_sum_without_a_budget(kind, n, phi):
    # _settle sums a terminating row whole before abel_sum budgets any
    # terms, so the budget functions need no branch for one
    spec = SeriesSpec(kind, n, phi)
    with mock.patch.object(series, "_log_coeffs", _no_budget), \
         mock.patch.object(series, "_abel_term_count", _no_budget):
        res = abel_sum(spec)
    row = series.partial_sum(spec, int(n) + 1)
    assert (res.value, res.terms_used, res.residual_estimate, res.convergence) == \
        (row.value, row.terms_used, row.residual_estimate, ConvergenceClass.FINITE)
    assert res.method is series.SummationMethod.ABEL


# ---------------------------------------------------------------- pinned values

#: abel_sum(SeriesSpec(kind, n, radians(deg))).value.hex(): float64
#: samples for n > -2, Levin samples for n <= -2, double-double Neville.
GOLDEN = {
    ("cos", -1.9, -115.0): "-0x1.2677d2b60fbddp-2",
    ("cos", -1.9, -60.0): "0x1.88cd461035043p-3",
    ("cos", -1.9, -7.5): "0x1.115dc34aab904p-2",
    ("cos", -1.9, 33.0): "0x1.fb9d1211a19c9p-3",
    ("cos", -1.9, 90.0): "0x1.4cb394dbe5386p-5",
    ("cos", -1.9, 119.0): "-0x1.85b13e27aa8eap-2",
    ("sin", -1.9, -115.0): "0x1.a59d0f1b58ec2p-1",
    ("sin", -1.9, -60.0): "0x1.2e6e4fb1880d9p-2",
    ("sin", -1.9, -7.5): "0x1.115d99c1b71d2p-5",
    ("sin", -1.9, 33.0): "-0x1.353dae0387a6dp-3",
    ("sin", -1.9, 90.0): "-0x1.0835f8d61221ep-1",
    ("sin", -1.9, 119.0): "-0x1.c9ead90d9edfbp-1",
    ("cos", -0.5, -115.0): "0x1.b105e3232ed4bp-1",
    ("cos", -0.5, -60.0): "0x1.77c7a0a8906d8p-1",
    ("cos", -0.5, -7.5): "0x1.6a3b9a5833273p-1",
    ("cos", -0.5, 33.0): "0x1.6de7c2c27bca4p-1",
    ("cos", -0.5, 90.0): "0x1.8dc42193d6c28p-1",
    ("cos", -0.5, 119.0): "0x1.b9344b88b2833p-1",
    ("sin", -0.5, -115.0): "0x1.db210cdc49845p-2",
    ("sin", -0.5, -60.0): "0x1.92c273387a1cep-3",
    ("sin", -0.5, -7.5): "0x1.7b76fcc89bbc0p-6",
    ("sin", -0.5, 33.0): "-0x1.a86e124a10fbep-4",
    ("sin", -0.5, 90.0): "-0x1.49852f9842560p-2",
    ("sin", -0.5, 119.0): "-0x1.f85689c234ca3p-2",
    ("cos", 1.5, -115.0): "0x1.2a6b93f1a27fdp-4",
    ("cos", 1.5, -60.0): "0x1.9ca285c7abaa7p+0",
    ("cos", 1.5, -7.5): "0x1.67238b6fb73abp+1",
    ("cos", 1.5, 33.0): "0x1.34af372f74761p+1",
    ("cos", 1.5, 90.0): "0x1.49852f983f0ffp-1",
    ("cos", 1.5, 119.0): "0x1.b6a809bc1abddp-7",
    ("sin", 1.5, -115.0): "-0x1.1c90347e6d1b9p+0",
    ("sin", 1.5, -60.0): "-0x1.9ca285c7aba71p+0",
    ("sin", 1.5, -7.5): "-0x1.1afa09c98550ep-2",
    ("sin", 1.5, 33.0): "0x1.1c9c67191186ep+0",
    ("sin", 1.5, 90.0): "0x1.8dc42193d5c49p+0",
    ("sin", 1.5, 119.0): "0x1.05c9eec7f99fcp+0",
    ("cos", -2.0, -115.0): "-0x1.76c2fd6d28706p-2",
    ("cos", -2.0, -60.0): "0x1.555555553a6fep-3",
    ("cos", -2.0, -7.5): "0x1.fdccebfd05832p-3",
    ("cos", -2.0, 33.0): "0x1.d3136c71ddedap-3",
    ("cos", -2.0, 90.0): "-0x1.9e6db5eda6402p-37",
    ("cos", -2.0, 119.0): "-0x1.e1ceb03eb874fp-2",
    ("sin", -2.0, -115.0): "0x1.91d6e9fc7774cp-1",
    ("sin", -2.0, -60.0): "0x1.279a7458fd330p-2",
    ("sin", -2.0, -7.5): "0x1.0c774d5415f9dp-5",
    ("sin", -2.0, 33.0): "-0x1.2f529725f024dp-3",
    ("sin", -2.0, 90.0): "-0x1.0000000025775p-1",
    ("sin", -2.0, 119.0): "-0x1.b29a0cdb9a228p-1",
    ("cos", -2.5, -115.0): "-0x1.58ed848052c94p-1",
    ("cos", -2.5, -60.0): "0x1.0c81a22557d67p-4",
    ("cos", -2.5, -7.5): "0x1.671f4a3e0189cp-3",
    ("cos", -2.5, 33.0): "0x1.2e5e92666e26cp-3",
    ("cos", -2.5, 90.0): "-0x1.49852f995e56fp-3",
    ("cos", -2.5, 119.0): "-0x1.a5a46b2a9dcabp-1",
    ("sin", -2.5, -115.0): "0x1.f9d2b3f8567e0p-2",
    ("sin", -2.5, -60.0): "0x1.f50a2b8b4c553p-3",
    ("sin", -2.5, -7.5): "0x1.da549f5b1de7fp-6",
    ("sin", -2.5, 33.0): "-0x1.092bbdda7117cp-3",
    ("sin", -2.5, 90.0): "-0x1.8dc421943493ap-2",
    ("sin", -2.5, 119.0): "-0x1.ffb7b54841924p-2",
    ("cos", -6.0, -115.0): "0x1.412b743aa0dc2p-1",
    ("cos", -6.0, -60.0): "-0x1.2f684bd5cc778p-5",
    ("cos", -6.0, -7.5): "0x1.df2619f500f92p-7",
    ("cos", -6.0, 33.0): "-0x1.9c536d9d60c50p-9",
    ("cos", -6.0, 90.0): "0x1.3036cecd95817p-32",
    ("cos", -6.0, 119.0): "0x1.d36451289449dp-1",
    ("sin", -6.0, -115.0): "-0x1.583a8e0e74712p-3",
    ("sin", -6.0, -60.0): "-0x1.b62323d556f7ep-36",
    ("sin", -6.0, -7.5): "0x1.8cf09ca6dd82dp-8",
    ("sin", -6.0, 33.0): "-0x1.456a57e3b23c2p-6",
    ("sin", -6.0, 90.0): "0x1.000000107c54cp-3",
    ("sin", -6.0, 119.0): "0x1.87eb7affbf5c1p-5",
}


@pytest.mark.parametrize("kind,n,deg", list(GOLDEN))
def test_abel_sum_golden_values(kind, n, deg):
    value = abel_sum(SeriesSpec(kind, n, math.radians(deg))).value
    golden = float.fromhex(GOLDEN[(kind, n, deg)])
    if abs(golden) < 1e-9:
        # the closed form is 0 here; these digits are the extrapolation's
        # residue and move with the last bits of the double-double samples
        assert value == pytest.approx(golden, rel=0.0, abs=1e-18)
    else:
        assert value.hex() == GOLDEN[(kind, n, deg)]
