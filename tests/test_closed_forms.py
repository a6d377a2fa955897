import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigsum import (
    ClosedFormValue,
    SeriesKind,
    SeriesSpec,
    abel_sum,
    evaluate_closed,
    lambda_series_closed,
    partial_sum,
    quarter_turn_sum,
    reduced_neg_int,
    special_value_catalog,
)
from trigsum.exceptions import DomainError
from trigsum.suites import _grid_deg

GRID = [math.radians(d) for d in range(-179, 180)]
# negative exponents blow up at the half turn; stay one degree away
SAFE_GRID = [phi for phi in GRID if abs(abs(phi) - math.pi) > math.radians(0.9)]


def test_unit_exponent_is_one_plus_cosine():
    for phi in GRID:
        assert evaluate_closed("cos", 1, phi).value == pytest.approx(1.0 + math.cos(phi), abs=1e-14)


def test_zero_exponent_is_one():
    for phi in (0.0, 1.0, -2.7, 3.1):
        assert evaluate_closed("cos", 0, phi).value == 1.0
        assert evaluate_closed("sin", 0, phi).value == 0.0


def test_half_exponent_at_third_turn_matches_catalog():
    entry = next(e for e in special_value_catalog()
                 if e.spec.n == 0.5 and e.spec.phi == math.pi / 3.0)
    assert evaluate_closed("cos", 0.5, math.pi / 3.0).value == pytest.approx(entry.value, rel=1e-14)


def test_sine_closed_basics():
    for phi in (0.0, 1.0, -2.0):
        assert evaluate_closed("sin", 2.5, 0.0).value == 0.0
        assert evaluate_closed("sin", 1, phi).value == pytest.approx(math.sin(phi), abs=1e-14)
    assert evaluate_closed("sin", 3, 0.5 * math.pi).value == pytest.approx(2.0, abs=1e-13)


def test_integer_exponent_valid_on_all_angles():
    # finite rows are periodic; compare against direct summation off the
    # principal interval
    for n in (2, 5):
        for phi in (4.0, -7.5, 9.42):
            direct = partial_sum(SeriesSpec(SeriesKind.COSINE, n, phi), n + 1).value
            assert evaluate_closed("cos", n, phi).value == pytest.approx(direct, abs=1e-12)


def _undefined(closed) -> bool:
    return math.isnan(closed.value)


def test_fractional_exponent_domain_errors():
    assert _undefined(evaluate_closed("cos", 0.5, math.pi))
    assert _undefined(evaluate_closed("cos", 0.5, 3.5))
    assert _undefined(evaluate_closed("sin", 1.5, -4.0))
    assert _undefined(evaluate_closed("cos", -0.5, math.pi))


def test_negative_integer_pole_errors():
    assert _undefined(evaluate_closed("cos", -2, math.pi))
    assert _undefined(evaluate_closed("cos", -1, -math.pi))
    assert _undefined(evaluate_closed("sin", -3, 3.0 * math.pi))
    assert _undefined(reduced_neg_int(3, math.pi))


def test_evaluate_closed_flags_domain_exits():
    assert math.isnan(evaluate_closed(SeriesKind.COSINE, 0.5, math.pi).value)
    assert not math.isnan(evaluate_closed(SeriesKind.COSINE, 0.5, 1.0).value)


@pytest.mark.parametrize("phi", [1.0, [1.0, 2.0]])
def test_evaluate_closed_rejects_an_unknown_kind(phi):
    with pytest.raises(ValueError):
        evaluate_closed("tan", 2, phi)


def test_reduced_forms_match_general_closed_form():
    for m in range(1, 8):
        for phi in SAFE_GRID:
            lhs = reduced_neg_int(m, phi).value
            rhs = evaluate_closed("cos", -m, phi).value
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_reduced_form_special_points():
    # m = 1 has no branch of its own: cos(phi/2) / (2 cos(phi/2)) is exactly 1/2
    near_half_turn = [s * math.pi * (1.0 - 2.0 ** -k) for k in range(1, 53) for s in (1.0, -1.0)]
    for phi in [math.radians(0.1 * d) for d in range(-1799, 1800)] + near_half_turn:
        assert reduced_neg_int(1, phi) == ClosedFormValue(0.5), phi
    assert reduced_neg_int(2, 0.5 * math.pi).value == pytest.approx(0.0, abs=1e-16)
    # the two published shapes of the m=3 reduction agree, and both vanish
    # at a third of a turn
    assert reduced_neg_int(3, math.pi / 3.0).value == pytest.approx(0.0, abs=1e-15)


def test_reduced_neg_int_m3_alternate_algebraic_form():
    for phi in SAFE_GRID:
        lhs = reduced_neg_int(3, phi).value
        rhs = (-1.0 + 2.0 * math.cos(phi)) / (4.0 * (1.0 + math.cos(phi)))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_reduced_rejects_out_of_range_m():
    with pytest.raises(ValueError):
        reduced_neg_int(0, 1.0)
    with pytest.raises(ValueError):
        reduced_neg_int(8, 1.0)


def test_quarter_turn_integer_values_are_exact():
    expected = {0: 1.0, 1: 1.0, 2: 0.0, 3: -2.0, 4: -4.0, 5: -4.0, 6: 0.0, 7: 8.0, 8: 16.0}
    for n, v in expected.items():
        assert quarter_turn_sum(n).value == v
    assert quarter_turn_sum(-1).value == 0.5
    assert quarter_turn_sum(-5).value == -0.125
    # every integer down past the subnormals and up to the largest finite value,
    # against 2**(n/2) * cos(n*pi/4) at 60 digits, rounded once; +0.0 at n = 2, 6 mod 8
    with mp.workdps(60):
        for n in range(-2200, 2048):
            exact = 0.0 if n % 8 in (2, 6) else float(mp.power(2, mp.mpf(n) / 2) * mp.cospi(mp.mpf(n) / 4))
            assert quarter_turn_sum(n).value.hex() == exact.hex(), n


def test_quarter_turn_matches_general_closed_form():
    for n in list(range(-6, 9)) + [0.5, -0.5]:
        qt = quarter_turn_sum(n).value
        general = evaluate_closed("cos", n, 0.5 * math.pi).value
        assert abs(qt - general) <= 1e-12 * (1.0 + abs(general))


def test_lambda_series_values():
    assert lambda_series_closed(1).value == 0.5
    assert lambda_series_closed(5).value == -0.125
    assert lambda_series_closed(0).value == 1.0


def test_lambda_mirrors_quarter_turn():
    for lam in [*range(-2100, 2200), 0.5, 1.25, 3.75, -2048.5]:
        mirror, quarter = lambda_series_closed(lam), quarter_turn_sum(-lam)
        assert mirror.value.hex() == quarter.value.hex(), lam


def test_pythagorean_closure_sample():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = rng.uniform(-3.0, 3.0)
        phi = rng.uniform(-3.0, 3.0)
        c = evaluate_closed("cos", n, phi).value
        s = evaluate_closed("sin", n, phi).value
        rhs = (2.0 * math.cos(0.5 * phi)) ** (2.0 * n)
        assert abs(c * c + s * s - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_catalog_structure():
    cat = special_value_catalog()
    assert len(cat) == 7
    assert all(e.spec.kind is SeriesKind.COSINE for e in cat)
    divergent = [e for e in cat if e.divergent]
    assert len(divergent) == 1
    assert divergent[0].spec.n == -0.5 and divergent[0].spec.phi == math.pi
    assert divergent[0].value is None
    for e in cat:
        if not e.divergent:
            assert math.isfinite(e.value)


def test_catalog_values_are_their_radicals_rounded():
    # the description is the recipe: evaluated at 50 digits, it gives the stored bits
    for e in special_value_catalog():
        if not e.divergent:
            with mp.workdps(50):
                exact = eval(e.description, {"__builtins__": {}}, {"sqrt": mp.sqrt})
            assert e.value.hex() == float(exact).hex(), e.description


def test_catalog_values_match_radical_algebra():
    cat = {(e.spec.n, e.spec.phi): e.value for e in special_value_catalog()
           if not e.divergent}
    assert cat[(0.5, 0.0)] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert cat[(0.5, math.pi)] == 0.0
    assert cat[(0.5, 0.5 * math.pi)] == pytest.approx(math.sqrt((1 + math.sqrt(2)) / 2), rel=1e-15)
    assert cat[(0.5, math.pi / 3.0)] == pytest.approx(0.5 * math.sqrt(3 + 2 * math.sqrt(3)), rel=1e-15)
    assert cat[(-0.5, 0.0)] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert cat[(-0.5, 0.5 * math.pi)] == pytest.approx(0.5 * math.sqrt(1 + math.sqrt(2)), rel=1e-15)


def test_catalog_in_domain_entries_match_closed_form():
    for e in special_value_catalog():
        if e.divergent or e.spec.phi >= math.pi:
            continue
        closed = evaluate_closed("cos", e.spec.n, e.spec.phi).value
        assert closed == pytest.approx(e.value, rel=1e-13)


def test_reduced_neg_int_m3_third_turn_abel_oracle():
    # independent summability check of the m=3 zero at a third of a turn
    res = abel_sum(SeriesSpec(SeriesKind.COSINE, -3, math.pi / 3.0))
    assert res.value == pytest.approx(0.0, abs=1e-8)


#: Angles where the closed form changes branch or loses bits: the half and
#: one and a half turns and their neighbours (where base**n underflows for
#: n <= -22), signed zeros, subnormals, the largest grid angles, and the
#: overflow angles: at +-0.0025 and n = 1025 the power alone is past the
#: doubles but its product with the trigonometric factor is not.
_EDGE_ANGLES = [math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, math.nextafter(math.pi, 0.0),
                math.nextafter(-math.pi, 0.0), math.nextafter(3.0 * math.pi, 0.0), 0.0, -0.0,
                5e-324, -5e-324, 2.0 ** -1030, math.radians(179.0), math.radians(-179.9),
                0.0025, -0.0025, 2.0 * math.pi + 0.0025, 1.0]
_SHIPPED_GRIDS = [tuple(map(math.radians, _grid_deg(-179.0, 179.0, step))) for step in (1.0, 0.1)]
_EXPONENTS = st.one_of(st.integers(-64, 64).map(float), st.just(-0.0),
                       st.sampled_from([0.5, -0.5, 1.5, -2.5, 7.3, -0.25]),
                       st.sampled_from([1024.0, 1025.0, -1025.0, 1100.0, 1024.5, -1100.5]))


def _closed_hex(kind, n, phis):
    return [evaluate_closed(kind, n, phi).value.hex() for phi in phis]


def _grid_hex(kind, n, phis):
    grid = evaluate_closed(kind, n, phis)
    assert grid.value.shape == (len(phis),)
    return [v.hex() for v in grid.value.tolist()]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(SeriesKind)), n=_EXPONENTS,
       phis=st.lists(st.one_of(st.sampled_from(_EDGE_ANGLES), st.floats(-10.0, 10.0),
                               st.sampled_from(_SHIPPED_GRIDS[0] + _SHIPPED_GRIDS[1])), max_size=12))
def test_a_sequence_of_angles_gives_each_angle_the_bits_of_its_own_call(kind, n, phis):
    assert _grid_hex(kind, n, phis) == _closed_hex(kind, n, phis)


@pytest.mark.parametrize("n", [-64.0, -21.0, -6.0, -1.0, -0.0, 0.0, 1.0, 10.0, 20.0, 64.0, 0.5, -1.5])
def test_the_shipped_grids_give_each_angle_the_bits_of_its_own_call(n):
    # another numpy build or CPU could take another SIMD path for the products
    for kind in SeriesKind:
        for phis in _SHIPPED_GRIDS:
            assert _grid_hex(kind, n, phis) == _closed_hex(kind, n, phis)


def test_a_grid_leaves_its_angles_and_takes_any_sequence():
    phis = np.array([1.0, math.pi, -2.0])
    for seq in (phis, phis.tolist(), tuple(phis.tolist())):
        grid = evaluate_closed("cos", -3.0, seq)
        assert np.isnan(grid.value).tolist() == [False, True, False]
    assert phis.tolist() == [1.0, math.pi, -2.0]
    assert evaluate_closed("sin", 4.0, []).value.shape == (0,)
    for one in (np.array(1.0), np.float32(1.0), np.int64(1)):  # one angle, not a sequence
        assert evaluate_closed("cos", -3.0, one) == evaluate_closed("cos", -3.0, float(one))


def test_an_underflowed_negative_power_overflows_to_an_infinity():
    # at n = -64 next to the half turn, (2 cos(phi/2))**64 underflows to 0
    near = math.nextafter(math.pi, 0.0)
    assert evaluate_closed("cos", -64.0, near).value == math.inf
    assert evaluate_closed("cos", -63.0, math.nextafter(3.0 * math.pi, 0.0)).value in (math.inf, -math.inf)
    # a fractional exponent past the doubles gives the signed infinity an integer one does
    assert evaluate_closed("cos", 1100.5, 0.0) == evaluate_closed("cos", 1100.0, 0.0) == ClosedFormValue(math.inf)
    assert evaluate_closed("cos", 1100.5, math.radians(1.0)).value == -math.inf  # cos(1100.5 * 0.5 deg) < 0
    assert evaluate_closed("sin", 1100.5, [0.2, 0.3]).value.tolist() == [-math.inf, math.inf]
    # where only the power passes the doubles, the product with the trig factor stays finite:
    # 2**1024.5 cos(0.001)**1024.5 cos(1.0245) is about 1.32e308, and its sine twin 2.17e308
    with mp.workdps(60):
        n, phi = mp.mpf(1024.5), mp.mpf(0.002)
        exact = float(mp.power(2 * mp.cos(phi / 2), n) * mp.cos(n * phi / 2))
    assert evaluate_closed("cos", 1024.5, 0.002).value == pytest.approx(exact, rel=1e-12)
    assert evaluate_closed("sin", 1024.5, 0.002).value == math.inf
    # so does an integer n's: 2**1025 cos(0.00125)**1025 cos(1.28125) is about 1.0257e308
    with mp.workdps(60):
        exact = float(mp.power(2 * mp.cos(mp.mpf(0.0025) / 2), 1025) * math.cos(0.5 * 1025 * 0.0025))
    assert exact == pytest.approx(1.0257e308, rel=1e-4)
    assert evaluate_closed("cos", 1025.0, 0.0025).value == pytest.approx(exact, rel=1e-12)
    assert evaluate_closed("cos", 1025.0, [1.0, 0.0025]).value[1] == pytest.approx(exact, rel=1e-12)
    # the sine series at phi = 0 sums to exactly 0, however large its power
    for n in (1024.0, 1024.5, 1100.0, 1100.5):
        assert evaluate_closed("sin", n, 0.0) == ClosedFormValue(0.0), n
    # at phi = pi/1024.5 the trig factor is cos(pi/2) as rounded, about 6e-17; it is kept, not
    # lost to inf * 6e-17 (cos of a rounded n*phi/2 this close to its zero is the formula's own error)
    phi = math.pi / 1024.5
    with mp.workdps(60):
        kept = float(mp.power(2 * mp.cos(mp.mpf(phi) / 2), 1024.5) * math.cos(0.5 * 1024.5 * phi))
    assert evaluate_closed("cos", 1024.5, phi).value == pytest.approx(kept, rel=1e-12)
    # so does the quarter-turn sum of an integer n from 2048 on, but at its zeros, and its lambda mirror
    assert [quarter_turn_sum(n).value for n in range(2048, 2056)] == [
        math.inf, math.inf, 0.0, -math.inf, -math.inf, -math.inf, 0.0, math.inf]
    assert lambda_series_closed(-2048).value == math.inf and lambda_series_closed(-2051).value == -math.inf
    # a fractional n past 2048 is finite while 2**(n/2) cos(n*45 deg) is: n = 2049.5 and 2050.5 are
    # about 1.16e308 and -1.64e308 (cos(n*45 deg) is taken from a rounded n*pi/4, as below 2048)
    with mp.workdps(60):
        for n in (2049.5, 2050.5):
            exact = float(mp.power(2, mp.mpf(n) / 2) * mp.cospi(mp.mpf(n) / 4))
            assert quarter_turn_sum(n).value == pytest.approx(exact, rel=2e-12), n
    assert quarter_turn_sum(2048.5).value == math.inf and quarter_turn_sum(2051.5).value == -math.inf


def test_an_angle_a_double_cannot_place_is_refused_inside_the_domain():
    # past |n*phi/2| = 2**53 the rounded angle is off by up to a radian: a +-inf at n = 1e17
    # would take its sign from that noise, and at n = 1e308, phi = 7 math.cos(inf) raises ValueError
    for kind, n, phi in (("cos", 1e308, 7.0), ("cos", 1e17, 1.0), ("sin", 1e17, 7.0), ("cos", 2.0 ** 53, 2.0),
                         ("sin", -2.0 ** 60, -0.5), ("cos", -1e17, math.nextafter(math.pi, 0.0))):
        with pytest.raises(DomainError, match=rf"phi={re.escape(repr(phi))}"):
            evaluate_closed(kind, n, phi)
    # just below the bound it is a value, and outside the domain it stays nan
    assert not math.isnan(evaluate_closed("cos", 2.0 ** 53, math.nextafter(2.0, 0.0)).value)
    for phi in (math.pi, -math.pi, 3.0 * math.pi):
        assert math.isnan(evaluate_closed("cos", -1e17, phi).value)


def test_a_grid_refuses_as_its_first_refused_angle_does():
    # phi = 0 and 1e-300 are in reach (at 1e-300 only past the doubles); the half turn is
    # refused for n > 0 and nan for n < 0, so there the grid is refused at phi = 1; at
    # n = +-1e308, n*phi/2 is inf at phi = 7, where math.cos would raise ValueError
    phis = [0.0, 1e-300, math.pi, 1.0, 7.0]
    for n, first in ((1e17, math.pi), (-1e17, 1.0), (1e308, math.pi), (-1e308, 1.0)):
        for kind in ("cos", "sin"):
            with pytest.raises(DomainError) as alone:
                evaluate_closed(kind, n, first)
            with pytest.raises(DomainError) as grid:
                evaluate_closed(kind, n, phis)
            assert str(grid.value) == str(alone.value)
    assert np.isnan(evaluate_closed("cos", -1e17, [math.pi, -math.pi]).value).all()
    assert evaluate_closed("cos", -1e17, [math.pi, 0.0]).value[1] == 0.0


def _boundary_exponents():
    for n in (*range(1000, 1101, 5), 1024, 1025, 1029):
        for m in (n, -n, n + 0.5, -n - 0.5):
            yield float(m)


def _boundary_angles(n, rng):
    """phi = 0, +-0.0025, random angles in the domain and, for integer n, in (pi, 3pi)."""
    inside = rng.uniform(-math.pi, math.pi, 6).tolist()
    beyond = rng.uniform(math.pi, 3.0 * math.pi, 6).tolist() if float(n).is_integer() else []
    return [0.0, -0.0, 0.0025, -0.0025, *inside, *beyond]


def _reference(kind, n, phi):
    """The 60-digit power times the double trigonometric factor, and that factor."""
    trig = math.sin(0.5 * n * phi) if kind == "sin" else math.cos(0.5 * n * phi)
    with mp.workdps(60):
        return mp.power(2 * mp.cos(mp.mpf(phi) / 2), n) * trig, trig


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_closed_forms_across_the_overflow_boundary(kind):
    rng = np.random.default_rng(1024)
    for n in _boundary_exponents():
        phis = _boundary_angles(n, rng)
        grid = evaluate_closed(kind, n, phis)
        for i, phi in enumerate(phis):
            closed = evaluate_closed(kind, n, phi)
            assert closed.value.hex() == grid.value[i].hex(), (n, phi)
            assert not math.isnan(closed.value), (n, phi)
            exact, trig = _reference(kind, n, phi)
            if trig == 0.0:
                assert closed.value == 0.0, (n, phi)  # +-0, not inf * 0
            elif not math.isfinite(float(exact)):
                assert closed.value == math.copysign(math.inf, exact), (n, phi)
            elif abs(exact) >= 2.0 ** -1022:
                assert closed.value == pytest.approx(float(exact), rel=1e-12), (n, phi)
            else:  # the power underflows; no relative bound below the normal doubles
                assert abs(closed.value - float(exact)) <= 2.0 ** -1022, (n, phi)


@pytest.mark.parametrize("n", [*_boundary_exponents(), -1.0, -3.0, -64.0, -0.5, 0.5, 2.0])
def test_a_closed_form_is_nan_exactly_outside_its_domain(n):
    phis = [math.pi, -math.pi, 3.0 * math.pi, math.nextafter(math.pi, 0.0), 0.0, 1.0, 4.0, -7.0, 2.0 ** -1030]
    # the domain, written out: integer n < 0 leaves out the half turns (odd multiples of pi),
    # integer n >= 0 nothing, and fractional n everything outside (-pi, pi)
    if not n.is_integer():
        outside = [not -math.pi < phi < math.pi for phi in phis]
    else:
        outside = [n < 0 and phi in (math.pi, -math.pi, 3.0 * math.pi) for phi in phis]
    for kind in ("cos", "sin"):
        grid = evaluate_closed(kind, n, phis)
        assert np.isnan(grid.value).tolist() == outside, (kind, n)
        assert [math.isnan(evaluate_closed(kind, n, phi).value) for phi in phis] == outside, (kind, n)
