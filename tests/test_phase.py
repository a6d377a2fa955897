import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigsum import (
    binom_prefix,
    binomial_phase_power,
    evaluate_closed,
    series_at_phase,
)

GRID = [math.radians(d) for d in range(-179, 180, 3)]


def _point(x):
    """The unit-circle point cos(x) + i sin(x)."""
    return complex(math.cos(x), math.sin(x))


def test_series_at_phase_constant():
    for phi in (0.0, 1.0, -2.0):
        assert series_at_phase([1.0], phi) == (1.0, 0.0)


def test_series_at_phase_row_two():
    cos_sum, sin_sum = series_at_phase([1.0, 2.0, 1.0], math.pi / 3.0)
    assert cos_sum == pytest.approx(1.5, abs=1e-15)
    expected_sin = 2.0 * math.sin(math.pi / 3.0) + math.sin(2.0 * math.pi / 3.0)
    assert sin_sum == pytest.approx(expected_sin, abs=1e-15)


def test_series_at_phase_row_three_quarter_turn():
    cos_sum, _ = series_at_phase([1.0, 3.0, 3.0, 1.0], 0.5 * math.pi)
    assert cos_sum == pytest.approx(-2.0, abs=1e-14)


def test_series_at_phase_input_validation():
    with pytest.raises(ValueError):
        series_at_phase([], 1.0)
    with pytest.raises(ValueError):
        series_at_phase([1.0, math.inf], 1.0)


def test_binomial_phase_power_low_rows():
    assert binomial_phase_power(0, 1.234) == (1.0, 0.0)
    for phi in (0.7, -1.9):
        c, s = binomial_phase_power(1, phi)
        assert c == pytest.approx(1.0 + math.cos(phi), abs=1e-15)
        assert s == pytest.approx(math.sin(phi), abs=1e-15)


def test_binomial_phase_power_fourth_row():
    # (1 + i)^4 = -4: the sine series of row four vanishes at a quarter turn
    c, s = binomial_phase_power(4, 0.5 * math.pi)
    assert c == pytest.approx(-4.0, abs=1e-14)
    assert s == pytest.approx(0.0, abs=1e-14)


def test_binomial_phase_power_preconditions():
    with pytest.raises(ValueError):
        binomial_phase_power(-1, 1.0)
    with pytest.raises(ValueError):
        binomial_phase_power(65, 1.0)
    with pytest.raises(ValueError):
        binomial_phase_power(1.5, 1.0)


def test_conjugate_reality_of_horner_path():
    # for real coefficients, evaluating at q mirrors evaluating at p
    def horner(coeffs, z):
        acc = complex(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * z + c
        return acc

    coeffs = binom_prefix(9, 10)
    scale = sum(abs(c) for c in coeffs)
    for phi in GRID:
        p = _point(phi)
        dp = horner(coeffs, p)
        dq = horner(coeffs, p.conjugate())
        diff = dq - dp.conjugate()
        assert math.hypot(diff.real, diff.imag) <= 1e-13 * scale
        cos_sum, sin_sum = series_at_phase(coeffs, phi)
        assert math.isfinite(cos_sum) and math.isfinite(sin_sum)


def test_half_angle_factorisation():
    # 1 + p = (sqrt(p) + sqrt(q)) sqrt(p) on the principal branch
    for phi in GRID:
        root = _point(0.5 * phi)
        lhs = 1.0 + _point(phi)
        rhs = (root + root.conjugate()) * root
        assert abs(lhs.real - rhs.real) <= 1e-13
        assert abs(lhs.imag - rhs.imag) <= 1e-13


def test_moment_identity_half_integer_powers():
    # p^alpha + q^alpha = 2 cos(alpha phi) for alpha in half-integer steps,
    # with p^alpha built from integer powers of the half-angle point
    for phi in [math.radians(d) for d in range(-175, 176, 25)]:
        root = _point(0.5 * phi)
        for twice_alpha in range(1, 17):
            alpha = 0.5 * twice_alpha
            za = root ** twice_alpha
            assert abs(2.0 * za.real - 2.0 * math.cos(alpha * phi)) <= 1e-12
            assert abs(2.0 * za.imag - 2.0 * math.sin(alpha * phi)) <= 1e-12


def test_path_agreement_with_row_polynomial():
    for n in range(0, 21):
        coeffs = binom_prefix(n, n + 1)
        bound = 1e-12 * 2.0 ** n
        for phi in GRID:
            pc, ps = binomial_phase_power(n, phi)
            hc, hs = series_at_phase(coeffs, phi)
            assert abs(pc - hc) <= bound
            assert abs(ps - hs) <= bound


def test_path_agreement_with_closed_forms():
    for n in (0, 3, 10, 17):
        bound = 1e-12 * 2.0 ** n
        for phi in GRID:
            pc, ps = binomial_phase_power(n, phi)
            assert abs(pc - evaluate_closed("cos", n, phi).value) <= bound
            assert abs(ps - evaluate_closed("sin", n, phi).value) <= bound


def _bits(pair):
    # hex keeps the sign of a zero
    return tuple(float(v).hex() for v in pair)


def _complex_horner(coeffs, phi):
    # the conjugate-pair sums on CPython's complex, step for step
    p = complex(math.cos(phi), math.sin(phi))
    q = p.conjugate()
    dp = dq = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        dp = dp * p + c
        dq = dq * q + c
    return (dp.real + dq.real) / 2.0, (dp.imag - dq.imag) / 2.0


_ANGLES = st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi]),
                   min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 64), phis=_ANGLES)
def test_phase_power_kernel_has_the_bits_of_cpython_complex_power(n, phis):
    grid = binomial_phase_power(n, np.array(phis))
    for j, phi in enumerate(phis):
        z = (1 + complex(math.cos(phi), math.sin(phi))) ** n
        assert _bits(binomial_phase_power(n, phi)) == _bits((z.real, z.imag))
        assert _bits((grid[0][j], grid[1][j])) == _bits((z.real, z.imag))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 20), phis=_ANGLES)
def test_phase_series_kernel_has_the_bits_of_a_complex_horner_loop(n, phis):
    coeffs = binom_prefix(n, n + 1)
    grid = series_at_phase(coeffs, phis)
    for j, phi in enumerate(phis):
        expected = _bits(_complex_horner(coeffs, phi))
        assert _bits(series_at_phase(coeffs, phi)) == expected
        assert _bits((grid[0][j], grid[1][j])) == expected


def _complex_horner_at_p(coeffs, phi):
    # (Re, Im) of one Horner loop at p on CPython's complex
    acc = complex(coeffs[-1])
    p = _point(phi)
    for c in reversed(coeffs[:-1]):
        acc = acc * p + c
    return acc.real, acc.imag


_EDGE_COEFFS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300]
_ROWS = st.lists(st.floats(-1e300, 1e300) | st.sampled_from(_EDGE_COEFFS), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(coeffs=_ROWS, phis=_ANGLES)
def test_phase_series_is_one_complex_horner_pass_at_p_on_any_finite_row(coeffs, phis):
    grid = series_at_phase(coeffs, phis)
    for j, phi in enumerate(phis):
        expected = _bits(_complex_horner_at_p(coeffs, phi))
        assert _bits(series_at_phase(coeffs, phi)) == expected
        assert _bits((grid[0][j], grid[1][j])) == expected


@pytest.mark.parametrize("as_angles", [tuple, list, np.array])
def test_a_sequence_of_angles_gives_arrays_of_the_one_angle_bits(as_angles):
    phis = [-math.pi, -2.0, -0.0, 0.0, 1e-3, 0.5 * math.pi, 3.0]
    for func, first in [(series_at_phase, [-0.0]), (series_at_phase, binom_prefix(7, 8)),
                        (binomial_phase_power, 0), (binomial_phase_power, 9)]:
        grid = func(first, as_angles(phis))
        assert all(isinstance(v, np.ndarray) and v.shape == (len(phis),) for v in grid)
        for j, phi in enumerate(phis):
            one = func(first, phi)
            assert all(type(v) is float for v in one)
            assert _bits((grid[0][j], grid[1][j])) == _bits(one)
