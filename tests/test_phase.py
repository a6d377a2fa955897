import math

import pytest

from trigsum import (
    binom_prefix,
    binomial_phase_power,
    evaluate_closed,
    phase_point,
    series_at_phase,
)

GRID = [math.radians(d) for d in range(-179, 180, 3)]


def test_phase_pair_axis_cases():
    p = phase_point(0.0)
    assert (p.real, p.imag) == (1.0, 0.0)
    assert p.conjugate() == complex(1.0, -0.0)
    p = phase_point(0.5 * math.pi)
    assert p.imag == 1.0
    assert abs(p.real) < 1e-16


def test_phase_pair_product_is_unity():
    for phi in (math.pi / 3.0, 1.0, -2.4):
        p = phase_point(phi)
        prod = p * p.conjugate()
        assert abs(prod.real - 1.0) <= 1e-15
        assert prod.imag == 0.0
        assert abs(p.real * p.real + p.imag * p.imag - 1.0) <= 1e-15


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
        p = phase_point(phi)
        dp = horner(coeffs, p)
        dq = horner(coeffs, p.conjugate())
        diff = dq - dp.conjugate()
        assert math.hypot(diff.real, diff.imag) <= 1e-13 * scale
        cos_sum, sin_sum = series_at_phase(coeffs, phi)
        assert math.isfinite(cos_sum) and math.isfinite(sin_sum)


def test_half_angle_factorisation():
    # 1 + p = (sqrt(p) + sqrt(q)) sqrt(p) on the principal branch
    for phi in GRID:
        root = phase_point(0.5 * phi)
        lhs = 1.0 + phase_point(phi)
        rhs = (root + root.conjugate()) * root
        assert abs(lhs.real - rhs.real) <= 1e-13
        assert abs(lhs.imag - rhs.imag) <= 1e-13


def test_moment_identity_half_integer_powers():
    # p^alpha + q^alpha = 2 cos(alpha phi) for alpha in half-integer steps,
    # with p^alpha built from integer powers of the half-angle point
    for phi in [math.radians(d) for d in range(-175, 176, 25)]:
        root = phase_point(0.5 * phi)
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
