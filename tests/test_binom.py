import math

import pytest
from hypothesis import assume, given, strategies as st

from trigsum import binom_prefix, gen_binom, is_integer_exponent
from trigsum.binom import gen_binom_exact


def test_identity_cases():
    assert gen_binom(0, 0) == 1.0
    assert gen_binom(5.5, 0) == 1.0
    assert gen_binom(-2, 0) == 1.0


def test_half_integer_coefficients():
    # (1/2 | 2) = (1/2)(-1/2)/2 and (-1/2 | 3) = (-1/2)(-3/2)(-5/2)/6
    assert gen_binom(0.5, 2) == -0.125
    assert gen_binom(-0.5, 3) == -0.3125
    assert gen_binom(0.5, 3) == 0.0625


def test_negative_integer_rows():
    assert gen_binom(-3, 4) == 15.0
    assert gen_binom(-2, 5) == -6.0


def test_vanishing_and_negative_index():
    assert gen_binom(3, 5) == 0.0
    assert gen_binom(3, 4) == 0.0
    assert gen_binom(7, -1) == 0.0
    assert gen_binom(-0.5, -3) == 0.0


def test_prefix_matches_elementwise():
    assert binom_prefix(4, 6) == [1.0, 4.0, 6.0, 4.0, 1.0, 0.0]
    assert binom_prefix(-2, 6) == [1.0, -2.0, 3.0, -4.0, 5.0, -6.0]
    assert binom_prefix(3.0, 0) == []
    pre = binom_prefix(0.5, 12)
    for k, v in enumerate(pre):
        assert v == pytest.approx(gen_binom(0.5, k), rel=1e-15, abs=0.0)


def test_prefix_rejects_negative_count():
    with pytest.raises(ValueError):
        binom_prefix(2.0, -1)


def test_symmetry_integer_rows():
    for n in range(0, 31):
        for k in range(0, n + 1):
            assert gen_binom(n, k) == gen_binom(n, n - k)


def test_row_sums_are_powers_of_two():
    for n in range(0, 31):
        assert math.fsum(binom_prefix(n, n + 1)) == 2.0 ** n


def test_negative_upper_index_reflection():
    # (-m | k) = (-1)^k (m+k-1 | k), exactly
    for m in range(1, 7):
        for k in range(0, 41):
            lhs = gen_binom_exact(-m, k)
            rhs = (-1) ** k * math.comb(m + k - 1, k)
            assert lhs == rhs
            assert gen_binom(-m, k) == float(rhs)


def test_beyond_exact_limit_falls_back_to_recurrence():
    # still accurate, just not exact
    assert gen_binom(65, 3) == pytest.approx(math.comb(65, 3), rel=1e-12)
    assert gen_binom(-70, 2) == pytest.approx(math.comb(71, 2), rel=1e-12)
    # the vanishing rule survives the fallback: the factor n - k hits zero
    assert gen_binom(65, 70) == 0.0


def test_is_integer_exponent_is_exact():
    assert is_integer_exponent(3.0)
    assert is_integer_exponent(-7)
    assert not is_integer_exponent(2.9999999)
    assert not is_integer_exponent(0.5)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.integers(min_value=0, max_value=30))
def test_pascal_relation_within_8_ulps(n, k):
    # n + 1 must stay exact in floats or the two sides see different exponents
    assume((n + 1.0) - 1.0 == n)
    a = gen_binom(n, k)
    b = gen_binom(n, k + 1)
    c = gen_binom(n + 1, k + 1)
    scale = max(abs(a), abs(b), abs(c), 1.0e-300)
    assert abs((a + b) - c) <= 8.0 * math.ulp(scale)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=60))
def test_prefix_agrees_with_exact_integers(n, count):
    pre = binom_prefix(n, count)
    assert pre == [float(gen_binom_exact(n, k)) for k in range(count)]
