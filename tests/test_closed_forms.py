import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigsum import (
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
    return math.isnan(closed.value) and closed.domain_ok is False


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
    bad = evaluate_closed(SeriesKind.COSINE, 0.5, math.pi)
    assert not bad.domain_ok
    assert math.isnan(bad.value)
    good = evaluate_closed(SeriesKind.COSINE, 0.5, 1.0)
    assert good.domain_ok


def test_reduced_forms_match_general_closed_form():
    for m in range(1, 8):
        for phi in SAFE_GRID:
            lhs = reduced_neg_int(m, phi).value
            rhs = evaluate_closed("cos", -m, phi).value
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_reduced_form_special_points():
    assert reduced_neg_int(1, 0.123).value == 0.5
    assert reduced_neg_int(1, 2.9).value == 0.5
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
    for lam in range(0, 7):
        assert abs(lambda_series_closed(lam).value
                   - quarter_turn_sum(-lam).value) <= 1e-14
    for lam in (0.5, 1.25, 3.75):
        assert abs(lambda_series_closed(lam).value
                   - quarter_turn_sum(-lam).value) <= 1e-14


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
    # every finite entry carries a recipe and a derived decimal
    for e in cat:
        if not e.divergent:
            assert e.recipe is not None
            assert math.isfinite(e.value)


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
#: n <= -22), signed zeros, subnormals and the largest grid angles.
_EDGE_ANGLES = [math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, math.nextafter(math.pi, 0.0),
                math.nextafter(-math.pi, 0.0), math.nextafter(3.0 * math.pi, 0.0), 0.0, -0.0,
                5e-324, -5e-324, 2.0 ** -1030, math.radians(179.0), math.radians(-179.9)]
_SHIPPED_GRIDS = [tuple(map(math.radians, _grid_deg(-179.0, 179.0, step))) for step in (1.0, 0.1)]
_EXPONENTS = st.one_of(st.integers(-64, 64).map(float), st.just(-0.0),
                       st.sampled_from([0.5, -0.5, 1.5, -2.5, 7.3, -0.25]))


def _closed_hex(kind, n, phis):
    alone = [evaluate_closed(kind, n, phi) for phi in phis]
    return [(closed.value.hex(), closed.domain_ok) for closed in alone]


def _grid_hex(kind, n, phis):
    grid = evaluate_closed(kind, n, phis)
    assert grid.value.shape == grid.domain_ok.shape == (len(phis),)
    return [(v.hex(), ok) for v, ok in zip(grid.value.tolist(), grid.domain_ok.tolist())]


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
        assert grid.domain_ok.tolist() == [True, False, True] and math.isnan(grid.value[1])
    assert phis.tolist() == [1.0, math.pi, -2.0]
    empty = evaluate_closed("sin", 4.0, [])
    assert empty.value.shape == empty.domain_ok.shape == (0,)
    for one in (np.array(1.0), np.float32(1.0), np.int64(1)):  # one angle, not a sequence
        assert evaluate_closed("cos", -3.0, one) == evaluate_closed("cos", -3.0, float(one))


def test_an_underflowed_negative_power_overflows_to_an_infinity():
    # at n = -64 next to the half turn, (2 cos(phi/2))**64 underflows to 0
    near = math.nextafter(math.pi, 0.0)
    closed = evaluate_closed("cos", -64.0, near)
    assert closed.domain_ok and closed.value == math.inf
    assert evaluate_closed("cos", -63.0, math.nextafter(3.0 * math.pi, 0.0)).value in (math.inf, -math.inf)
