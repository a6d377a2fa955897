import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from trigsum import (
    PARTIAL_TERM_BUDGET,
    CaseCheck,
    ConvergenceClass,
    DivergentSeriesError,
    DomainError,
    ExpectedSource,
    SeriesKind,
    SeriesSpec,
    SuiteCase,
    SummationMethod,
    abel_sum,
    binomial_phase_power,
    cesaro_sum,
    classify,
    evaluate,
    partial_sum,
)
from trigsum.series import SUMMATION_METHODS, evaluate_grid, trig_values
from trigsum.suites import run_cases

COS = SeriesKind.COSINE
SIN = SeriesKind.SINE


# ---------------------------------------------------------------- classify

@pytest.mark.parametrize("spec,expected", [
    (SeriesSpec(COS, 5, 1.0), ConvergenceClass.FINITE),
    (SeriesSpec(COS, 0, 2.9), ConvergenceClass.FINITE),
    (SeriesSpec(COS, 2.5, 1.0), ConvergenceClass.ABSOLUTELY_CONVERGENT),
    (SeriesSpec(COS, 0.5, math.pi), ConvergenceClass.ABSOLUTELY_CONVERGENT),
    (SeriesSpec(COS, -0.5, math.pi), ConvergenceClass.DIVERGENT),
    (SeriesSpec(COS, -0.5, -math.pi), ConvergenceClass.DIVERGENT),
    (SeriesSpec(COS, -0.5, 2.0), ConvergenceClass.CONDITIONALLY_CONVERGENT),
    (SeriesSpec(COS, -0.5, 0.0), ConvergenceClass.CONDITIONALLY_CONVERGENT),
    (SeriesSpec(COS, -1, 0.5 * math.pi), ConvergenceClass.SUMMABLE_ONLY),
    (SeriesSpec(COS, -1, 0.0), ConvergenceClass.SUMMABLE_ONLY),
    (SeriesSpec(COS, -1.5, 0.0), ConvergenceClass.SUMMABLE_ONLY),
    (SeriesSpec(COS, -2, math.pi), ConvergenceClass.DIVERGENT),
    (SeriesSpec(COS, -1.5, math.pi), ConvergenceClass.DIVERGENT),
    # the sine series vanishes identically at multiples of a half turn
    (SeriesSpec(SIN, -0.5, math.pi), ConvergenceClass.ABSOLUTELY_CONVERGENT),
    (SeriesSpec(SIN, -2.5, 0.0), ConvergenceClass.ABSOLUTELY_CONVERGENT),
    (SeriesSpec(SIN, -2, 1.0), ConvergenceClass.SUMMABLE_ONLY),
])
def test_classify_table(spec, expected):
    assert classify(spec) is expected


@pytest.mark.parametrize("phi", [math.nan, -math.inf])
def test_partial_sum_at_non_finite_angle_is_a_domain_error(phi):
    with pytest.raises(DomainError):
        partial_sum(SeriesSpec(COS, 0.5, phi), 10)


def test_classify_recognizes_shifted_half_turns():
    assert classify(SeriesSpec(COS, -0.5, math.radians(180.0))) is ConvergenceClass.DIVERGENT
    assert classify(SeriesSpec(COS, -0.5, math.radians(-180.0))) is ConvergenceClass.DIVERGENT


# ---------------------------------------------------------------- partial

def test_partial_row_sum_at_zero_angle():
    res = partial_sum(SeriesSpec(COS, 2, 0.0), 3)
    assert res.value == 4.0
    assert res.convergence is ConvergenceClass.FINITE


def test_partial_quarter_turn_row_four():
    res = partial_sum(SeriesSpec(COS, 4, 0.5 * math.pi), 5)
    assert res.value == pytest.approx(-4.0, abs=1e-13)


def test_partial_sine_row_three():
    # 3 sin(phi) + 3 sin(2 phi) + sin(3 phi) at a quarter turn
    res = partial_sum(SeriesSpec(SIN, 3, 0.5 * math.pi), 4)
    assert res.value == pytest.approx(2.0, abs=1e-13)


def test_partial_requires_positive_terms():
    with pytest.raises(ValueError):
        partial_sum(SeriesSpec(COS, 2, 1.0), 0)


def test_partial_termination_is_exact():
    # coefficients beyond k = n vanish exactly, so longer budgets change nothing
    for n in (0, 3, 7):
        for phi in (0.3, 1.7, -2.5):
            spec = SeriesSpec(COS, n, phi)
            assert partial_sum(spec, n + 1).value == partial_sum(spec, n + 40).value


@settings(max_examples=150)
@given(st.floats(min_value=-4, max_value=4, allow_nan=False),
       st.floats(min_value=-3.2, max_value=3.2, allow_nan=False),
       st.integers(min_value=1, max_value=60))
def test_partial_parity_is_exact(n, phi, terms):
    # mirrored values, or both rows refused (None)
    def value(spec):
        try:
            return partial_sum(spec, terms).value
        except DivergentSeriesError:
            return None

    sin = [value(SeriesSpec(SIN, n, angle)) for angle in (phi, -phi)]
    cos = [value(SeriesSpec(COS, n, angle)) for angle in (phi, -phi)]
    assert sin[0] == (None if sin[1] is None else -sin[1])
    assert cos[0] == cos[1]


def test_residual_is_last_included_term():
    spec = SeriesSpec(COS, -0.5, 1.0)
    res = partial_sum(spec, 10)
    from trigsum import gen_binom
    assert res.residual_estimate == pytest.approx(abs(gen_binom(-0.5, 9) * math.cos(9.0)), rel=1e-12)
    assert res.residual_estimate >= 0.0
    assert res.terms_used == 10


# ------------------------------------------------- trig recurrence fidelity

@pytest.mark.parametrize("phi", [1e-3, 1e-2, math.radians(1.0), 1.0, 2.2, 3.0, 3.14, math.pi - 1e-6])
def test_rotation_recurrence_matches_direct_evaluation(phi):
    count = 10_001
    cos_table = trig_values(phi, count, COS)
    sin_table = trig_values(phi, count, SIN)
    with mp.workdps(30):
        for k in range(0, count, 397):
            exact_c = float(mp.cos(mp.mpf(phi) * k))
            exact_s = float(mp.sin(mp.mpf(phi) * k))
            assert abs(cos_table[k] - exact_c) <= 1e-11
            assert abs(sin_table[k] - exact_s) <= 1e-11


# ---------------------------------------------------------------- cesaro

def test_cesaro_alternating_unit_series():
    # partial sums cycle 1,1,0,0: the mean settles at one half
    res = cesaro_sum(SeriesSpec(COS, -1, 0.5 * math.pi), 400)
    assert res.value == pytest.approx(0.5, abs=0.01)
    assert res.residual_estimate < 0.01


def test_cesaro_constant_series():
    res = cesaro_sum(SeriesSpec(COS, 0, 1.2345), 10)
    assert res.value == 1.0


def test_cesaro_first_order_mean_oscillates_for_n_minus_two():
    # the means of 1 - 3 + 5 - 7 + ... never settle: they swing between
    # -1/2 and +1/2 with the truncation parity (2000 and 1998 terms), so the
    # first-order mean cannot deliver this series (its Abel value is 0):
    # cesaro_sum refuses it and abel_sum sums it
    for terms in (2000, 1998):
        with pytest.raises(DivergentSeriesError):
            cesaro_sum(SeriesSpec(COS, -2, 0.5 * math.pi), terms)
    abel = abel_sum(SeriesSpec(COS, -2, 0.5 * math.pi))
    assert abel.value == pytest.approx(0.0, abs=1e-8)


def test_cesaro_requires_two_terms():
    with pytest.raises(ValueError):
        cesaro_sum(SeriesSpec(COS, -1, 1.0), 1)


# ---------------------------------------------------------------- abel

def test_abel_half_exponent_at_zero_angle():
    res = abel_sum(SeriesSpec(COS, -0.5, 0.0))
    assert res.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert res.method.value == "abel"


def test_abel_negative_three_quarter_turn():
    res = abel_sum(SeriesSpec(COS, -3, 0.5 * math.pi))
    assert res.value == pytest.approx(-0.25, abs=1e-6)


def test_abel_divergent_at_half_turn():
    with pytest.raises(DivergentSeriesError):
        abel_sum(SeriesSpec(COS, -0.5, math.pi))


def test_abel_sine_vanishes_at_half_turn():
    # every term is zero; no divergence signal for the sine family
    res = abel_sum(SeriesSpec(SIN, -0.5, math.pi))
    assert res.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [-6.0, -3.0, -0.5, 2.5])
@pytest.mark.parametrize("phi", [math.pi, -math.pi, 2.0 * math.pi, 0.0])
def test_non_terminating_sine_row_at_a_turn_sums_to_zero(n, phi):
    # summing sin(k*fl(pi)) instead gives -2.9e-7 by Abel and -1530.8 by 10**5 terms at n = -3
    spec = SeriesSpec(SIN, n, phi)
    methods = (SummationMethod.PARTIAL, SummationMethod.CESARO, SummationMethod.ABEL)
    direct = (partial_sum(spec, 10), cesaro_sum(spec, 10), abel_sum(spec))
    for res in (*direct, *(evaluate(spec, m) for m in methods)):
        assert (res.value, res.residual_estimate, res.terms_used) == (0.0, 0.0, 0)
    # a term count is still checked
    with pytest.raises(ValueError):
        evaluate(spec, SummationMethod.PARTIAL, terms=-5)
    with pytest.raises(ValueError):
        evaluate(spec, SummationMethod.CESARO, terms=1)


def test_terminating_sine_row_at_a_half_turn_keeps_the_row_sum():
    spec = SeriesSpec(SIN, 3, math.pi)
    row = partial_sum(spec, 4)
    for m in (SummationMethod.PARTIAL, SummationMethod.ABEL):
        res = evaluate(spec, m)
        assert (res.value, res.terms_used) == (row.value, 4)
    assert evaluate(spec, SummationMethod.CESARO).terms_used == 4


@pytest.mark.parametrize("kind", [COS, SIN])
@pytest.mark.parametrize("n", [0, 2, 10, 64])
def test_cesaro_on_a_terminating_row_is_the_row_sum(kind, n):
    # partial sums are constant from k = n on, so every (C,1) mean is the row sum
    for phi in (0.0, 0.3, 1.0, 0.5 * math.pi, 2.9, math.pi, -2.0):
        spec = SeriesSpec(kind, n, phi)
        row = partial_sum(spec, n + 1)
        for res in (cesaro_sum(spec, 100), evaluate(spec, SummationMethod.CESARO)):
            assert res.value.hex() == row.value.hex()
            assert (res.residual_estimate, res.terms_used) == (row.residual_estimate, n + 1)
            assert res.method is SummationMethod.CESARO


def test_abel_radii_validation():
    spec = SeriesSpec(COS, -0.5, 1.0)
    with pytest.raises(ValueError):
        abel_sum(spec, radii=(0.9, 0.8, 0.95))
    with pytest.raises(ValueError):
        abel_sum(spec, radii=(0.5, 1.1, 1.2))
    with pytest.raises(ValueError):
        abel_sum(spec, radii=(0.5, 0.6))
    with pytest.raises(ValueError):
        abel_sum(spec, radii=(-0.1, 0.5, 0.9))
    with pytest.raises(ValueError, match="too close to 1 for a feasible term budget"):
        abel_sum(SeriesSpec(COS, -1.5, 1.0), radii=(0.9, 0.99, 0.9999999))


def test_abel_consistency_with_partial_sums():
    # where the series converges outright the two methods must agree
    cases = [
        SeriesSpec(COS, 3, 1.0), SeriesSpec(COS, 7, -2.0), SeriesSpec(SIN, 5, 2.4),
        SeriesSpec(COS, 1.5, 1.0), SeriesSpec(COS, 2.5, -2.0), SeriesSpec(SIN, 1.5, 0.7),
    ]
    for spec in cases:
        conv = classify(spec)
        assert conv in (ConvergenceClass.FINITE, ConvergenceClass.ABSOLUTELY_CONVERGENT)
        a = abel_sum(spec).value
        p = partial_sum(spec, 100_000).value
        assert abs(a - p) <= 1e-8 * (1.0 + abs(p))


def test_summation_result_invariants():
    res = abel_sum(SeriesSpec(COS, -1, 1.0))
    assert res.residual_estimate >= 0.0
    assert res.terms_used > 0
    assert res.convergence is ConvergenceClass.SUMMABLE_ONLY


def test_abel_grid_rejects_divergent_points():
    from trigsum import abel_sum_grid
    with pytest.raises(DivergentSeriesError):
        abel_sum_grid(COS, [-1.5], [1.0, math.pi])


def test_abel_grid_matches_scalar_path():
    from trigsum import abel_sum_grid
    phis = [0.3, 1.1, 2.0]
    grid = abel_sum_grid(COS, [-2.0, -3.0], phis)
    for n in (-2.0, -3.0):
        values, residuals, terms = grid[n]
        assert terms > 0
        for phi, v in zip(phis, values):
            assert v == pytest.approx(abel_sum(SeriesSpec(COS, n, phi)).value, abs=1e-9)


def test_abel_grid_of_a_terminating_row_is_the_row_sum():
    from trigsum import abel_sum_grid
    phis = [-2.0, 0.3, 1.1]
    values, residuals, terms = abel_sum_grid(SIN, [3.0], phis)[3.0]
    rows = [abel_sum(SeriesSpec(SIN, 3.0, phi)) for phi in phis]
    assert values.tolist() == [row.value for row in rows]
    assert residuals.tolist() == [row.residual_estimate for row in rows] and terms == 4


def test_abel_grid_settles_zero_rows_and_keeps_them_out_of_the_table():
    from trigsum import abel_sum_grid
    ns = [-0.5, -1.5, -3.0, 3.0]
    turns = [math.pi, -math.pi, 2.0 * math.pi, 0.0]
    grid = abel_sum_grid(SIN, ns, [1.0, *turns])
    alone = abel_sum_grid(SIN, ns, [1.0])
    for n in ns:
        values, residuals, terms = grid[n]
        assert values[0].hex() == alone[n][0][0].hex()
        assert residuals[0] == alone[n][1][0] and terms == alone[n][2]
        if n < 0:
            assert values[1:].tolist() == [0.0] * 4 and not residuals[1:].any()
        else:
            rows = [partial_sum(SeriesSpec(SIN, n, phi), 4) for phi in turns]
            assert values[1:].tolist() == [row.value for row in rows]
            assert residuals[1:].tolist() == [row.residual_estimate for row in rows]


def test_abel_grid_sine_is_odd():
    from trigsum import abel_sum_grid
    grid = abel_sum_grid(SIN, [-2.0], [-1.3, 1.3])
    values, _, _ = grid[-2.0]
    assert values[0] == -values[1]


# ---------------------------------------------------------------- evaluate

@pytest.mark.parametrize("method,spec,direct", [
    (SummationMethod.PARTIAL, SeriesSpec(COS, -0.5, 1.0),
     lambda spec: partial_sum(spec, PARTIAL_TERM_BUDGET)),
    (SummationMethod.CESARO, SeriesSpec(COS, -1, 0.5 * math.pi),
     lambda spec: cesaro_sum(spec, PARTIAL_TERM_BUDGET)),
    (SummationMethod.ABEL, SeriesSpec(SIN, -1.5, 2.0), abel_sum),
    (SummationMethod.PHASE, SeriesSpec(SIN, 7, 2.0),
     lambda spec: binomial_phase_power(spec.n, spec.phi)[1]),
])
def test_evaluate_matches_direct_function(method, spec, direct):
    res = evaluate(spec, method)
    expected = direct(spec)
    assert res.method is method
    assert res.convergence is classify(spec)
    if method is SummationMethod.PHASE:
        assert (res.value, res.terms_used, res.residual_estimate) == (expected, 8, 0.0)
    else:
        assert res == expected


@pytest.mark.parametrize("n", [0.5, 65])
def test_evaluate_phase_outside_its_domain(n):
    with pytest.raises(DomainError):
        evaluate(SeriesSpec(COS, n, 1.0), SummationMethod.PHASE)
    # a suite case there fails alone, with computed nan
    check = CaseCheck(SummationMethod.PHASE, ExpectedSource.CLOSED_FORM, 1e-9)
    (result,) = run_cases([SuiteCase(SeriesSpec(COS, n, 1.0), check)])
    assert math.isnan(result.computed) and not result.passed


@pytest.mark.parametrize("method", ["closed", "reduced"])
def test_evaluate_refuses_a_method_that_is_not_a_summation_method(method):
    with pytest.raises(ValueError, match="is not a summation method"):
        evaluate(SeriesSpec(COS, -3, 1.0), method)


#: Signed zero exponents, terminating rows on both sides of the exact
#: limit (n = 64), a fractional row and two negative ones.
_GRID_ROWS = [(COS, -0.0), (SIN, 0.0), (COS, 0.0), (SIN, 3.0), (COS, 64.0), (SIN, 65.0),
              (COS, 0.5), (SIN, -2.5), (COS, -3.0)]


@pytest.mark.parametrize("phis", [(-2.0, 0.5, 1.0, 2.5), (1.0, math.pi - 1e-6)])
@pytest.mark.parametrize("method", SUMMATION_METHODS)
def test_evaluate_grid_gives_each_point_its_one_angle_value_or_nan(method, phis):
    # the second grid holds the Abel branch point n = -3, phi = pi - 1e-6,
    # which refuses that Abel grid; phase refuses n = 0.5 and 65, partial
    # sums n = -3, Cesaro means n <= -2
    grid = evaluate_grid(_GRID_ROWS, phis, method)
    assert len(grid) == len(_GRID_ROWS)
    for (kind, n), values in zip(_GRID_ROWS, grid):
        assert values.shape == (len(phis),)
        for phi, value in zip(phis, values.tolist()):
            try:
                alone = evaluate(SeriesSpec(kind, n, phi), method).value
            except (DivergentSeriesError, DomainError):
                assert math.isnan(value), (kind, n, phi)
                continue
            if method is SummationMethod.ABEL and n > -2.0:
                # the grid takes Levin samples, one angle float64 samples
                assert value == pytest.approx(alone, abs=1e-9), (kind, n, phi)
            else:
                assert value.hex() == alone.hex(), (kind, n, phi)
    if method is SummationMethod.ABEL:  # the branch point fails alone
        assert math.isnan(grid[-1][-1]) == (phis[-1] == math.pi - 1e-6)


# ------------------------------------------------------ refusal per method

#: One row per case the refusal rule tells apart.
ROWS = {
    "finite": SeriesSpec(COS, 3, 1.0),
    "absolutely_convergent": SeriesSpec(COS, 2.5, 1.0),
    "conditionally_convergent": SeriesSpec(COS, -0.5, 2.0),
    "summable_only": SeriesSpec(COS, -1.5, 1.0),
    "summable_only_n_minus_three": SeriesSpec(COS, -3, 1.0),
    "divergent": SeriesSpec(COS, -0.5, math.pi),
    "divergent_n_minus_three": SeriesSpec(COS, -3, math.pi),
    "zero_row_n_minus_three": SeriesSpec(SIN, -3, math.pi),
}

#: The rows each method refuses; it sums every other row.
REFUSES = {
    SummationMethod.PARTIAL: {"summable_only", "summable_only_n_minus_three",
                              "divergent", "divergent_n_minus_three"},
    SummationMethod.CESARO: {"summable_only_n_minus_three", "divergent", "divergent_n_minus_three"},
    SummationMethod.ABEL: {"divergent", "divergent_n_minus_three"},
}


def _refused(call) -> bool:
    try:
        call()
    except DivergentSeriesError:
        return True
    return False


@pytest.mark.parametrize("row", sorted(ROWS))
@pytest.mark.parametrize("method", list(REFUSES))
def test_every_route_refuses_the_same_rows(method, row):
    # the direct function, evaluate and (for Abel) a one-point grid agree
    from trigsum import abel_sum_grid
    spec = ROWS[row]
    calls = {
        SummationMethod.PARTIAL: [lambda: partial_sum(spec, 1000),
                                  lambda: evaluate(spec, method, terms=1000)],
        SummationMethod.CESARO: [lambda: cesaro_sum(spec, 1000),
                                 lambda: evaluate(spec, method, terms=1000)],
        SummationMethod.ABEL: [lambda: abel_sum(spec), lambda: evaluate(spec, method),
                               lambda: abel_sum_grid(spec.kind, [spec.n], [spec.phi])],
    }[method]
    assert [_refused(call) for call in calls] == [row in REFUSES[method]] * len(calls)


def test_evaluate_caps_the_term_count():
    from trigsum.series import MAX_TERMS
    spec = SeriesSpec(COS, 0.5, 1.0)
    for method in (SummationMethod.PARTIAL, SummationMethod.CESARO, SummationMethod.ABEL):
        with pytest.raises(ValueError, match="terms must be <="):
            evaluate(spec, method, terms=MAX_TERMS + 1)


@pytest.mark.parametrize("method", [SummationMethod.ABEL, SummationMethod.PHASE])
@pytest.mark.parametrize("terms", [1, 5, 5000])
def test_evaluate_refuses_a_term_count_for_a_method_that_picks_its_own(method, terms):
    # the phase path printed terms_used 4 for n = 3 whatever terms said
    for spec in (SeriesSpec(COS, 3, 1.0), SeriesSpec(SIN, -3, 1.0)):
        with pytest.raises(ValueError, match="terms must be left out"):
            evaluate(spec, method, terms=terms)


# ------------------------------------------------ terminating-row residual

@pytest.mark.parametrize("kind", [COS, SIN])
@pytest.mark.parametrize("n,phi", [(64, math.pi), (64, math.radians(179.0)), (200, 1.0)])
def test_terminating_row_residual_bounds_its_rounding_error(kind, n, phi):
    # at n = 64 and phi = pi the cosine row cancels terms up to C(64, 32) to
    # about 1e-1018; it summed to 138 with residual 0
    with mp.workdps(80):
        row = (1 + mp.expj(mp.mpf(phi))) ** n
        exact = row.imag if kind is SIN else row.real
    spec = SeriesSpec(kind, n, phi)
    methods = (SummationMethod.PARTIAL, SummationMethod.CESARO, SummationMethod.ABEL)
    for res in (partial_sum(spec, n + 1), *(evaluate(spec, m) for m in methods)):
        assert res.terms_used == n + 1 and res.residual_estimate > 0.0
        assert abs(res.value - exact) <= res.residual_estimate
