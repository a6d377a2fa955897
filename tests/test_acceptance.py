"""Acceptance gate.

Each test runs one criterion at its stated tolerance and prints a single
PASS/FAIL line (visible under ``pytest -s``).  The criteria pin their own
budgets and tolerances; nothing here is tuned at run time.
"""

import math
import time

import numpy as np

from trigsum import (
    ConvergenceClass,
    DivergentSeriesError,
    SeriesKind,
    SeriesSpec,
    abel_sum,
    binom_prefix,
    binomial_phase_power,
    classify,
    evaluate_closed,
    quarter_turn_sum,
    run_suite,
    series_at_phase,
    special_value_catalog,
)
from trigsum.binom import gen_binom_exact
from trigsum.series import SummationMethod

_T0 = time.perf_counter()

COS = SeriesKind.COSINE

ONE_DEGREE_GRID = [math.radians(d) for d in range(-178, 179)]


def _line(num: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")


def test_criterion_1_finite_integer_sweep():
    report = run_suite("finite_integer")
    ok = report.failed == 0
    # low rows reproduce their published coefficient patterns exactly
    rows = {
        0: [1.0],
        1: [1.0, 1.0],
        2: [1.0, 2.0, 1.0],
        3: [1.0, 3.0, 3.0, 1.0],
        4: [1.0, 4.0, 6.0, 4.0, 1.0],
    }
    for n, row in rows.items():
        ok = ok and binom_prefix(n, n + 1) == row
    _line(1, "finite integer rows match both closed forms at 1e-10 on the 1 degree grid", ok)
    assert ok, f"finite_integer suite: {report.failed} of {report.total} cases failed"


def test_criterion_2_quarter_turn_exact_integers():
    literals = {2: 0, 3: -2, 4: -4, 5: -4, 6: 0, 7: 8, 8: 16}
    ok = True
    for n, lit in literals.items():
        alternating = sum((-1) ** j * gen_binom_exact(n, 2 * j)
                          for j in range(0, n // 2 + 1))
        ok = ok and alternating == lit
        ok = ok and quarter_turn_sum(n).value == float(lit)
    _line(2, "quarter-turn sums for n=2..8 hit the literal integers exactly", ok)
    assert ok


def test_criterion_3_negative_integer_sweep():
    report = run_suite("negative_integer")
    abel_failed = sum(1 for r in report.results
                      if not r.passed and r.case.method is SummationMethod.ABEL)
    reduced_failed = sum(1 for r in report.results
                         if not r.passed and r.case.method is SummationMethod.REDUCED)
    ok = report.failed == 0
    _line(3, "Abel sums at 1e-6 and reduced forms at 1e-12 across the 2 degree grid", ok)
    assert ok, (f"abel failures: {abel_failed}, reduced failures: {reduced_failed} "
                f"of {report.total}")


def test_criterion_4_lambda_family_at_quarter_turn():
    expected = {1: 0.5, 2: 0.0, 3: -0.25, 4: -0.25, 5: -0.125, 6: 0.0}
    report = run_suite("lambda")
    ok = report.failed == 0
    from trigsum import lambda_series_closed
    for lam, lit in expected.items():
        ok = ok and lambda_series_closed(lam).value == lit
    _line(4, "Abel sums reproduce the lambda family values at 1e-6", ok)
    assert ok


def test_criterion_5_half_integer_catalog():
    report = run_suite("half_integer")
    detail = []
    for r in report.results:
        case = r.case
        tag = f"(n={case.spec.n}, phi={math.degrees(case.spec.phi):.0f}deg, {case.method.value})"
        if not r.passed:
            detail.append(f"{tag}: computed={r.computed!r} expected={r.expected!r} "
                          f"tolerance={case.tolerance}")
    ok = report.failed == 0
    _line(5, "half-integer catalog values at their stated budgets and tolerances", ok)
    assert ok, ("half_integer suite failures: " + "; ".join(detail))


def test_criterion_6_phase_path_equivalence():
    ok = True
    worst = 0.0
    for n in range(0, 21):
        coeffs = binom_prefix(n, n + 1)
        bound = 1e-12 * 2.0 ** n
        for phi in ONE_DEGREE_GRID:
            pc, ps = binomial_phase_power(n, phi)
            hc, hs = series_at_phase(coeffs, phi)
            cc = evaluate_closed("cos", n, phi).value
            sc = evaluate_closed("sin", n, phi).value
            err = max(abs(pc - hc), abs(ps - hs), abs(pc - cc), abs(ps - sc))
            worst = max(worst, err / bound)
            if err > bound:
                ok = False
    _line(6, "binary phase powers match the polynomial path and closed forms at 1e-12*2^n", ok)
    assert ok, f"worst error was {worst:.3g} of the bound"


def test_criterion_7_pythagorean_closure():
    rng = np.random.default_rng(20260809)
    ok = True
    for _ in range(10_000):
        n = rng.uniform(-3.0, 3.0)
        phi = rng.uniform(-3.0, 3.0)
        c = evaluate_closed("cos", n, phi).value
        s = evaluate_closed("sin", n, phi).value
        rhs = (2.0 * math.cos(0.5 * phi)) ** (2.0 * n)
        if abs(c * c + s * s - rhs) > 1e-10 * abs(rhs):
            ok = False
            break
    _line(7, "cos^2 + sin^2 equals the shared power factor within 1e-10 relative", ok)
    assert ok


def test_criterion_8_divergence_honesty():
    spec = SeriesSpec(COS, -0.5, math.pi)
    ok = classify(spec) is ConvergenceClass.DIVERGENT
    try:
        abel_sum(spec)
        ok = False
    except DivergentSeriesError:
        pass
    entry = next(e for e in special_value_catalog() if e.divergent)
    ok = ok and entry.spec == spec and entry.value is None
    _line(8, "the all-positive half-turn series is flagged divergent, never valued", ok)
    assert ok


def test_total_runtime_budget():
    elapsed = time.perf_counter() - _T0
    print(f"acceptance suite wall time: {elapsed:.1f}s")
    assert elapsed < 60.0, f"acceptance suite took {elapsed:.1f}s, budget is 60s"
