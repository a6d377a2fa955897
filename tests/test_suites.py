import math

import pytest

from trigsum import (
    ExpectedSource,
    SeriesKind,
    SuiteCase,
    SeriesSpec,
    SummationMethod,
    build_suite,
    evaluate,
    report_lines,
    run_suite,
    write_report,
)
from trigsum.suites import SUITE_NAMES, run_cases


def test_suite_case_validation():
    spec = SeriesSpec(SeriesKind.COSINE, 1.0, 0.5)
    with pytest.raises(ValueError):
        SuiteCase(spec, SummationMethod.PARTIAL, ExpectedSource.LITERAL,
                  tolerance=1e-6, expected_literal=1.0)  # literal needs a note
    with pytest.raises(ValueError):
        SuiteCase(spec, SummationMethod.PARTIAL, ExpectedSource.CLOSED_FORM,
                  tolerance=-1.0)


@pytest.mark.parametrize("kind,n", [("cos", -2.5), ("cos", 0.0), ("cos", -8.0), ("sin", -3.0)])
def test_reduced_case_needs_a_cosine_row_with_n_in_minus_7_to_minus_1(kind, n):
    with pytest.raises(ValueError):
        SuiteCase(SeriesSpec(kind, n, 1.0), SummationMethod.REDUCED,
                  ExpectedSource.CLOSED_FORM, tolerance=1e-12)
    SuiteCase(SeriesSpec("cos", -7.0, 1.0), SummationMethod.REDUCED,
              ExpectedSource.CLOSED_FORM, tolerance=1e-12)


@pytest.mark.parametrize("kind,phi", [("cos", 1.0), ("cos", -0.5 * math.pi), ("sin", 0.5 * math.pi)])
def test_closed_case_needs_the_cosine_row_at_a_quarter_turn(kind, phi):
    with pytest.raises(ValueError):
        SuiteCase(SeriesSpec(kind, 2.0, phi), SummationMethod.CLOSED,
                  ExpectedSource.CLOSED_FORM, tolerance=1e-12)


def test_quarter_turn_suite_passes():
    report = run_suite("quarter_turn")
    assert report.failed == 0
    assert report.total == 14


def test_lambda_suite_passes():
    report = run_suite("lambda")
    assert report.failed == 0
    assert report.total == 12


def test_finite_integer_suite_coarse_grid():
    report = run_suite("finite_integer", grid_step_deg=15.0)
    assert report.failed == 0
    # 11 exponents, two families, angles -164..166 in 15 degree steps
    assert report.total == 11 * 2 * 23


def test_negative_integer_suite_coarse_grid():
    report = run_suite("negative_integer", grid_step_deg=20.0)
    assert report.failed == 0


def test_negative_integer_suite_half_degree_grid():
    # angles between those of the default grid and of the shifted benchmark
    # grids, up to 169.5 deg, where the Levin orders climb highest
    report = run_suite("negative_integer", grid_step_deg=0.5)
    assert report.total == 2 * 6 * 678
    assert report.failed == 0


def test_half_integer_suite_known_boundary_shortfall():
    # Six of the seven cases pass.  The plain-truncation case at the half
    # turn carries a 1e5-term budget whose true tail is 1.78e-3, outside
    # its 1e-3 tolerance; the suite reports that honestly.
    report = run_suite("half_integer")
    assert report.total == 7
    assert report.failed == 1
    failing = [r for r in report.results if not r.passed]
    case = failing[0].case
    assert case.method is SummationMethod.PARTIAL
    assert case.spec.n == 0.5 and case.spec.phi == math.pi
    assert failing[0].computed == pytest.approx(1.784e-3, rel=1e-3)
    # divergence at the mirrored exponent is flagged, not evaluated
    divergent = [r for r in report.results if r.case.expect_divergent]
    assert len(divergent) == 1 and divergent[0].passed


def test_tolerance_override_forces_failures():
    report = run_suite("lambda", tolerance_override=0.0)
    assert report.failed > 0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        build_suite("bogus")


def test_report_body_is_deterministic():
    a = report_lines(run_suite("lambda"))
    b = report_lines(run_suite("lambda"))
    assert a == b


def test_report_file_format(tmp_path):
    report = run_suite("quarter_turn")
    path = tmp_path / "report.csv"
    write_report(report, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "case,kind,n,phi_rad,method,computed,expected,abs_error,passed"
    assert lines[-1] == f"# total={report.total} passed={report.passed} failed={report.failed}"
    assert len(lines) == report.total + 2
    for line in lines[1:-1]:
        fields = line.split(",")
        assert len(fields) == 9
        assert fields[8] in ("true", "false")
        float(fields[5]), float(fields[6])  # parse computed/expected


def test_batched_and_scalar_abel_agree():
    # the suite batches its Abel cases; evaluate sums each one alone
    for name in ("lambda", "half_integer"):
        abel_cases = [c for c in build_suite(name)
                      if c.method is SummationMethod.ABEL and not c.expect_divergent]
        for rb in run_cases(abel_cases):
            scalar = evaluate(rb.case.spec, SummationMethod.ABEL, rb.case.terms, rb.case.radii).value
            assert rb.computed == pytest.approx(scalar, abs=1e-9)
            assert rb.passed
            assert abs(scalar - rb.expected) <= rb.case.tolerance * (1.0 + abs(rb.expected))


def test_a_case_computes_the_same_value_in_all_as_in_its_own_suite():
    step = 10.0  # coarse grids; lambda and half_integer have none
    combined = run_suite("all", grid_step_deg=step).results
    own = [r for name in SUITE_NAMES[:-1] for r in run_suite(name, grid_step_deg=step).results]
    assert [r.case for r in combined] == [r.case for r in own]
    for ra, ro in zip(combined, own):
        assert ra.computed == ro.computed or (math.isnan(ra.computed) and math.isnan(ro.computed)), ra.case


def test_a_refused_grid_point_fails_alone():
    # the grid engine refuses the branch point; the case beside it still passes
    cases = [SuiteCase(SeriesSpec(SeriesKind.COSINE, -3.0, phi), SummationMethod.ABEL,
                       ExpectedSource.CLOSED_FORM, tolerance=1e-6)
             for phi in (1.0, math.pi - 1e-6)]
    ok, refused = run_cases(cases)
    assert ok.passed
    assert not refused.passed and math.isnan(refused.computed)
