import math

import pytest

from trigsum import (
    ExpectedSource,
    SeriesKind,
    SuiteCase,
    SeriesSpec,
    SummationMethod,
    build_suite,
    report_lines,
    run_suite,
    write_report,
)
from trigsum.suites import run_cases


def test_suite_case_validation():
    spec = SeriesSpec(SeriesKind.COSINE, 1.0, 0.5)
    with pytest.raises(ValueError):
        SuiteCase(spec, SummationMethod.PARTIAL, ExpectedSource.LITERAL,
                  tolerance=1e-6, expected_literal=1.0)  # literal needs a note
    with pytest.raises(ValueError):
        SuiteCase(spec, SummationMethod.PARTIAL, ExpectedSource.CLOSED_FORM,
                  tolerance=-1.0)


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
    # same cases, batched in one run and scalar in the other
    cases = build_suite("lambda")
    abel_cases = [c for c in cases if c.method is SummationMethod.ABEL]
    batched = run_cases(abel_cases)
    scalar = [run_cases([c])[0] for c in abel_cases]
    for rb, rs in zip(batched, scalar):
        assert rb.computed == pytest.approx(rs.computed, abs=1e-9)
        assert rb.passed and rs.passed
