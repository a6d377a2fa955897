import functools
import hashlib
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import trigsum
from trigsum import (
    DivergentSeriesError,
    DomainError,
    ExpectedSource,
    SeriesKind,
    SuiteCase,
    SeriesSpec,
    SummationMethod,
    binom_prefix,
    build_suite,
    evaluate,
    evaluate_closed,
    quarter_turn_sum,
    report_lines,
    run_suite,
    series_at_phase,
    write_report,
)
from trigsum.suites import SUITE_NAMES, CaseResult, VerificationReport, _num, run_cases


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
            scalar = evaluate(rb.case.spec, SummationMethod.ABEL, radii=rb.case.radii).value
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


def test_suite_case_rejects_a_nan_tolerance():
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        SuiteCase(SeriesSpec(SeriesKind.COSINE, 1.0, 0.5), SummationMethod.PARTIAL,
                  ExpectedSource.CLOSED_FORM, tolerance=math.nan)


def _cap_child_memory():
    cap = 2 ** 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_verify_rejects_a_grid_step_that_is_not_positive_and_finite(step):
    # a step of 0, -1 or nan never ended the grid and filled memory; inf
    # built empty grids that passed.  The child runs under a time and an
    # address-space cap, so a regression fails here instead of hanging.
    env = dict(os.environ, PYTHONPATH=str(Path(trigsum.__file__).parents[1]))
    argv = ["verify", "--suite", "finite_integer", "--grid-step-deg", step]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from trigsum.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv], capture_output=True, text=True, env=env, timeout=60, preexec_fn=_cap_child_memory)
    assert (proc.returncode, proc.stdout) == (64, "")
    assert "grid step must be a positive finite number" in proc.stderr
    with pytest.raises(ValueError, match="grid step"):  # safe in process once the child passed
        build_suite("finite_integer", float(step))


#: SHA-256 of report bodies recorded when each case was still run on its own.
_REPORT_SHA256 = {
    ("finite_integer", None): "f31e12f6f9808f070dd8b30afd6377abcc03f3b8f07dd236c9b913d5d0907178",
    ("quarter_turn", None): "330710bbf1ba3e383e9d570b271bd5c6bfd04e2f4014a887f49e786aec109eaf",
    ("phase_equivalence", None): "254189bfe42fe30909d060713739ebb84d12a508556160d4f47441fbb5bfba4e",
    ("finite_integer", 0.1): "1354287f4f5df9b8c8d952789eb3d268ab27ae5a6cdea68262c8c5ea17d517c8",
    ("quarter_turn", 0.1): "330710bbf1ba3e383e9d570b271bd5c6bfd04e2f4014a887f49e786aec109eaf",
    ("phase_equivalence", 0.1): "ea4b40cdc6da495a3748dac25511d58e5d3fd616209d4ea6ef96d4423ff3a288",
    # not re-run case by case below; negative_integer's pins the n < 0 closed forms
    ("negative_integer", None): "9af18fe1b06f4a17d9bb99400225bbfc9238454c19ac61d44f8c7cf8499dd6e1",
    ("lambda", None): "4c2b728186f3b2dcdd0b94e3477c57ceef825d40c15a797270539261b506e64b",
    ("half_integer", None): "1637f0faeed37a525f32779b8000920c81e1ec55ee36aa131f6a82cea7a3109e",
}


def _case_by_itself(case):
    """(computed, expected) of one case from the scalar entry points."""
    spec = case.spec
    if case.method is SummationMethod.CLOSED:
        computed = quarter_turn_sum(spec.n).value
    else:
        try:
            computed = evaluate(spec, case.method, radii=case.radii).value
        except (DivergentSeriesError, DomainError):
            computed = math.nan
    if case.expected_source is ExpectedSource.LITERAL:
        expected = case.expected_literal
    elif case.expected_source is ExpectedSource.CLOSED_FORM:
        expected = evaluate_closed(spec.kind, spec.n, spec.phi).value
    else:
        expected = _phase_series_alone(spec.n, spec.phi)[spec.kind is SeriesKind.SINE]
    return computed, expected


@functools.lru_cache(maxsize=None)
def _phase_series_alone(n, phi):
    # the cosine and sine cases of one angle read one scalar call
    return series_at_phase(binom_prefix(n, int(n) + 1), phi)


def _same_double(a, b):
    """Equal, or both nan, and with the same sign bit: -0.0 and 0.0 differ."""
    return (a == b or (math.isnan(a) and math.isnan(b))) and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("step", [None, 0.1])
@pytest.mark.parametrize("name", ["finite_integer", "quarter_turn", "phase_equivalence"])
def test_grouped_rows_give_every_case_the_bits_it_gets_alone(name, step):
    report = run_suite(name, grid_step_deg=step)
    for r in report.results:
        computed, expected = _case_by_itself(r.case)
        abs_error = abs(computed - expected)
        passed = abs_error <= r.case.tolerance * (1.0 + abs(expected))
        assert _same_double(r.computed, computed), r.case
        assert _same_double(r.expected, expected), r.case
        assert _same_double(r.abs_error, abs_error), r.case
        assert r.passed is passed, r.case
    _phase_series_alone.cache_clear()
    body = "\n".join(report_lines(report)) + "\n"
    assert hashlib.sha256(body.encode()).hexdigest() == _REPORT_SHA256[(name, step)]


@pytest.mark.parametrize("name", ["negative_integer", "lambda", "half_integer"])
def test_abel_and_catalog_report_bodies_are_pinned(name):
    body = "\n".join(report_lines(run_suite(name))) + "\n"
    assert hashlib.sha256(body.encode()).hexdigest() == _REPORT_SHA256[(name, None)]


def _line_by_join(i, r):
    """A report line as it was built field by field, each float by _num."""
    case = r.case
    return ",".join([str(i), case.spec.kind.value, _num(case.spec.n), _num(case.spec.phi),
                     case.method.value, _num(r.computed), _num(r.expected), _num(r.abs_error),
                     "true" if r.passed else "false"])


_REPORT_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                                  2.0 ** -1030, 1e300, -1e300, 1e-300, -1e-300]))


@settings(max_examples=200, deadline=None)
@given(n=_REPORT_FLOATS.filter(math.isfinite), phi=_REPORT_FLOATS.filter(math.isfinite),
       values=st.lists(_REPORT_FLOATS, min_size=3, max_size=3), passed=st.booleans(),
       kind=st.sampled_from(list(SeriesKind)), count=st.integers(1, 3))
def test_report_line_template_gives_the_bytes_of_num(n, phi, values, passed, kind, count):
    case = SuiteCase(SeriesSpec(kind, n, phi), SummationMethod.PHASE, ExpectedSource.CLOSED_FORM, 1e-9)
    result = CaseResult(case, *values, passed)
    lines = report_lines(VerificationReport("x", [result] * count, 0.0))
    assert lines[1:-1] == [_line_by_join(i, result) for i in range(count)]


def test_a_refused_terminating_row_gives_nan_cases():
    # n = 1024 sums to 2**1024 at phi = 0, beyond the doubles: the Abel grid
    # refuses the row, whose angles are then summed one at a time
    cases = [SuiteCase(SeriesSpec("cos", 1024.0, phi), method, ExpectedSource.CLOSED_FORM, 1e-9)
             for method in (SummationMethod.PARTIAL, SummationMethod.CESARO, SummationMethod.ABEL)
             for phi in (0.0, 1.0)]
    for r in run_cases(cases):
        if r.case.spec.phi == 0.0:
            assert math.isnan(r.computed) and r.expected == math.inf and not r.passed
        else:
            assert r.computed == evaluate(r.case.spec, r.case.method).value


def test_exponents_minus_zero_and_zero_form_two_rows():
    # -0.0 == 0.0, yet the sine closed form keeps the sign of n: 2**n cos(phi/2)**n sin(n phi/2)
    cases = [SuiteCase(SeriesSpec(kind, n, phi), method, source, tolerance=1e-9)
             for n in (0.0, -0.0) for kind in (SeriesKind.COSINE, SeriesKind.SINE) for phi in (1.0, -2.0)
             for method, source in ((SummationMethod.PARTIAL, ExpectedSource.CLOSED_FORM),
                                    (SummationMethod.PHASE, ExpectedSource.PHASE_SERIES))]
    results = run_cases(cases)
    for r in results:
        computed, expected = _case_by_itself(r.case)
        assert _same_double(r.computed, computed) and _same_double(r.expected, expected), r.case
    sine_closed = results[-4]  # n = -0.0, sin, phi = 1.0, closed form
    assert sine_closed.case.spec.n == 0.0 and sine_closed.expected == 0.0
    assert math.copysign(1.0, sine_closed.case.spec.n) == math.copysign(1.0, sine_closed.expected) == -1.0


def _field_text(v):
    """A case field as text: floats by hex, which keeps the sign of a zero."""
    if isinstance(v, tuple):
        return "(" + ",".join(map(_field_text, v)) + ")"
    return v.hex() if isinstance(v, float) else str(getattr(v, "value", v))


#: build_suite output as the former per-suite loops built it.  Report bodies
#: carry no tolerance, expected source or radii, so they are pinned here.
_CASES_SHA256 = {
    ("finite_integer", None): "a28cfe5f9498e8758605d74bb90f0c80e815ffb9a3ca45e625d49ee0fbd6156a",
    ("negative_integer", None): "843f2806526e54d1fd8311acc6b1e7146ea8473fdf31b31d92f6805bc3c64e34",
    ("half_integer", None): "52e8d4dc5dce2e45ea024a9b01c5d76a62579b804b1e0b5ae5152f3e2a477b29",
    ("quarter_turn", None): "abf15d4dc9fcae9fc4fe66805deb2da33be13e1b177650cacf827636882ccc11",
    ("lambda", None): "2881ddb01a2836f8979a15898daaed682aa47a89c28f0ca9992c4b991608af9d",
    ("phase_equivalence", None): "24dfe058e85e8da4d91889644994a96f4b215a5ccf7d894a9b44d9c89e41443c",
    ("all", None): "e4cd91fcbed140537638022b907ac8f8bf864db6e839ecb84bafa21c023541e1",
    ("finite_integer", 0.5): "5cbb1de3d4a20aff5b33eb03acde700985dfd5ab0fa908c04bcdf5f6de657cc4",
    ("negative_integer", 0.5): "408ce9956d409c0f83568eccf9901880f3ebd89a858808e8f01338107f34d916",
    ("half_integer", 0.5): "52e8d4dc5dce2e45ea024a9b01c5d76a62579b804b1e0b5ae5152f3e2a477b29",
    ("quarter_turn", 0.5): "abf15d4dc9fcae9fc4fe66805deb2da33be13e1b177650cacf827636882ccc11",
    ("lambda", 0.5): "2881ddb01a2836f8979a15898daaed682aa47a89c28f0ca9992c4b991608af9d",
    ("phase_equivalence", 0.5): "5d4321884b10387015b6ede5507a3dd83f50134af55484e1770e661d2d627819",
    ("all", 0.5): "a6850e4ca5b25d437471ae2a267bc7f1bd00274c758d2013cc4e6f5fe92ee3c0",
}


@pytest.mark.parametrize("step", [None, 0.5])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_build_suite_gives_the_pinned_cases_field_by_field(name, step):
    digest = hashlib.sha256()
    for c in build_suite(name, step):
        fields = (c.spec.kind, c.spec.n, c.spec.phi, c.method, c.expected_source, c.tolerance, c.note,
                  c.radii, c.expected_literal, c.expect_divergent)
        digest.update(("|".join(map(_field_text, fields)) + "\n").encode())
    assert digest.hexdigest() == _CASES_SHA256[(name, step)]


def test_phase_rows_make_one_phase_call_per_exponent_on_a_tuple_of_angles(monkeypatch):
    calls = {"series_at_phase": [], "binomial_phase_power": []}
    for name, log in calls.items():
        def spy(first, phis, _log=log, _fn=getattr(trigsum.suites, name)):
            _log.append((first, phis))
            return _fn(first, phis)
        monkeypatch.setattr(trigsum.suites, name, spy)
    cases = build_suite("phase_equivalence", 3.0)
    run_cases(cases)
    angles = tuple(sorted({c.spec.phi for c in cases}))
    for log in calls.values():
        assert [type(phis) for _first, phis in log] == [tuple] * 21
        assert all(sorted(phis) == list(angles) for _first, phis in log)
    assert [n for n, _ in calls["binomial_phase_power"]] == [float(n) for n in range(21)]
    assert [list(row) for row, _ in calls["series_at_phase"]] == [binom_prefix(n, n + 1) for n in range(21)]
