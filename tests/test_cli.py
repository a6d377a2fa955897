import math

import pytest

from trigsum.cli import main, parse_angle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_fields(out):
    fields = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def test_parse_angle_units():
    assert parse_angle("90deg") == pytest.approx(0.5 * math.pi)
    assert parse_angle("1.5708rad") == 1.5708
    assert parse_angle("-45deg") == pytest.approx(-0.25 * math.pi)
    assert parse_angle("2.5") == 2.5


def test_sum_cesaro_alternating_units(capsys):
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", "-1",
                       "--phi", "90deg", "--method", "cesaro")
    assert code == 0
    fields = out_fields(out)
    assert float(fields["value"]) == pytest.approx(0.5, abs=1e-6)
    assert fields["method"] == "cesaro"
    assert fields["convergence"] == "summable_only"


def test_sum_divergent_exits_three(capsys):
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "-0.5",
                         "--phi", "180deg", "--method", "abel")
    assert code == 3
    assert "divergent" in err


@pytest.mark.parametrize("n", ["-2", "-3.5"])
def test_sum_cesaro_at_or_below_minus_two_exits_three(capsys, n):
    # the terms grow like k**(-n - 1): the first-order mean cannot sum them
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", n,
                         "--phi", "1", "--method", "cesaro")
    assert code == 3
    assert out == ""
    assert "divergent" in err


def test_sum_cesaro_above_minus_two_still_sums(capsys):
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", "-1.5",
                       "--phi", "1", "--method", "cesaro", "--tol", "1e-2")
    assert code == 0
    assert out_fields(out)["within_tolerance"] == "true"


def test_table_cesaro_below_minus_two_is_nan(capsys):
    code, out, _ = run(capsys, "table", "--kind", "cos", "--n", "-2",
                       "--from", "30deg", "--to", "60deg", "--step", "30deg",
                       "--methods", "cesaro,abel")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        fields = line.split(",")
        assert math.isnan(float(fields[2]))
        assert float(fields[3]) == pytest.approx(float(fields[4]), abs=1e-9)


def test_sum_zero_exponent_sine(capsys):
    code, out, _ = run(capsys, "sum", "--kind", "sin", "--n", "0",
                       "--phi", "45deg", "--method", "partial")
    assert code == 0
    assert float(out_fields(out)["value"]) == 0.0


@pytest.mark.parametrize("method", [None, "partial", "cesaro", "abel"])
@pytest.mark.parametrize("phi", [math.pi, -math.pi, 2.0 * math.pi, 3.0 * math.pi])
@pytest.mark.parametrize("n", ["-3", "-0.5", "2.5"])
def test_sum_sine_row_at_a_half_or_full_turn_is_zero(capsys, n, phi, method):
    # every term sin(k*phi) is zero; the rounded angle must not leak in
    argv = ["sum", "--kind", "sin", "--n", n, "--phi", repr(phi)]
    code, out, err = run(capsys, *argv + (["--method", method] if method else []))
    assert (code, err) == (0, "")
    fields = out_fields(out)
    assert fields["value"] == "0"
    assert fields["residual_estimate"] == "0"
    assert fields["convergence"] == "absolutely_convergent"


def test_sum_tolerance_comparison(capsys):
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", "-3",
                       "--phi", "90deg", "--method", "abel", "--tol", "1e-6")
    assert code == 0
    fields = out_fields(out)
    assert fields["within_tolerance"] == "true"
    assert float(fields["expected"]) == pytest.approx(-0.25, abs=1e-12)


def test_sum_abel_on_a_terminating_row_is_the_row_sum(capsys):
    # the samples near r = 1 reach 1e18 here; the row is finite all the same
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", "64",
                       "--phi", "0.3", "--method", "abel", "--tol", "1e-12")
    assert code == 0
    fields = out_fields(out)
    assert fields["within_tolerance"] == "true"
    assert fields["residual_estimate"] == "0"
    assert fields["terms_used"] == "65"


def test_sum_cesaro_on_a_terminating_row_is_the_row_sum(capsys):
    # the mean of 10**5 constant partial sums read 78.68998 (error 1.1e-2)
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", "10",
                       "--phi", "1", "--method", "cesaro", "--tol", "1e-6")
    assert code == 0
    fields = out_fields(out)
    assert fields["within_tolerance"] == "true"
    assert (fields["residual_estimate"], fields["terms_used"]) == ("0", "11")


@pytest.mark.parametrize("method", ["partial", "cesaro", "abel"])
def test_sum_zero_terms_is_a_usage_error(capsys, method):
    # --terms 0 is a term count, not "use the default budget"
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "0.5",
                         "--phi", "1", "--method", method, "--terms", "0")
    assert code == 64
    assert out == "" and "terms must be" in err


def test_sum_abel_on_a_terminating_row_matches_partial(capsys):
    # 2**32 exactly; float64 cancellation in the row leaves 5.7e-8 relative
    code, abel, _ = run(capsys, "sum", "--kind", "cos", "--n", "64",
                        "--phi", "90deg", "--method", "abel")
    assert code == 0
    code, partial, _ = run(capsys, "sum", "--kind", "cos", "--n", "64",
                           "--phi", "90deg", "--method", "partial")
    assert code == 0
    assert out_fields(abel)["value"] == out_fields(partial)["value"]
    assert float(out_fields(abel)["value"]) == pytest.approx(2.0 ** 32, rel=1e-7)


def test_sum_warns_on_unsuited_method(capsys):
    # partial sums of a summable-only row do not settle: refused, not warned
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "-1",
                         "--phi", "90deg", "--method", "partial")
    assert code == 3
    assert out == ""
    assert "divergent" in err


@pytest.mark.parametrize("method,n,phi", [
    ("partial", "-3", "1"),          # summable only: printed 2449618922.19
    ("partial", "-0.5", "180deg"),   # divergent
    ("cesaro", "-0.5", "180deg"),    # divergent
])
def test_sum_refuses_a_method_that_cannot_sum_the_row(capsys, method, n, phi):
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", n,
                         "--phi", phi, "--method", method)
    assert code == 3
    assert out == ""
    assert "divergent" in err


def test_table_partial_on_a_summable_only_row_is_nan(capsys):
    code, out, _ = run(capsys, "table", "--kind", "cos", "--n", "-3", "--from", "30deg",
                       "--to", "60deg", "--step", "30deg", "--methods", "partial,abel")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[2] for row in rows] == ["nan", "nan"]
    assert all(math.isfinite(float(row[3])) for row in rows)


def test_sum_abel_far_from_the_unit_scale(capsys):
    # n = -20: the radial samples cancel terms up to 1e18 down to 1e-5
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", "-20", "--phi", "1",
                       "--method", "abel", "--tol", "1e-6")
    assert code == 0
    assert out_fields(out)["within_tolerance"] == "true"


def test_sum_abel_next_to_the_branch_point_exits_three(capsys):
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "-3",
                         "--phi", "3.141591653589793", "--method", "abel")
    assert code == 3
    assert out == ""
    assert "divergent" in err


def test_sum_phase_requires_integer(capsys):
    code, _, err = run(capsys, "sum", "--kind", "cos", "--n", "0.5",
                       "--phi", "90deg", "--method", "phase")
    assert code == 2
    assert "domain" in err


@pytest.mark.parametrize("n", ["nan", "inf"])
def test_sum_non_finite_exponent_is_domain_error(capsys, n):
    code, _, err = run(capsys, "sum", "--kind", "cos", "--n", n,
                       "--phi", "90deg")
    assert code == 2
    assert "domain" in err


def test_sum_bad_angle_is_usage_error(capsys):
    code, _, err = run(capsys, "sum", "--kind", "cos", "--n", "1",
                       "--phi", "90furlongs")
    assert code == 64


def test_sum_missing_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "sum", "--kind", "cos", "--phi", "1rad")
    assert code == 64


def test_verify_lambda_passes_and_writes_report(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "verify", "--suite", "lambda",
                       "--report", str(path))
    assert code == 0
    assert "failed=0" in out
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("case,kind,n,")
    assert lines[-1].startswith("# total=")


def test_verify_zero_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lambda", "--tol", "0")
    assert code == 1


def test_verify_grid_step_override(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "finite_integer",
                       "--grid-step-deg", "30")
    assert code == 0
    assert "failed=0" in out


def test_verify_unknown_suite_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "nope")
    assert code == 64


def test_verify_unwritable_report_is_io_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "lambda",
                       "--report", "/nonexistent_dir/report.csv")
    assert code == 74


def test_table_finite_row(capsys):
    code, out, _ = run(capsys, "table", "--kind", "cos", "--n", "2",
                       "--from", "0deg", "--to", "180deg", "--step", "45deg",
                       "--methods", "partial,phase")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "phi_deg,phi_rad,partial,phase,closed"
    assert len(lines) == 6  # header plus five angles
    for line in lines[1:]:
        fields = line.split(",")
        partial, closed = float(fields[2]), float(fields[4])
        assert partial == pytest.approx(closed, abs=1e-12)


def test_table_negative_two_matches_reduced_shape(capsys):
    code, out, _ = run(capsys, "table", "--kind", "cos", "--n", "-2",
                       "--from", "10deg", "--to", "170deg", "--step", "40deg",
                       "--methods", "abel")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        fields = line.split(",")
        phi = float(fields[1])
        closed = float(fields[3])
        expected = math.cos(phi) / (2.0 * (1.0 + math.cos(phi)))
        assert closed == pytest.approx(expected, rel=1e-12)


def test_table_empty_range_usage_error(capsys):
    code, _, _ = run(capsys, "table", "--kind", "cos", "--n", "2",
                     "--from", "10deg", "--to", "10deg", "--step", "5deg",
                     "--methods", "partial")
    assert code == 64


def test_table_empty_methods_usage_error(capsys):
    code, _, _ = run(capsys, "table", "--kind", "cos", "--n", "2",
                     "--from", "0deg", "--to", "90deg", "--step", "45deg",
                     "--methods", " , ")
    assert code == 64
