import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import trigsum
from trigsum import build_suite
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


def test_sum_tolerance_outside_the_closed_form_domain(capsys):
    # a fractional exponent beyond the half turn: the sum has a value, the closed form none
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", "0.5", "--phi", "4", "--tol", "1e-6")
    assert code == 0
    assert out.splitlines()[-1] == "expected undefined (outside the closed-form domain)"
    assert "abs_error" not in out and "within_tolerance" not in out


def test_sum_abel_on_a_terminating_row_is_the_row_sum(capsys):
    # the samples near r = 1 reach 1e18 here; the row is finite all the same
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", "64",
                       "--phi", "0.3", "--method", "abel", "--tol", "1e-12")
    assert code == 0
    fields = out_fields(out)
    assert fields["within_tolerance"] == "true"
    residual = float(fields["residual_estimate"])
    assert 0.0 < residual and float(fields["abs_error"]) <= residual
    assert fields["terms_used"] == "65"


def test_sum_cesaro_on_a_terminating_row_is_the_row_sum(capsys):
    # the mean of 10**5 constant partial sums read 78.68998 (error 1.1e-2)
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", "10",
                       "--phi", "1", "--method", "cesaro", "--tol", "1e-6")
    assert code == 0
    fields = out_fields(out)
    assert fields["within_tolerance"] == "true"
    assert float(fields["residual_estimate"]) > 0.0 and fields["terms_used"] == "11"


@pytest.mark.parametrize("method", ["partial", "cesaro", "abel"])
def test_sum_zero_terms_is_a_usage_error(capsys, method):
    # --terms 0 is a term count, not "use the default budget"
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "0.5",
                         "--phi", "1", "--method", method, "--terms", "0")
    assert code == 64
    assert out == "" and "terms must be" in err


@pytest.mark.parametrize("method", [None, "partial", "cesaro", "abel"])
def test_sum_zero_terms_on_a_refused_row_is_a_usage_error(capsys, method):
    # the term count is checked before the row is judged (exit 3 before)
    argv = ["sum", "--kind", "cos", "--n", "-0.5", "--phi", "180deg", "--terms", "0"]
    code, out, err = run(capsys, *argv + (["--method", method] if method else []))
    assert code == 64
    assert out == "" and "terms must be" in err


def test_sum_and_table_cap_the_term_count(capsys):
    from trigsum.series import MAX_TERMS
    terms = str(MAX_TERMS + 1)
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "0.5", "--phi", "1",
                         "--method", "partial", "--terms", terms)
    assert (code, out) == (64, "") and "terms must be <=" in err
    code, out, err = run(capsys, "table", "--kind", "cos", "--n", "0.5", "--from", "0deg",
                         "--to", "90deg", "--step", "45deg", "--methods", "abel", "--terms", terms)
    assert (code, out) == (64, "") and "terms must be <=" in err


@pytest.mark.parametrize("n,phi,method", [
    ("-3", "90deg", "abel"),      # summable only: partial sums refused
    ("-1.5", "1", "abel"),
    ("0.5", "1", "partial"),      # convergent
    ("3", "1", "partial"),        # terminating
])
def test_sum_without_method_falls_back_to_abel(capsys, n, phi, method):
    code, out, _ = run(capsys, "sum", "--kind", "cos", "--n", n, "--phi", phi)
    assert code == 0
    assert out_fields(out)["method"] == method


def test_sum_without_method_on_a_divergent_row_exits_three(capsys):
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "-0.5", "--phi", "180deg")
    assert (code, out) == (3, "")
    assert "divergent" in err


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


def test_table_zero_terms_is_a_usage_error(capsys):
    # a bad term count is not a refused method: no NaN cells, exit 64
    code, out, err = run(capsys, "table", "--kind", "cos", "--n", "0.5", "--from", "0deg",
                         "--to", "90deg", "--step", "45deg", "--methods", "partial,abel",
                         "--terms", "0")
    assert (code, out) == (64, "")
    assert "terms must be" in err


def test_table_partial_on_a_summable_only_row_is_nan(capsys):
    code, out, _ = run(capsys, "table", "--kind", "cos", "--n", "-3", "--from", "30deg",
                       "--to", "60deg", "--step", "30deg", "--methods", "partial,abel")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[2] for row in rows] == ["nan", "nan"]
    assert all(math.isfinite(float(row[3])) for row in rows)
    # n = 1100.5: the terms overflow, and so does the closed form, to a signed infinity
    code, out, _ = run(capsys, "table", "--kind", "cos", "--n", "1100.5", "--from", "0deg",
                       "--to", "1deg", "--step", "1deg", "--methods", "partial")
    assert (code, out.splitlines()[1:]) == (0, ["0,0,nan,inf", "1,0.017453292519943295,nan,-inf"])
    # n = 1100, sine: the row is refused, but its closed form at phi = 0 is 0, not inf * 0
    code, out, _ = run(capsys, "table", "--kind", "sin", "--n", "1100", "--from", "0deg",
                       "--to", "1deg", "--step", "1deg", "--methods", "partial")
    assert (code, out.splitlines()[1]) == (0, "0,0,nan,0")


def test_a_closed_form_a_double_cannot_place_is_a_domain_error(capsys):
    # at phi = 7, n*phi/2 is inf: the table is refused whole, on one line, with no row printed
    code, out, err = run(capsys, "table", "--kind", "cos", "--n", "1e308", "--from", "0",
                         "--to", "7", "--step", "7", "--methods", "partial")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"trigsum: domain error: .*phi=7\.0.*\n", err)


def test_sum_abel_past_the_doubles_exits_three_on_one_line(capsys):
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n=-1e9", "--phi", "1", "--method", "abel")
    assert (code, out) == (3, "")
    assert re.fullmatch(r"trigsum: divergent: .*\n", err)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's warnings would come first
@pytest.mark.parametrize("method", ["partial", "cesaro", "abel"])
def test_sum_with_non_finite_float64_terms_is_domain_error(capsys, method):
    # the coefficients of n = 1030.5 overflow a double from k = 495 on
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "1030.5",
                         "--phi", "1", "--method", method)
    assert code == 2
    assert out == ""
    assert "domain error" in err and "not finite" in err


def test_cesaro_names_the_first_non_finite_partial_sum_by_its_index_in_the_row(capsys):
    # 600 terms: the windows of the residual are k = 300..449 and 450..599,
    # and the first partial sum past the doubles, k = 495, lies in the last
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "1030.5", "--phi", "1",
                         "--method", "cesaro", "--terms", "600")
    assert code == 2
    assert out == ""
    assert err == "trigsum: domain error: float64 sum: the term or partial sum at k = 495 is not finite\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, phi, method", [("1024", "0", "cesaro"), ("1024", "0", "abel"),
                                            ("1029", "1", "partial")])
def test_sum_of_a_terminating_row_beyond_the_doubles_is_domain_error(capsys, n, phi, method):
    # these ended in an uncaught OverflowError from math.fsum (exit 1)
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", n, "--phi", phi, "--method", method)
    assert (code, out) == (2, "")
    assert err.startswith("trigsum: domain error:") and "terminating row" in err


@pytest.mark.parametrize("n", ["1e15", "1e308"])
@pytest.mark.parametrize("method", ["abel", "cesaro"])
def test_sum_of_a_terminating_row_past_n_1029_is_one_domain_error_line(capsys, n, method):
    # refused before the row is built: 1e15 ended in a MemoryError (exit 1), 1e308 in exit 64
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", n, "--phi", "1", "--method", method)
    assert (code, out) == (2, "")
    assert err.startswith("trigsum: domain error:") and "terminating row" in err and err.count("\n") == 1


def test_sum_beyond_the_doubles_is_domain_error(capsys):
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "1024.5",
                         "--phi", "0", "--method", "partial")
    assert code == 2
    assert out == ""
    assert "overflows a double" in err


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


def test_verify_summary_line_counts_match_the_report_trailer(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "verify", "--suite", "lambda", "--tol", "1e-12", "--report", str(path))
    assert code == 1
    assert re.fullmatch(r"suite=lambda total=12 passed=7 failed=5 wall_time=\d+\.\d{3}s\n", out)
    assert path.read_text(encoding="utf-8").splitlines()[-1] == "# total=12 passed=7 failed=5"


def test_verify_grid_step_override(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "finite_integer",
                       "--grid-step-deg", "30")
    assert code == 0
    assert "failed=0" in out


def _cap_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def _main_in_a_fresh_process(argv, **kwargs):
    """(exit code, stdout, stderr) of cli.main(argv) in a child process, under a time cap."""
    env = dict(os.environ, PYTHONPATH=str(Path(trigsum.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from trigsum.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv], capture_output=True, text=True, env=env, timeout=60, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("step", ["1e-6", "0.09"])
def test_verify_refuses_a_grid_finer_than_the_angle_cap(step):
    # 1e-6 degrees would build 358 million angles per row; the cap refuses
    # every step below a tenth of a degree before a grid is built.  The
    # child runs under a time and an address-space cap.
    code, out, err = _main_in_a_fresh_process(
        ["verify", "--suite", "finite_integer", "--grid-step-deg", step], preexec_fn=_cap_child_memory)
    assert (code, out) == (64, "")
    assert "more than 3600 angles per turn" in err


def test_table_refuses_more_rows_than_a_full_turn_at_a_tenth_of_a_degree():
    # 10**12 + 1 rows: the cap refuses them before any row is computed, in
    # a child under a time and an address-space cap
    code, out, err = _main_in_a_fresh_process(
        ["table", "--kind", "cos", "--n", "3", "--from", "0", "--to", "1", "--step", "1e-12",
         "--methods", "phase"], preexec_fn=_cap_child_memory)
    assert (code, out) == (64, "")
    assert err == ("trigsum: usage error: the range gives 1e+12 rows; a table has at most 3601"
                   " (a full turn in steps of 0.1 degrees, both ends included)\n")


def test_table_takes_a_full_turn_at_a_tenth_of_a_degree(capsys):
    table = ["table", "--kind", "cos", "--n", "3", "--methods", "phase", "--step", "0.1deg"]
    code, out, _ = run(capsys, *table, "--from", "0deg", "--to", "360deg")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3601  # the header, then both ends of the turn
    code, out, err = run(capsys, *table, "--from", "0deg", "--to", "360.1deg")
    assert (code, out) == (64, "")
    assert "gives 3602 rows" in err


def test_a_tenth_of_a_degree_grid_stays_accepted():
    assert len(build_suite("finite_integer", 0.1)) == 11 * 2 * 3579
    assert len(build_suite("negative_integer", 0.1)) == 2 * 6 * 3398


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # the parser is built once per process: a usage error, --help and
    # earlier commands leave nothing behind for the next call
    from trigsum import cli

    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    first = ["sum", "--kind", "cos", "--n", "-1.5", "--phi", "1"]
    calls = [["sum", "--kind", "cos", "--n", "-1.5"], ["--help"], first,
             ["verify", "--suite", "lambda"], first]

    def masked(result):  # wall time is the one field that differs between runs
        code, out, err = result
        return code, re.sub(r"wall_time=\S+", "wall_time=", out), err

    cli._build_parser.cache_clear()
    results = [masked(run(capsys, *argv)) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in results] == [64, 0, 0, 0, 0]
    assert results[2] == results[4]
    for argv, result in zip(calls, results):
        assert result == masked(_main_in_a_fresh_process(argv)), argv


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


@pytest.mark.parametrize("option, message", [
    (["--methods", "nosuch"], "unknown method 'nosuch'"),
    (["--methods", "partial", "--step", "0"], "step must be positive"),
])
def test_table_bad_method_or_step_is_a_usage_error(capsys, option, message):
    argv = ["--kind", "cos", "--n", "2", "--from", "0deg", "--to", "90deg", "--step", "45deg", *option]
    code, out, err = run(capsys, "table", *argv)
    assert (code, out) == (64, "")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["--n", "-3", "--phi", "90deg", "--method", "abel", "--terms", "5000"],
    ["--n", "3", "--phi", "1", "--method", "phase", "--terms", "5"],
    ["--n", "-3", "--phi", "90deg", "--terms", "5000"],  # falls back to Abel summation
])
def test_sum_term_count_for_a_method_that_picks_its_own_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, "sum", "--kind", "cos", *argv)
    assert (code, out) == (64, "")
    assert "terms must be left out" in err


def test_table_term_count_for_abel_is_a_usage_error(capsys):
    code, out, err = run(capsys, "table", "--kind", "cos", "--n", "0.5", "--from", "0deg",
                         "--to", "90deg", "--step", "45deg", "--methods", "partial,abel",
                         "--terms", "5000")
    assert (code, out) == (64, "")
    assert "terms must be left out" in err


@pytest.mark.parametrize("tol", ["nan", "-1e-6"])
def test_sum_tolerance_must_be_a_nonnegative_number(capsys, tol):
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "3", "--phi", "1", f"--tol={tol}")
    assert (code, out) == (64, "")
    assert "tol must be >= 0" in err


def test_verify_nan_tolerance_is_a_usage_error(capsys):
    # every case failed its comparison with NaN and the run exited 1
    code, out, err = run(capsys, "verify", "--suite", "quarter_turn", "--tol", "nan")
    assert (code, out) == (64, "")
    assert "tolerance must be >= 0" in err


@pytest.mark.parametrize("phi", ["-90deg", "-1e-3", "-.5rad", "-1E+2deg"])
def test_a_negative_angle_with_a_unit_or_an_exponent_is_a_value(capsys, phi):
    # argparse's own pattern knows only -12 and -1.5: these were read as
    # unknown options, and sum exited 64 with "expected one argument"
    spaced = run(capsys, "sum", "--kind", "cos", "--n", "2", "--phi", phi, "--method", "phase")
    joined = run(capsys, "sum", "--kind", "cos", "--n", "2", f"--phi={phi}", "--method", "phase")
    assert spaced == joined
    assert spaced[0] == 0


def test_a_negative_n_in_e_notation_is_a_value(capsys):
    spaced = run(capsys, "sum", "--kind", "cos", "--n", "-1e9", "--phi", "1", "--method", "abel")
    joined = run(capsys, "sum", "--kind", "cos", "--n=-1e9", "--phi", "1", "--method", "abel")
    assert spaced == joined
    assert spaced[0] == 3


def test_a_table_starts_at_a_negative_angle_with_a_unit(capsys):
    code, out, err = run(capsys, "table", "--kind", "cos", "--n", "2", "--from", "-90deg",
                         "--to", "0deg", "--step", "45deg", "--methods", "phase")
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["-90", "-45", "0"]


@pytest.mark.parametrize("phi", ["-x", "-deg", "-90grad"])
def test_a_word_that_is_no_number_is_still_an_option(capsys, phi):
    code, out, err = run(capsys, "sum", "--kind", "cos", "--n", "2", "--phi", phi, "--method", "phase")
    assert (code, out) == (64, "")
    assert "expected one argument" in err


_RUNTIME_ARGVS = [
    ["sum", "--kind", "cos", "--n", "0.5", "--phi", "2", "--method", "partial"],
    ["sum", "--kind", "sin", "--n", "-0.5", "--phi", "1", "--method", "cesaro"],
    ["sum", "--kind", "cos", "--n", "-3", "--phi", "1", "--method", "abel"],  # double-double
    ["sum", "--kind", "sin", "--n", "-1.5", "--phi", "2", "--method", "abel"],
    ["sum", "--kind", "cos", "--n", "7", "--phi", "1", "--method", "phase"],
    ["table", "--kind", "cos", "--n", "-2.5", "--from", "10deg", "--to", "170deg",
     "--step", "40deg", "--methods", "partial,cesaro,abel"],
    ["verify", "--suite", "lambda"],
]

# Blocks mpmath in a child process, then runs each argv through cli.main.
_WITHOUT_MPMATH = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None  # import mpmath raises ImportError
from trigsum.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([main(argv), out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def _child(script, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(trigsum.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def _without_wall_time(out):
    return re.sub(r" wall_time=\S+", "", out)


def test_the_runtime_needs_numpy_alone(capsys):
    # every method, a table and a suite, in a child that cannot import mpmath
    runs = json.loads(_child(_WITHOUT_MPMATH, json.dumps(_RUNTIME_ARGVS)))
    for argv, (code, out, err) in zip(_RUNTIME_ARGVS, runs, strict=True):
        here = run(capsys, *argv)
        assert (code, _without_wall_time(out), err) == (here[0], _without_wall_time(here[1]), here[2]), argv
    assert [r[0] for r in runs] == [0] * 7


def test_importing_trigsum_leaves_mpmath_unloaded():
    assert _child("import sys, trigsum; print('mpmath' in sys.modules)") == "False\n"
