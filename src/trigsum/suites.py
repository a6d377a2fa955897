"""Verification suites: summation oracles against closed forms on angle grids.

Each suite is a flat list of cases.  A case is one series and its check:
the method that computes it, where its expected value comes from (closed
form, phase series, or a literal with a provenance note) and the tolerance.
A case passes when ``abs_error <= tolerance * (1 + |expected|)``.

Suites are deterministic: identical invocations produce byte-identical
report bodies (wall time is reported separately, never in the body).
"""

from __future__ import annotations

import enum
import functools
import math
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .binom import binom_prefix, is_integer_exponent
from .closed_forms import (
    evaluate_closed,
    quarter_turn_sum,
    reduced_neg_int,
    special_value_catalog,
)
from .exceptions import DivergentSeriesError, DomainError
from .phase import series_at_phase
from .series import (
    SUMMATION_METHODS,
    SeriesKind,
    SeriesSpec,
    SummationMethod,
    _validate_radii,
    evaluate,
    evaluate_grid,
)

#: Radial schedule for the negative-integer sweep.  The closed forms grow
#: like (2 cos(phi/2))**-m near the half-turn, and the extrapolation only
#: reaches the required accuracy there with samples this close to 1.
NEGATIVE_SUITE_RADII = tuple(
    1.0 - 0.025 * (0.004 / 0.025) ** (i / 7.0) for i in range(8)
)

class ExpectedSource(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    LITERAL = "literal"
    PHASE_SERIES = "phase_series"


@dataclass(frozen=True, slots=True)
class CaseCheck:
    """How a case is judged; a builder shares one among the cases of an exponent or more."""
    method: SummationMethod
    expected_source: ExpectedSource
    tolerance: float
    note: str = ""
    radii: tuple[float, ...] | None = None
    expected_literal: float | None = None
    expect_divergent: bool = False

    def __post_init__(self):
        if not self.tolerance >= 0.0:  # NaN too
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.radii is not None:  # a tuple that abel_sum takes, or ValueError now, not mid-run
            object.__setattr__(self, "radii", _validate_radii(self.radii))
        if self.expected_source is ExpectedSource.LITERAL and (
                not self.note or self.expected_literal is None and not self.expect_divergent):
            raise ValueError("a literal expectation needs its value and a provenance note")


@dataclass(frozen=True, slots=True)
class SuiteCase:
    spec: SeriesSpec
    check: CaseCheck
    # the check's fields, read-only, as the case's own: case.tolerance is case.check.tolerance
    method, expected_source, tolerance, note, radii, expected_literal, expect_divergent = (
        property(attrgetter("check." + name)) for name in CaseCheck.__slots__)

    def __post_init__(self):
        method, spec = self.check.method, self.spec
        if method in SUMMATION_METHODS:  # a summed case takes any series
            return
        # a reduced case computes reduced_neg_int(-n), a closed one quarter_turn_sum(n)
        if method is SummationMethod.REDUCED and not (
                spec.kind is SeriesKind.COSINE and is_integer_exponent(spec.n) and -7.0 <= spec.n <= -1.0):
            raise ValueError(f"a reduced case needs a cosine row with integer n in -7..-1: {self.spec}")
        if method is SummationMethod.CLOSED and (spec.kind is not SeriesKind.COSINE or spec.phi != 0.5 * math.pi):
            raise ValueError(f"a closed case needs the cosine row at a quarter turn: {self.spec}")


class CaseResult(NamedTuple):
    case: SuiteCase
    computed: float
    expected: float
    abs_error: float
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    results: list[CaseResult]
    wall_time: float

    @property
    def total(self) -> int:
        return len(self.results)

    @functools.cached_property  # counted once per report
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed


def _grid_deg(lo: float, hi: float, step: float, exclude_zero: bool = False) -> list[float]:
    """Degrees strictly inside (lo, hi) in steps of ``step`` from lo."""
    out = []
    k = 1
    while True:
        d = lo + k * step
        if d >= hi - 1e-9:
            break
        if not (exclude_zero and abs(d) < 1e-12):
            out.append(d)
        k += 1
    return out


# ----------------------------------------------------------------------
# Suite builders
# ----------------------------------------------------------------------

def _sweep(ns, kinds, degrees, checks) -> list[SuiteCase]:
    """One case per check of ``checks(n)`` at each exponent, kind and angle
    in degrees, in that order.  ``checks`` runs once per exponent, so the
    cases of one exponent share its checks; the cases at one angle share one spec."""
    cases = []
    for n in ns:
        shared = checks(n)
        for kind in kinds:
            for d in degrees:
                spec = SeriesSpec(kind, n, math.radians(d))
                cases.extend([SuiteCase(spec, check) for check in shared])
    return cases


def _build_finite_integer(step: float | None) -> list[SuiteCase]:
    grid = _grid_deg(-179.0, 179.0, 1.0 if step is None else step)
    partial = (CaseCheck(SummationMethod.PARTIAL, ExpectedSource.CLOSED_FORM, 1e-10),)
    return _sweep(map(float, range(0, 11)), SeriesKind, grid, lambda n: partial)


def _quarter_turn_family(literals: dict, summed: tuple, closed: tuple) -> list[SuiteCase]:
    """A literal case at a quarter turn per exponent of ``literals`` and (method, tolerance, note)."""
    return _sweep(literals, (SeriesKind.COSINE,), (90.0,), lambda n: tuple(
        CaseCheck(method, ExpectedSource.LITERAL, tolerance, note, expected_literal=literals[n])
        for method, tolerance, note in (summed, closed)))


def _build_negative_integer(step: float | None) -> list[SuiteCase]:
    grid = _grid_deg(-170.0, 170.0, 2.0 if step is None else step, exclude_zero=True)
    ns = [float(-m) for m in range(1, 7)]
    abel = (CaseCheck(SummationMethod.ABEL, ExpectedSource.CLOSED_FORM, 1e-6, radii=NEGATIVE_SUITE_RADII),)
    reduced = (CaseCheck(SummationMethod.REDUCED, ExpectedSource.CLOSED_FORM, 1e-12),)
    # every Abel case first, then every reduced one
    return (_sweep(ns, (SeriesKind.COSINE,), grid, lambda n: abel)
            + _sweep(ns, (SeriesKind.COSINE,), grid, lambda n: reduced))


def _build_half_integer(step: float | None) -> list[SuiteCase]:
    cases = []
    for entry in special_value_catalog():
        # the boundary of conditional convergence takes plain truncation only
        partial = entry.spec.n > 0 and entry.spec.phi == math.pi
        cases.append(SuiteCase(entry.spec, CaseCheck(
            SummationMethod.PARTIAL if partial else SummationMethod.ABEL, ExpectedSource.LITERAL,
            1e-3 if partial else 1e-6, entry.description, expected_literal=entry.value,
            expect_divergent=entry.divergent)))
    return cases


def _phase_checks(n: float) -> tuple[CaseCheck, ...]:
    tol = 1e-12 * 2.0 ** n
    return tuple(CaseCheck(SummationMethod.PHASE, source, tol)
                 for source in (ExpectedSource.PHASE_SERIES, ExpectedSource.CLOSED_FORM))


def _build_phase_equivalence(step: float | None) -> list[SuiteCase]:
    grid = _grid_deg(-179.0, 179.0, 1.0 if step is None else step)
    return _sweep(map(float, range(0, 21)), SeriesKind, grid, _phase_checks)


_BUILDERS = {
    "finite_integer": _build_finite_integer,
    "negative_integer": _build_negative_integer,
    "half_integer": _build_half_integer,
    "quarter_turn": lambda step: _quarter_turn_family(
        {2.0: 0.0, 3.0: -2.0, 4.0: -4.0, 5.0: -4.0, 6.0: 0.0, 7.0: 8.0, 8.0: 16.0},
        (SummationMethod.PARTIAL, 1e-12, "alternating even-index row sum"),
        (SummationMethod.CLOSED, 1e-15, "quarter-turn closed value")),
    "lambda": lambda step: _quarter_turn_family(
        {-1.0: 0.5, -2.0: 0.0, -3.0: -0.25, -4.0: -0.25, -5.0: -0.125, -6.0: 0.0},
        (SummationMethod.ABEL, 1e-6, "quarter-turn family value"),
        (SummationMethod.CLOSED, 1e-14, "quarter-turn family value")),
    "phase_equivalence": _build_phase_equivalence,
}

SUITE_NAMES = (*_BUILDERS, "all")


#: Most angles a grid step may give per full turn: one per tenth of a degree.
#: A finer step would hold millions of cases in memory.
MAX_GRID_ANGLES = 3600


def build_suite(name: str, grid_step_deg: float | None = None) -> list[SuiteCase]:
    if grid_step_deg is not None and not 0.0 < grid_step_deg < math.inf:
        raise ValueError(f"grid step must be a positive finite number of degrees, got {grid_step_deg}")
    if grid_step_deg is not None and 360.0 / grid_step_deg > MAX_GRID_ANGLES:
        raise ValueError(f"a grid step of {grid_step_deg} degrees gives more than {MAX_GRID_ANGLES}"
                         f" angles per turn; the finest step is {360.0 / MAX_GRID_ANGLES} degrees")
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    cases = []
    for suite in _BUILDERS if name == "all" else (name,):
        built = _BUILDERS[suite](grid_step_deg)
        if not built:  # a swept suite whose grid the step leaves empty
            raise ValueError(f"a grid step of {grid_step_deg} degrees leaves suite {suite!r} without an angle")
        cases.extend(built)
    return cases


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _row_key(case: SuiteCase) -> tuple:
    """Cases with one key form a row: one series, method and expected source
    at many angles.  The sign of n is part of it, as -0.0 == 0.0."""
    spec, check = case.spec, case.check
    return (spec.kind, spec.n, check.method, check.expected_source,
            check.radii, check.expect_divergent, math.copysign(1.0, spec.n))


def _expected_row(key: tuple, phis: tuple, row: list[SuiteCase], phase_series):
    kind, n, _method, source, *_ = key
    if source is ExpectedSource.LITERAL:
        return [float(case.check.expected_literal) for case in row]
    if source is ExpectedSource.CLOSED_FORM:
        return evaluate_closed(kind, n, phis).value
    # the row polynomial by one Horner pass at p: its real and imaginary parts
    return phase_series(n, phis)[kind is SeriesKind.SINE]


def _judge_refusal(case: SuiteCase) -> CaseResult:
    """A case that expects divergence passes when evaluate refuses its row;
    a value fails it, and so does a DomainError (computed nan)."""
    try:
        value = evaluate(case.spec, case.check.method, radii=case.check.radii).value
    except DivergentSeriesError:
        return CaseResult(case, math.nan, math.nan, math.nan, True)
    except DomainError:
        value = math.nan
    return CaseResult(case, value, math.nan, math.nan, False)


def run_cases(cases: list[SuiteCase], tolerance_override: float | None = None) -> list[CaseResult]:
    """Judge every case, in order.

    The cases are grouped into rows (``_row_key``), each row is evaluated
    once over the angles of its cases (the summed rows of one method, radii
    and angle tuple in one ``evaluate_grid`` call), and then each case is
    judged.  A row's angles are its own cases', so its values do not depend
    on what other suites run beside it.  Every value has the bits of its
    case evaluated alone, but on the Abel rows with n > -2 that
    ``evaluate_grid`` sums on a grid.
    """
    if tolerance_override is not None:  # each distinct check once
        distinct = {id(c.check): c.check for c in cases}
        overridden = {key: replace(check, tolerance=tolerance_override) for key, check in distinct.items()}
        cases = [SuiteCase(c.spec, overridden[id(c.check)]) for c in cases]
    new_result = functools.partial(tuple.__new__, CaseResult)  # namedtuple's __new__, minus its frame
    indices: dict[tuple, array] = defaultdict(lambda: array("q"))  # no int object per case
    for i, key in enumerate(map(_row_key, cases)):
        indices[key].append(i)
    rows = {key: tuple(cases[i].spec.phi for i in idxs) for key, idxs in indices.items()}
    computed_rows, grids = {}, defaultdict(list)
    for key, phis in rows.items():
        _kind, n, method, _source, radii, divergent, _sign = key
        if method is SummationMethod.REDUCED:
            computed_rows[key] = [reduced_neg_int(int(-n), phi).value for phi in phis]
        elif method is SummationMethod.CLOSED:
            computed_rows[key] = [quarter_turn_sum(n).value] * len(phis)
        elif not divergent:  # a row that expects divergence is judged case by case
            grids[method, radii, phis].append(key)
    for (method, radii, phis), keys in grids.items():
        computed_rows.update(zip(keys, evaluate_grid([key[:2] for key in keys], phis, method, radii)))
    phase_series = functools.cache(lambda n, phis: series_at_phase(binom_prefix(n, int(n) + 1), phis))
    results: list[CaseResult] = [None] * len(cases)
    for key, idxs in indices.items():
        if key[5]:  # expect_divergent
            for i in idxs:
                results[i] = _judge_refusal(cases[i])
            continue
        row = [cases[i] for i in idxs]
        computed = np.array(computed_rows[key])
        expected = np.array(_expected_row(key, rows[key], row, phase_series))
        # the judgement of each case, in the same float operations per element
        abs_error = np.abs(computed - expected)
        passed = abs_error <= np.array([case.check.tolerance for case in row]) * (1.0 + np.abs(expected))
        fields = zip(row, computed.tolist(), expected.tolist(), abs_error.tolist(), passed.tolist())
        for i, result in zip(idxs, map(new_result, fields)):
            results[i] = result
    return results


def run_suite(name: str, grid_step_deg: float | None = None,
              tolerance_override: float | None = None) -> VerificationReport:
    cases = build_suite(name, grid_step_deg)
    start = time.perf_counter()
    results = run_cases(cases, tolerance_override)
    return VerificationReport(name, results, time.perf_counter() - start)


# ----------------------------------------------------------------------
# Report format
# ----------------------------------------------------------------------

_HEADER = "case,kind,n,phi_rad,method,computed,expected,abs_error,passed"


def _num(x: float) -> str:
    return format(float(x), ".17g")


class _Text(dict):
    """Report text of enum members and floats; a zero is formatted each time, as -0.0 == 0.0."""

    def __missing__(self, x: float) -> str:
        return self.setdefault(x, "%.17g" % x) if x else "%.17g" % x


def report_lines(report: VerificationReport) -> list[str]:
    """Body of the report file; deterministic, no wall time."""
    text = _Text({member: member.value for member in (*SeriesKind, *SummationMethod)})
    lines = [_HEADER]
    for i, (case, computed, expected, abs_error, passed) in enumerate(report.results):
        spec = case.spec
        lines.append("%d,%s,%s,%s,%s,%.17g,%.17g,%.17g,%s" % (  # %.17g gives _num's bytes
            i, text[spec.kind], text[spec.n], text[spec.phi], text[case.check.method],
            computed, expected, abs_error, "true" if passed else "false"))
    lines.append(f"# total={report.total} passed={report.passed} failed={report.failed}")
    return lines


def write_report(report: VerificationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report_lines(report)) + "\n")
