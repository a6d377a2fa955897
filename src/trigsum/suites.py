"""Verification suites: summation oracles against closed forms on angle grids.

Each suite is a flat list of cases.  A case names one series, the method
that computes it, where its expected value comes from (closed form,
radical catalog, or a literal with a provenance note) and the tolerance.
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
from typing import NamedTuple

import numpy as np

from .binom import EXACT_INTEGER_LIMIT, binom_prefix, is_integer_exponent
from .closed_forms import (
    evaluate_closed,
    quarter_turn_sum,
    reduced_neg_int,
    special_value_catalog,
)
from .exceptions import DivergentSeriesError, DomainError
from .phase import binomial_phase_power, series_at_phase
from .series import (
    SeriesKind,
    SeriesSpec,
    SummationMethod,
    abel_sum_grid,
    evaluate,
    rotations,
    whole_row_sums,
)

#: Radial schedule for the negative-integer sweep.  The closed forms grow
#: like (2 cos(phi/2))**-m near the half-turn, and the extrapolation only
#: reaches the required accuracy there with samples this close to 1.
NEGATIVE_SUITE_RADII = tuple(
    1.0 - 0.025 * (0.004 / 0.025) ** (i / 7.0) for i in range(8)
)

class ExpectedSource(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    CATALOG = "catalog"
    LITERAL = "literal"
    PHASE_SERIES = "phase_series"


@dataclass(frozen=True)
class SuiteCase:
    spec: SeriesSpec
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
        if self.expected_source is ExpectedSource.LITERAL and not self.note:
            raise ValueError("literal expectations need a provenance note")
        kind, n, phi = self.spec.kind, self.spec.n, self.spec.phi
        # a reduced case computes reduced_neg_int(-n), a closed one quarter_turn_sum(n)
        if self.method is SummationMethod.REDUCED and not (
                kind is SeriesKind.COSINE and is_integer_exponent(n) and -7.0 <= n <= -1.0):
            raise ValueError(f"a reduced case needs a cosine row with integer n in -7..-1: {self.spec}")
        if self.method is SummationMethod.CLOSED and (kind is not SeriesKind.COSINE or phi != 0.5 * math.pi):
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

    @property
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

def _sweep(ns, kinds, degrees, variants) -> list[SuiteCase]:
    """One case per keyword set of ``variants(n)`` at each exponent, kind and
    angle in degrees, in that order.  ``variants`` runs once per exponent,
    so its cases share one tolerance object; the cases at one angle share one spec."""
    cases = []
    for n in ns:
        shared = variants(n)
        for kind in kinds:
            for d in degrees:
                spec = SeriesSpec(kind, n, math.radians(d))
                cases.extend(SuiteCase(spec=spec, **kw) for kw in shared)
    return cases


def _build_finite_integer(step: float | None) -> list[SuiteCase]:
    grid = _grid_deg(-179.0, 179.0, 1.0 if step is None else step)
    partial = dict(method=SummationMethod.PARTIAL, expected_source=ExpectedSource.CLOSED_FORM, tolerance=1e-10)
    return _sweep(map(float, range(0, 11)), SeriesKind, grid, lambda n: (partial,))


_QUARTER_TURN_LITERALS = {2.0: 0.0, 3.0: -2.0, 4.0: -4.0, 5.0: -4.0, 6.0: 0.0, 7.0: 8.0, 8.0: 16.0}


def _build_quarter_turn(step: float | None) -> list[SuiteCase]:
    literal = dict(expected_source=ExpectedSource.LITERAL)
    return _sweep(_QUARTER_TURN_LITERALS, (SeriesKind.COSINE,), (90.0,), lambda n: (
        dict(literal, method=SummationMethod.PARTIAL, tolerance=1e-12,
             expected_literal=_QUARTER_TURN_LITERALS[n], note="alternating even-index row sum"),
        dict(literal, method=SummationMethod.CLOSED, tolerance=1e-15,
             expected_literal=_QUARTER_TURN_LITERALS[n], note="quarter-turn closed value")))


def _build_negative_integer(step: float | None) -> list[SuiteCase]:
    grid = _grid_deg(-170.0, 170.0, 2.0 if step is None else step, exclude_zero=True)
    ns = [float(-m) for m in range(1, 7)]
    abel = dict(method=SummationMethod.ABEL, expected_source=ExpectedSource.CLOSED_FORM,
                tolerance=1e-6, radii=NEGATIVE_SUITE_RADII)
    reduced = dict(method=SummationMethod.REDUCED, expected_source=ExpectedSource.CLOSED_FORM, tolerance=1e-12)
    # every Abel case first, then every reduced one
    return (_sweep(ns, (SeriesKind.COSINE,), grid, lambda n: (abel,))
            + _sweep(ns, (SeriesKind.COSINE,), grid, lambda n: (reduced,)))


def _build_half_integer(step: float | None) -> list[SuiteCase]:
    cases = []
    for entry in special_value_catalog():
        if entry.divergent:
            cases.append(SuiteCase(
                spec=entry.spec, method=SummationMethod.ABEL,
                expected_source=ExpectedSource.CATALOG, tolerance=1e-6,
                expect_divergent=True,
            ))
        elif entry.spec.n > 0 and entry.spec.phi == math.pi:
            # boundary of conditional convergence: plain truncation only
            cases.append(SuiteCase(
                spec=entry.spec, method=SummationMethod.PARTIAL,
                expected_source=ExpectedSource.CATALOG, tolerance=1e-3,
            ))
        else:
            cases.append(SuiteCase(
                spec=entry.spec, method=SummationMethod.ABEL,
                expected_source=ExpectedSource.CATALOG, tolerance=1e-6,
            ))
    return cases


_LAMBDA_LITERALS = {-1.0: 0.5, -2.0: 0.0, -3.0: -0.25, -4.0: -0.25, -5.0: -0.125, -6.0: 0.0}


def _build_lambda(step: float | None) -> list[SuiteCase]:
    literal = dict(expected_source=ExpectedSource.LITERAL, note="quarter-turn family value")
    return _sweep(_LAMBDA_LITERALS, (SeriesKind.COSINE,), (90.0,), lambda n: (
        dict(literal, method=SummationMethod.ABEL, tolerance=1e-6, expected_literal=_LAMBDA_LITERALS[n]),
        dict(literal, method=SummationMethod.CLOSED, tolerance=1e-14, expected_literal=_LAMBDA_LITERALS[n])))


def _phase_variants(n: float) -> tuple[dict, ...]:
    tol = 1e-12 * 2.0 ** n
    return tuple(dict(method=SummationMethod.PHASE, expected_source=source, tolerance=tol)
                 for source in (ExpectedSource.PHASE_SERIES, ExpectedSource.CLOSED_FORM))


def _build_phase_equivalence(step: float | None) -> list[SuiteCase]:
    grid = _grid_deg(-179.0, 179.0, 1.0 if step is None else step)
    return _sweep(map(float, range(0, 21)), SeriesKind, grid, _phase_variants)


_BUILDERS = {
    "finite_integer": _build_finite_integer,
    "negative_integer": _build_negative_integer,
    "half_integer": _build_half_integer,
    "quarter_turn": _build_quarter_turn,
    "lambda": _build_lambda,
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
    if name == "all":
        cases = []
        for build in _BUILDERS.values():
            cases.extend(build(grid_step_deg))
        return cases
    try:
        return _BUILDERS[name](grid_step_deg)
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}") from None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _row_key(case: SuiteCase) -> tuple:
    """Cases with one key form a row: one series, method and expected source
    at many angles.  The sign of n is part of it, as -0.0 == 0.0."""
    return (case.spec.kind, case.spec.n, case.method, case.expected_source,
            case.radii, case.expect_divergent, math.copysign(1.0, case.spec.n))


def _abel_grid(rows: dict[tuple, tuple], kind: SeriesKind, radii, phis: tuple) -> dict | None:
    """{n: values} of every Abel row of ``kind`` and ``radii`` on the angles
    ``phis``, from one abel_sum_grid call; None when the engine refuses the grid."""
    ns = [key[1] for key, row in rows.items() if (key[0], key[2], key[4], key[5], row)
          == (kind, SummationMethod.ABEL, radii, False, phis)]
    try:
        return {n: v for n, (v, _res, _used) in abel_sum_grid(kind, ns, list(phis), radii).items()}
    except (DivergentSeriesError, DomainError):
        return None


class _Tables:
    """What the rows of one run share, built once per grid (a tuple of angles):
    one phase evaluation per exponent, one rotation table, and one
    abel_sum_grid call per kind and radii.  A row's angles are its own
    cases', so its values do not depend on what other suites run beside it.
    """

    def __init__(self, rows: dict[tuple, tuple]):
        self.rotations = functools.cache(lambda phis: rotations(phis, EXACT_INTEGER_LIMIT + 1))
        self.phase_power = functools.cache(binomial_phase_power)
        self.phase_series = functools.cache(
            lambda n, phis: series_at_phase(binom_prefix(n, int(n) + 1), phis))
        self.abel = functools.cache(lambda kind, radii, phis: _abel_grid(rows, kind, radii, phis))


def _computed_row(key: tuple, phis: tuple, tables: _Tables):
    kind, n, method, _source, radii, *_ = key
    if method is SummationMethod.PHASE:
        try:
            return tables.phase_power(n, phis)[kind is SeriesKind.SINE]
        except ValueError:  # the phase path takes integer n in 0..64 only
            return [math.nan] * len(phis)
    if method is SummationMethod.PARTIAL and is_integer_exponent(n) and 0 <= n <= EXACT_INTEGER_LIMIT:
        # a terminating row: its partial sum is the whole row
        return whole_row_sums(kind, n, tables.rotations(phis))
    if method is SummationMethod.ABEL and tables.abel(kind, radii, phis) is not None:
        return tables.abel(kind, radii, phis)[n]
    if method is SummationMethod.REDUCED:
        return [reduced_neg_int(int(-n), phi).value for phi in phis]
    if method is SummationMethod.CLOSED:
        return [quarter_turn_sum(n).value] * len(phis)
    out = []  # one angle at a time, where a refused point fails alone
    for phi in phis:
        try:
            out.append(evaluate(SeriesSpec(kind, n, phi), method, radii=radii).value)
        except (DivergentSeriesError, DomainError):
            out.append(math.nan)
    return out


def _catalog_value(spec: SeriesSpec) -> float:
    for entry in special_value_catalog():
        if entry.spec == spec:
            return math.nan if entry.value is None else entry.value
    raise ValueError(f"no catalog entry for {spec}")


def _expected_row(key: tuple, phis: tuple, row: list[SuiteCase], tables: _Tables):
    kind, n, _method, source, *_ = key
    if source is ExpectedSource.LITERAL:
        return [float(case.expected_literal) for case in row]
    if source is ExpectedSource.CLOSED_FORM:
        return evaluate_closed(kind, n, phis).value
    if source is ExpectedSource.CATALOG:
        return [_catalog_value(case.spec) for case in row]
    # the row polynomial by one Horner pass at p: its real and imaginary parts
    return tables.phase_series(n, phis)[kind is SeriesKind.SINE]


def _judge_refusal(case: SuiteCase) -> CaseResult:
    """A case that expects divergence passes when evaluate refuses its row."""
    try:
        value = evaluate(case.spec, case.method, radii=case.radii).value
    except DivergentSeriesError:
        return CaseResult(case, math.nan, math.nan, math.nan, True)
    return CaseResult(case, value, math.nan, math.nan, False)


def run_cases(cases: list[SuiteCase], tolerance_override: float | None = None) -> list[CaseResult]:
    """Judge every case, in order.

    The cases are grouped into rows (``_row_key``), each row is evaluated
    once over the angles of its cases, and then each case is judged; every
    value has the bits of its case evaluated alone.
    """
    if tolerance_override is not None:
        cases = [replace(c, tolerance=tolerance_override) for c in cases]
    indices: dict[tuple, array] = defaultdict(lambda: array("q"))  # no int object per case
    for i, case in enumerate(cases):
        indices[_row_key(case)].append(i)
    rows = {key: tuple(cases[i].spec.phi for i in idxs) for key, idxs in indices.items()}
    tables = _Tables(rows)
    results: list[CaseResult] = [None] * len(cases)
    for key, idxs in indices.items():
        if key[5]:  # expect_divergent
            for i in idxs:
                results[i] = _judge_refusal(cases[i])
            continue
        row = [cases[i] for i in idxs]
        computed = np.array(_computed_row(key, rows[key], tables))
        expected = np.array(_expected_row(key, rows[key], row, tables))
        # the judgement of each case, in the same float operations per element
        abs_error = np.abs(computed - expected)
        passed = abs_error <= np.array([case.tolerance for case in row]) * (1.0 + np.abs(expected))
        for i, result in zip(idxs, map(CaseResult, row, computed.tolist(), expected.tolist(),
                                       abs_error.tolist(), passed.tolist())):
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


def report_lines(report: VerificationReport) -> list[str]:
    """Body of the report file; deterministic, no wall time."""
    lines = [_HEADER]
    for i, (case, computed, expected, abs_error, passed) in enumerate(report.results):
        lines.append("%d,%s,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%s" % (  # %.17g gives _num's bytes
            i, case.spec.kind.value, case.spec.n, case.spec.phi, case.method.value,
            computed, expected, abs_error, "true" if passed else "false"))
    lines.append(f"# total={report.total} passed={report.passed} failed={report.failed}")
    return lines


def write_report(report: VerificationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report_lines(report)) + "\n")
