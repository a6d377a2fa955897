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
import math
import time
from dataclasses import dataclass, replace

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
    SeriesKind,
    SeriesSpec,
    SummationMethod,
    abel_sum_grid,
    evaluate,
)

#: Radial schedule for the negative-integer sweep.  The closed forms grow
#: like (2 cos(phi/2))**-m near the half-turn, and the extrapolation only
#: reaches the required accuracy there with samples this close to 1.
NEGATIVE_SUITE_RADII = tuple(
    1.0 - 0.025 * (0.004 / 0.025) ** (i / 7.0) for i in range(8)
)

SUITE_NAMES = (
    "finite_integer",
    "negative_integer",
    "half_integer",
    "quarter_turn",
    "lambda",
    "phase_equivalence",
    "all",
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


@dataclass(frozen=True)
class CaseResult:
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

def _build_finite_integer(step: float | None) -> list[SuiteCase]:
    step = 1.0 if step is None else step
    cases = []
    for n in range(0, 11):
        for kind in (SeriesKind.COSINE, SeriesKind.SINE):
            for d in _grid_deg(-179.0, 179.0, step):
                cases.append(SuiteCase(
                    spec=SeriesSpec(kind, float(n), math.radians(d)),
                    method=SummationMethod.PARTIAL,
                    expected_source=ExpectedSource.CLOSED_FORM,
                    tolerance=1e-10,
                ))
    return cases


_QUARTER_TURN_LITERALS = {2: 0.0, 3: -2.0, 4: -4.0, 5: -4.0, 6: 0.0, 7: 8.0, 8: 16.0}


def _build_quarter_turn(step: float | None) -> list[SuiteCase]:
    cases = []
    for n, lit in _QUARTER_TURN_LITERALS.items():
        spec = SeriesSpec(SeriesKind.COSINE, float(n), 0.5 * math.pi)
        cases.append(SuiteCase(
            spec=spec, method=SummationMethod.PARTIAL,
            expected_source=ExpectedSource.LITERAL, tolerance=1e-12,
            expected_literal=lit,
            note="alternating even-index row sum",
        ))
        cases.append(SuiteCase(
            spec=spec, method=SummationMethod.CLOSED,
            expected_source=ExpectedSource.LITERAL, tolerance=1e-15,
            expected_literal=lit, note="quarter-turn closed value",
        ))
    return cases


def _build_negative_integer(step: float | None) -> list[SuiteCase]:
    step = 2.0 if step is None else step
    grid = _grid_deg(-170.0, 170.0, step, exclude_zero=True)
    cases = []
    for m in range(1, 7):
        for d in grid:
            cases.append(SuiteCase(
                spec=SeriesSpec(SeriesKind.COSINE, float(-m), math.radians(d)),
                method=SummationMethod.ABEL,
                expected_source=ExpectedSource.CLOSED_FORM,
                tolerance=1e-6,
                radii=NEGATIVE_SUITE_RADII,
            ))
    for m in range(1, 7):
        for d in grid:
            cases.append(SuiteCase(
                spec=SeriesSpec(SeriesKind.COSINE, float(-m), math.radians(d)),
                method=SummationMethod.REDUCED,
                expected_source=ExpectedSource.CLOSED_FORM,
                tolerance=1e-12,
            ))
    return cases


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


_LAMBDA_LITERALS = (0.5, 0.0, -0.25, -0.25, -0.125, 0.0)


def _build_lambda(step: float | None) -> list[SuiteCase]:
    cases = []
    for lam in range(1, 7):
        spec = SeriesSpec(SeriesKind.COSINE, float(-lam), 0.5 * math.pi)
        lit = _LAMBDA_LITERALS[lam - 1]
        cases.append(SuiteCase(
            spec=spec, method=SummationMethod.ABEL,
            expected_source=ExpectedSource.LITERAL, tolerance=1e-6,
            expected_literal=lit, note="quarter-turn family value",
        ))
        cases.append(SuiteCase(
            spec=spec, method=SummationMethod.CLOSED,
            expected_source=ExpectedSource.LITERAL, tolerance=1e-14,
            expected_literal=lit, note="quarter-turn family value",
        ))
    return cases


def _build_phase_equivalence(step: float | None) -> list[SuiteCase]:
    step = 1.0 if step is None else step
    grid = _grid_deg(-179.0, 179.0, step)
    cases = []
    for n in range(0, 21):
        tol = 1e-12 * 2.0 ** n
        for kind in (SeriesKind.COSINE, SeriesKind.SINE):
            for d in grid:
                spec = SeriesSpec(kind, float(n), math.radians(d))
                cases.append(SuiteCase(
                    spec=spec, method=SummationMethod.PHASE,
                    expected_source=ExpectedSource.PHASE_SERIES, tolerance=tol,
                ))
                cases.append(SuiteCase(
                    spec=spec, method=SummationMethod.PHASE,
                    expected_source=ExpectedSource.CLOSED_FORM, tolerance=tol,
                ))
    return cases


_BUILDERS = {
    "finite_integer": _build_finite_integer,
    "negative_integer": _build_negative_integer,
    "half_integer": _build_half_integer,
    "quarter_turn": _build_quarter_turn,
    "lambda": _build_lambda,
    "phase_equivalence": _build_phase_equivalence,
}


def build_suite(name: str, grid_step_deg: float | None = None) -> list[SuiteCase]:
    if grid_step_deg is not None and not 0.0 < grid_step_deg < math.inf:
        raise ValueError(f"grid step must be a positive finite number of degrees, got {grid_step_deg}")
    if name == "all":
        cases = []
        for sub in SUITE_NAMES[:-1]:
            cases.extend(_BUILDERS[sub](grid_step_deg))
        return cases
    try:
        return _BUILDERS[name](grid_step_deg)
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}") from None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _expected_value(case: SuiteCase) -> float:
    src = case.expected_source
    if src is ExpectedSource.LITERAL:
        return float(case.expected_literal)
    if src is ExpectedSource.CLOSED_FORM:
        return evaluate_closed(case.spec.kind, case.spec.n, case.spec.phi).value
    if src is ExpectedSource.CATALOG:
        for entry in special_value_catalog():
            if entry.spec == case.spec:
                return math.nan if entry.value is None else entry.value
        raise ValueError(f"no catalog entry for {case.spec}")
    # finite row through the conjugate-pair polynomial path
    n = int(case.spec.n)
    cos_sum, sin_sum = series_at_phase(binom_prefix(case.spec.n, n + 1), case.spec.phi)
    return sin_sum if case.spec.kind is SeriesKind.SINE else cos_sum


def _computed_value(case: SuiteCase) -> float:
    spec = case.spec
    if case.method is SummationMethod.REDUCED:
        return reduced_neg_int(int(-spec.n), spec.phi).value
    if case.method is SummationMethod.CLOSED:
        return quarter_turn_sum(spec.n).value
    return evaluate(spec, case.method, radii=case.radii).value


def _judge(case: SuiteCase, computed: float, expected: float) -> CaseResult:
    abs_error = abs(computed - expected)
    passed = abs_error <= case.tolerance * (1.0 + abs(expected))
    return CaseResult(case, computed, expected, abs_error, passed)


def _abel_grids(cases: list[SuiteCase]) -> dict[tuple, dict[float, list[int]]]:
    """Auto-budget Abel cases as grids: (kind, radii, angles) -> {n: case indices}.

    An exponent's angles are those of its own cases, so a case's grid, and
    its value, do not depend on what other suites run beside it.
    """
    rows: dict[tuple, list[int]] = {}
    for i, case in enumerate(cases):
        if case.method is SummationMethod.ABEL and not case.expect_divergent:
            rows.setdefault((case.spec.kind, case.spec.n, case.radii), []).append(i)
    grids: dict[tuple, dict[float, list[int]]] = {}
    for (kind, n, radii), idxs in rows.items():
        phis = tuple(cases[i].spec.phi for i in idxs)
        grids.setdefault((kind, radii, phis), {})[n] = idxs
    return grids


def run_cases(cases: list[SuiteCase], tolerance_override: float | None = None) -> list[CaseResult]:
    if tolerance_override is not None:
        cases = [replace(c, tolerance=tolerance_override) for c in cases]
    computed: dict[int, float] = {}

    # batched Abel evaluation: share trig tables across exponents and radii
    for (kind, radii, phis), per_n in _abel_grids(cases).items():
        try:
            grid_values = abel_sum_grid(kind, list(per_n), list(phis), radii)
        except DivergentSeriesError:
            continue  # judged case by case below, where the refused ones fail
        for n, idxs in per_n.items():
            values, _residuals, _terms = grid_values[n]
            for j, i in enumerate(idxs):
                computed[i] = float(values[j])

    results: list[CaseResult] = []
    for i, case in enumerate(cases):
        if case.expect_divergent:
            try:
                value = evaluate(case.spec, case.method, radii=case.radii).value
                results.append(CaseResult(case, value, math.nan, math.nan, False))
            except DivergentSeriesError:
                results.append(CaseResult(case, math.nan, math.nan, math.nan, True))
            continue
        if i in computed:
            value = computed[i]
        else:
            try:
                value = _computed_value(case)
            except (DivergentSeriesError, DomainError):
                results.append(CaseResult(case, math.nan, _expected_value(case), math.nan, False))
                continue
        results.append(_judge(case, value, _expected_value(case)))
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
    for i, r in enumerate(report.results):
        case = r.case
        lines.append(",".join([
            str(i),
            case.spec.kind.value,
            _num(case.spec.n),
            _num(case.spec.phi),
            case.method.value,
            _num(r.computed),
            _num(r.expected),
            _num(r.abs_error),
            "true" if r.passed else "false",
        ]))
    lines.append(f"# total={report.total} passed={report.passed} failed={report.failed}")
    return lines


def write_report(report: VerificationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report_lines(report)) + "\n")
