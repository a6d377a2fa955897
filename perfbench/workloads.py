"""Workload inputs, one pass over them, and the check of every result.

``abel_grid``    the negative_integer suite: the double-double Abel grid engine.
``finite_rows``  finite_integer, quarter_turn and phase_equivalence: many tiny
                 terminating rows through the phase path and the closed forms.
``abel_point``   lambda and half_integer plus a stream of single-point
                 ``trigsum sum`` queries: the Abel engine one angle at a time.

Every workload ends its pass with a seeded stream of ``trigsum sum`` queries
through ``cli.main``, so every workload reports query latency.  On
``abel_grid`` and ``finite_rows`` the stream is small, cheap and stays on the
workload's own paths; on ``abel_point`` it is most of the work.

All calls go through module attributes (``suites.run_cases``, not a name
imported from it), so the tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import time
from dataclasses import dataclass, field, replace

from trigsum import cli, closed_forms, suites
from trigsum.series import SeriesSpec

WORKLOAD_SUITES = {
    "abel_grid": ("negative_integer",),
    "finite_rows": ("finite_integer", "quarter_turn", "phase_equivalence"),
    "abel_point": ("lambda", "half_integer"),
}

#: Grid step in degrees of each swept suite, as build_suite uses by default.
#: The seed moves such a grid by an offset in [0, step).  quarter_turn,
#: lambda and the catalog hold literal-valued cases and never move.
SWEPT_STEP_DEG = {"finite_integer": 1.0, "negative_integer": 2.0, "phase_equivalence": 1.0}

#: Cases that fail on every commit by design: criterion 5, the n = 1/2
#: half-turn partial sum at its 10**5-term budget (see the package README).
#: They count as failed ops but do not make a run incorrect.
KNOWN_FAILURES = {("half_integer", "cos", 0.5, math.pi, "partial")}

#: Query angles are drawn from (-QUERY_MAX_DEG, QUERY_MAX_DEG).  With the
#: default radii the Abel error grows toward the half-turn (1.6e-4 at
#: n = -6, 150 degrees), an accuracy limit tracked as ROADMAP item 5; the
#: half-turn neighbourhood is swept by abel_grid at the suite's radii.
QUERY_MAX_DEG = 120.0


@dataclass(frozen=True)
class QueryClass:
    method: str
    exponents: tuple[float, ...]
    count: int                      # queries per pass, exponents taken in turn
    tolerances: tuple[float, ...]   # one per exponent


def _fixed(method: str, exponents, count: int, tol: float) -> QueryClass:
    exponents = tuple(float(n) for n in exponents)
    return QueryClass(method, exponents, count, (tol,) * len(exponents))


def _rows(method: str, top: int, count: int) -> QueryClass:
    """Terminating rows n = 0..top at the phase_equivalence suite's tolerance."""
    exponents = tuple(float(n) for n in range(top + 1))
    return QueryClass(method, exponents, count, tuple(1e-12 * 2.0 ** n for n in exponents))


#: Measured single-query latencies on a 2-CPU Xeon: scalar Abel in float64
#: (n > -2) 12-19 ms, partial and Cesaro at 10**5 terms 45-80 ms, scalar
#: Abel in double-double (n <= -2) 180-240 ms.  abel_point's mix puts 65%
#: of its queries in the first mode and 20% in the last, so the median sits
#: inside the float64 mode and the 90th percentile inside the double-double
#: mode, each at least 10% of the queries away from a mode boundary.
QUERY_MIX = {
    "abel_grid": (_rows("abel", 6, 120),),
    "finite_rows": (_rows("partial", 20, 60), _rows("phase", 20, 60)),
    "abel_point": (
        _fixed("abel", (-1.9, -1.5, -1, -0.5, 0.5, 1.5, 2.5), 78, 1e-6),
        _fixed("partial", (0.5, 1.5, 2.5), 12, 1e-6),
        _fixed("cesaro", (-1, -0.5, 0.5, 1.5, 2.5), 6, 1e-4),
        _fixed("abel", (-2, -2.5, -3, -4, -5, -6), 24, 1e-6),
    ),
}


@dataclass(frozen=True)
class Query:
    kind: str
    n: float
    phi: float
    method: str
    tolerance: float

    @property
    def argv(self) -> list[str]:
        return ["sum", "--kind", self.kind, "--n", repr(self.n),
                "--phi", repr(self.phi), "--method", self.method]


@dataclass
class Inputs:
    suites: list[tuple[str, list]]   # (suite name, cases)
    queries: list[Query]


def _shift(cases: list, offset: float) -> list:
    """Move every angle away from zero by ``offset`` radians.

    The shipped grids are symmetric about zero and the Abel grid engine
    shares its tables between +phi and -phi; shifting |phi| keeps that
    symmetry, so every seed gives the same amount of work.
    """
    return [replace(c, spec=SeriesSpec(c.spec.kind, c.spec.n,
                                       c.spec.phi + math.copysign(offset, c.spec.phi)))
            for c in cases]


def build_inputs(workload: str, seed: int) -> Inputs:
    """The workload's cases and queries; the same seed gives the same inputs.

    Seed 0 keeps the shipped grids exactly.
    """
    if workload not in WORKLOAD_SUITES:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOAD_SUITES)}")
    rng = random.Random(seed)
    fraction = rng.random() if seed else 0.0
    closed_forms.special_value_catalog()
    built = []
    for name in WORKLOAD_SUITES[workload]:
        cases = suites.build_suite(name)
        if fraction and name in SWEPT_STEP_DEG:
            cases = _shift(cases, math.radians(fraction * SWEPT_STEP_DEG[name]))
        built.append((name, cases))
    queries = []
    for qc in QUERY_MIX[workload]:
        for i in range(qc.count):
            j = i % len(qc.exponents)
            queries.append(Query(
                kind=rng.choice(("cos", "sin")),
                n=qc.exponents[j],
                phi=math.radians(rng.uniform(-QUERY_MAX_DEG, QUERY_MAX_DEG)),
                method=qc.method,
                tolerance=qc.tolerances[j],
            ))
    rng.shuffle(queries)
    return Inputs(built, queries)


@dataclass
class PassResult:
    ops: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    # SHA-256 of each suite's report body, and of all query output under "queries"
    digests: dict[str, str] = field(default_factory=dict)
    query_spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per query
    worst_tol_frac: float = 0.0

    def passed(self, margin: float) -> None:
        self.ops += 1
        if math.isfinite(margin):
            self.worst_tol_frac = max(self.worst_tol_frac, margin)

    def fail(self, label: str, known_failure: bool) -> None:
        self.ops += 1
        self.failed += 1
        if not known_failure:
            self.unexpected.append(label)


def _case_label(suite: str, case) -> tuple:
    return (suite, case.spec.kind.value, case.spec.n, case.spec.phi, case.method.value)


def _margin(abs_error: float, tolerance: float, expected: float) -> float:
    """abs_error as a share of the error the case is allowed."""
    return abs_error / (tolerance * (1.0 + abs(expected)))


def _check_query(q: Query, code: int, text: str) -> tuple[bool, float]:
    """Whether a query's printed value meets the closed form at its tolerance."""
    values = [line.split()[1] for line in text.splitlines() if line.startswith("value ")]
    if code != 0 or len(values) != 1:
        return False, math.nan
    expected = closed_forms.evaluate_closed(q.kind, q.n, q.phi).value
    abs_error = abs(float(values[0]) - expected)
    return abs_error <= q.tolerance * (1.0 + abs(expected)), _margin(abs_error, q.tolerance, expected)


def run_pass(inputs: Inputs, span=lambda name: contextlib.nullcontext(),
             clock=time.perf_counter) -> PassResult:
    """One pass over the inputs, checking every case and query.

    Each ``cli.main`` call is timed on ``clock``, from its start to its end.
    ``span(name)`` brackets the benchmark's own work for the tracer.
    """
    out = PassResult()
    for name, cases in inputs.suites:
        results = suites.run_cases(cases)
        body = "\n".join(suites.report_lines(suites.VerificationReport(name, results, 0.0))) + "\n"
        with span("harness.check"):
            out.digests[name] = hashlib.sha256(body.encode()).hexdigest()
            for r in results:
                if r.passed:
                    out.passed(_margin(r.abs_error, r.case.tolerance, r.expected))
                else:
                    label = _case_label(name, r.case)
                    out.fail(str(label), label in KNOWN_FAILURES)
    stdout = hashlib.sha256()
    with span("harness.queries"):
        for q in inputs.queries:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                t0 = clock()
                code = cli.main(q.argv)
                out.query_spans.append((t0, clock()))
            text = buf.getvalue()
            stdout.update(text.encode())
            ok, margin = _check_query(q, code, text)
            if ok:
                out.passed(margin)
            else:
                out.fail(" ".join(q.argv), False)
    out.digests["queries"] = stdout.hexdigest()
    return out
