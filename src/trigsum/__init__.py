"""Binomial multiple-angle series and their product closed forms.

The cosine family sum_k gen_binom(n,k) cos(k*phi) equals
2**n cos(phi/2)**n cos(n*phi/2); the sine family carries sin in place of
the trailing cosine.  The package evaluates both sides independently,
including Cesaro and Abel summability for exponents where the series
diverges, and ships a CLI (``trigsum``) that pits them against each other
on angle grids.
"""

from .binom import EXACT_INTEGER_LIMIT, binom_prefix, gen_binom, is_integer_exponent
from .closed_forms import (
    CatalogEntry,
    ClosedFormValue,
    evaluate_closed,
    lambda_series_closed,
    quarter_turn_sum,
    reduced_neg_int,
    special_value_catalog,
)
from .exceptions import (
    ConjugacyError,
    DivergentSeriesError,
    DomainError,
    TrigsumError,
)
from .phase import binomial_phase_power, phase_point, series_at_phase
from .series import (
    DEFAULT_ABEL_RADII,
    DIVERGENCE_THRESHOLD,
    PARTIAL_TERM_BUDGET,
    SUMMATION_METHODS,
    ConvergenceClass,
    SeriesKind,
    SeriesSpec,
    SummationMethod,
    SummationResult,
    abel_sum,
    abel_sum_grid,
    cesaro_sum,
    classify,
    evaluate,
    partial_sum,
)
from .suites import (
    NEGATIVE_SUITE_RADII,
    SUITE_NAMES,
    CaseResult,
    ExpectedSource,
    SuiteCase,
    VerificationReport,
    build_suite,
    report_lines,
    run_suite,
    write_report,
)

__version__ = "0.1.0"
