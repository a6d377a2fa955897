"""The plain-double routes: partial sums, Cesaro means and their scans.

``trig_values`` and the float branch of ``binom_prefix`` are numpy scans
(np.multiply.accumulate, np.cumprod); the references here are the
step-by-step loops they replaced, which they must match bit for bit, and
values pinned before the scans replaced the loops.  The sums stream their
terms in blocks through an exact accumulator; its reference is math.fsum,
and the streamed sums' reference is one term array summed by math.fsum.
"""

import math
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigsum import (
    ConvergenceClass,
    DivergentSeriesError,
    DomainError,
    SeriesKind,
    SeriesSpec,
    abel_sum,
    binom_prefix,
    cesaro_sum,
    classify,
    partial_sum,
)
from trigsum import series
from trigsum.binom import binom_scan, gen_binom_exact
from trigsum.series import _ExactSum, trig_values

TERMS = 100_000


def _trig_by_loop(phi, count, kind):
    cphi, sphi = math.cos(phi), math.sin(phi)
    x, y = 1.0, 0.0
    out = []
    for _ in range(count):
        out.append(y if kind is SeriesKind.SINE else x)
        x, y = x * cphi - y * sphi, y * cphi + x * sphi
    return out


def _binom_by_loop(n, count):
    c = 1.0
    out = []
    for k in range(count):
        out.append(c)
        c *= (n - k) / (k + 1)
    return out


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(phis=st.lists(st.floats(-math.pi, math.pi, exclude_min=True), min_size=1, max_size=6),
       count=st.integers(0, 4000),
       kind=st.sampled_from(list(SeriesKind)))
def test_trig_values_equal_the_rotation_loop(phis, count, kind):
    # an array of angles gives one column per angle, each the one-angle scan
    table = trig_values(np.array(phis), count, kind)
    assert table.shape == (count, len(phis))
    for j, phi in enumerate(phis):
        expected = _hex(_trig_by_loop(phi, count, kind))
        assert _hex(trig_values(phi, count, kind)) == expected
        assert _hex(table[:, j]) == expected


@settings(max_examples=60, deadline=None)
@given(n=st.floats(-8.0, 8.0, exclude_min=True, exclude_max=True).filter(
           lambda x: not x.is_integer()),
       count=st.integers(0, 4000))
def test_binom_prefix_float_branch_equals_the_recurrence_loop(n, count):
    expected = _hex(_binom_by_loop(n, count))
    assert _hex(binom_prefix(n, count)) == expected
    assert _hex(binom_scan(n, count)) == expected


def test_binom_scan_is_exact_at_minus_one():
    # n = -1 takes the float scan: every factor is exactly -1
    assert binom_scan(-1, TERMS).tolist() == [float(gen_binom_exact(-1, k)) for k in range(TERMS)]
    assert binom_prefix(-1.0, 5) == [1.0, -1.0, 1.0, -1.0, 1.0]


def test_binom_scan_keeps_the_exact_integer_branch():
    assert binom_scan(-3, 5).tolist() == [1.0, -3.0, 6.0, -10.0, 15.0]
    assert binom_scan(4, 7).tolist() == [1.0, 4.0, 6.0, 4.0, 1.0, 0.0, 0.0]
    assert binom_scan(0.5, 0).size == 0
    with pytest.raises(ValueError):
        binom_scan(0.5, -1)


#: A GOLDEN entry for a row the route refuses: partial sums of the
#: summable-only rows n = -1 and -1.9 grow without bound (at n = -1.9,
#: -100 deg they read 16440.07 with residual 32879.9).  The Cesaro entries at
#: those exponents still pin the same binom_scan and trig_values bits.
REFUSED = None

#: (route, n, kind, angle in degrees) -> (value.hex(), residual_estimate.hex())
#: at 10**5 terms, recorded from the per-term loops the scans replaced.
GOLDEN = {
    ("partial", 0.5, "cos", -100): ("0x1.0710d9760cffcp+0", "0x1.328414684b006p-27"),
    ("partial", 0.5, "cos", 35): ("0x1.5d7245999048dp+0", "0x1.b17a9f5f5f87ap-28"),
    ("partial", 0.5, "cos", 117): ("0x1.c8a86b1695ed5p-1", "0x1.164f8683e0125p-28"),
    ("partial", 0.5, "sin", -100): ("-0x1.eaadace10ff0ep-2", "0x1.3a9c0e3c44013p-65"),
    ("partial", 0.5, "sin", 35): ("0x1.ae478fcb6157ep-3", "0x1.b17a9f5f4f781p-28"),
    ("partial", 0.5, "sin", 117): ("0x1.ff7b3cc567460p-2", "0x1.111b922af00e7p-27"),
    ("partial", 1.5, "cos", -100): ("0x1.8250d5a5cbb53p-2", "0x1.2d53308746690p-43"),
    ("partial", 1.5, "cos", 35): ("0x1.2e6c53e86b1bfp+1", "0x1.aa2349bf23913p-44"),
    ("partial", 1.5, "cos", 117): ("0x1.5791080762800p-5", "0x1.1198eb1ef48c2p-44"),
    ("partial", 1.5, "sin", -100): ("-0x1.687000b8f85ecp+0", "0x1.3548135ed6be4p-81"),
    ("partial", 1.5, "sin", 35): ("0x1.2a46f6069e191p+0", "0x1.aa2349bf13c73p-44"),
    ("partial", 1.5, "sin", 117): ("0x1.1142d10cfc481p+0", "0x1.0c7b856b88ce7p-43"),
    ("partial", 2.5, "cos", -100): ("-0x1.132749f557320p+0", "0x1.edb545951a6eep-59"),
    ("partial", 2.5, "cos", 35): ("0x1.d09c7f44eecaap+1", "0x1.5d1ab60eda20dp-59"),
    ("partial", 2.5, "cos", 117): ("-0x1.db3af25237492p-1", "0x1.c0470eade468dp-60"),
    ("partial", 2.5, "sin", -100): ("-0x1.88f5bae3d02dep+0", "0x1.fabe9f700082fp-97"),
    ("partial", 2.5, "sin", 35): ("0x1.bcc4c177fd566p+1", "0x1.5d1ab60ecd318p-59"),
    ("partial", 2.5, "sin", 117): ("0x1.3d89e8c1d869dp-1", "0x1.b7e5aa6faf079p-59"),
    ("partial", -0.5, "cos", -100): ("0x1.99b6e95586b20p-1", "0x1.d3b2fddd84db4p-10"),
    ("partial", -0.5, "cos", 35): ("0x1.6e2efe61d89b5p-1", "0x1.4ab6989b7c0f1p-10"),
    ("partial", -0.5, "cos", 117): ("0x1.b489a3626bcb1p-1", "0x1.a8a97729b007cp-11"),
    ("partial", -0.5, "sin", -100): ("0x1.7c976760c39e0p-2", "0x1.e00c874e9ff04p-48"),
    ("partial", -0.5, "sin", 35): ("-0x1.c68f170cb1047p-4", "0x1.4ab6989b6fce3p-10"),
    ("partial", -0.5, "sin", 117): ("-0x1.e7f7721a1c36fp-2", "0x1.a0b9183f69512p-10"),
    ("partial", -1.0, "cos", -100): REFUSED,
    ("partial", -1.0, "cos", 35): REFUSED,
    ("partial", -1.0, "cos", 117): REFUSED,
    ("partial", -1.0, "sin", -100): REFUSED,
    ("partial", -1.0, "sin", 35): REFUSED,
    ("partial", -1.0, "sin", 117): REFUSED,
    ("partial", -1.9, "cos", -100): REFUSED,
    ("partial", -1.9, "cos", 35): REFUSED,
    ("partial", -1.9, "cos", 117): REFUSED,
    ("partial", -1.9, "sin", -100): REFUSED,
    ("partial", -1.9, "sin", 35): REFUSED,
    ("partial", -1.9, "sin", 117): REFUSED,
    ("cesaro", 0.5, "cos", -100): ("0x1.0710c663297f6p+0", "0x1.d660000000000p-41"),
    ("cesaro", 0.5, "cos", 35): ("0x1.5d720f16baacap+0", "0x1.b680000000000p-42"),
    ("cesaro", 0.5, "cos", 117): ("0x1.c8a8647ec72e8p-1", "0x1.1140000000000p-42"),
    ("cesaro", 0.5, "sin", -100): ("-0x1.eaac8f61a6989p-2", "0x1.4ce8000000000p-40"),
    ("cesaro", 0.5, "sin", 35): ("0x1.ae46b85355199p-3", "0x1.2e14000000000p-41"),
    ("cesaro", 0.5, "sin", 117): ("0x1.ff79f545a14e2p-2", "0x1.2000000000000p-49"),
    ("cesaro", 1.5, "cos", -100): ("0x1.8253644cf9881p-2", "0x1.4000000000000p-50"),
    ("cesaro", 1.5, "cos", 35): ("0x1.2e6bd65fab4cap+1", "0x1.3000000000000p-47"),
    ("cesaro", 1.5, "cos", 117): ("0x1.57abc4e58bfd0p-5", "0x1.f000000000000p-53"),
    ("cesaro", 1.5, "sin", -100): ("-0x1.686f16fcb7a61p+0", "0x1.c000000000000p-50"),
    ("cesaro", 1.5, "sin", 35): ("0x1.2a4605ae20e35p+0", "0x1.b000000000000p-48"),
    ("cesaro", 1.5, "sin", 117): ("0x1.114242203ac06p+0", "0x1.3800000000000p-47"),
    ("cesaro", 2.5, "cos", -100): ("-0x1.1324e8e9774d8p+0", "0x0.0p+0"),
    ("cesaro", 2.5, "cos", 35): ("0x1.d09b758a498b3p+1", "0x0.0p+0"),
    ("cesaro", 2.5, "cos", 117): ("-0x1.db37c485ceb86p-1", "0x0.0p+0"),
    ("cesaro", 2.5, "sin", -100): ("-0x1.88f5859af1162p+0", "0x0.0p+0"),
    ("cesaro", 2.5, "sin", 35): ("0x1.bcc2dd1bc9ce3p+1", "0x0.0p+0"),
    ("cesaro", 2.5, "sin", 117): ("0x1.3d8b5fec66b2bp-1", "0x0.0p+0"),
    ("cesaro", -0.5, "cos", -100): ("0x1.994265051f626p-1", "0x1.bf47507800000p-24"),
    ("cesaro", -0.5, "cos", 35): ("0x1.6e67d962d280ap-1", "0x1.9658b9d000000p-25"),
    ("cesaro", -0.5, "cos", 117): ("0x1.b4ff18bcae986p-1", "0x1.d6b3240000000p-28"),
    ("cesaro", -0.5, "sin", -100): ("0x1.7dadb64c4424ap-2", "0x1.6912c77200000p-23"),
    ("cesaro", -0.5, "sin", 35): ("-0x1.c328d215ef8a1p-4", "0x1.4809d4de00000p-24"),
    ("cesaro", -0.5, "sin", 117): ("-0x1.e97473bea3e2cp-2", "0x1.bf90000000000p-42"),
    ("cesaro", -1.0, "cos", -100): ("0x1.0000a7c5ac514p-1", "0x1.89cf9c5b56000p-15"),
    ("cesaro", -1.0, "cos", 35): ("0x1.00004c35efb6dp-1", "0x1.65c7346bf0000p-16"),
    ("cesaro", -1.0, "cos", 117): ("0x1.ffffffffffeb2p-2", "0x1.d000000000000p-48"),
    ("cesaro", -1.0, "sin", -100): ("0x1.3115fb7fa8051p-1", "0x1.550ce14816000p-14"),
    ("cesaro", -1.0, "sin", 35): ("-0x1.42df1ad6f616ap-3", "0x1.35d84f6299000p-15"),
    ("cesaro", -1.0, "sin", 117): ("-0x1.a1c1083c23f32p-1", "0x1.b800000000000p-47"),
    ("cesaro", -1.9, "cos", -100): ("-0x1.6af7b2e21be27p-4", "0x1.14407af066fc0p+0"),
    ("cesaro", -1.9, "cos", 35): ("0x1.d6034fcb4cfb1p-3", "0x1.f5f7ddee7906ep-2"),
    ("cesaro", -1.9, "cos", 117): ("-0x1.441200b81a318p-1", "0x1.377691b391cc0p-7"),
    ("cesaro", -1.9, "sin", -100): ("0x1.b05038aa2e578p-2", "0x1.0f9674561fbcbp+1"),
    ("cesaro", -1.9, "sin", 35): ("-0x1.ff7e810774809p-3", "0x1.ed7892e753d04p-1"),
    ("cesaro", -1.9, "sin", 117): ("-0x1.b73504640eed5p-1", "0x1.fe6e57a800000p-23"),
}

_ROUTES = {"partial": partial_sum, "cesaro": cesaro_sum}


@pytest.mark.parametrize("route,n,kind,deg", sorted(GOLDEN))
def test_plain_routes_keep_their_pinned_doubles(route, n, kind, deg):
    spec = SeriesSpec(kind, n, math.radians(deg))
    if GOLDEN[(route, n, kind, deg)] is REFUSED:
        with pytest.raises(DivergentSeriesError):
            _ROUTES[route](spec, TERMS)
        return
    res = _ROUTES[route](spec, TERMS)
    assert (res.value.hex(), res.residual_estimate.hex()) == GOLDEN[(route, n, kind, deg)]


def test_criterion_5_partial_sum_keeps_its_value():
    # the n = 1/2 half-turn case that stays red at this budget (README)
    res = partial_sum(SeriesSpec("cos", 0.5, math.pi), TERMS)
    assert res.value.hex() == "0x1.d3b2fddd8d9c7p-10"
    assert res.residual_estimate.hex() == "0x1.3284146850daap-27"


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_plain_route_memory_peak_is_bounded(route):
    spec = SeriesSpec("cos", 0.5, 2.0)
    _ROUTES[route](spec, TERMS)  # warm up
    tracemalloc.start()
    try:
        _ROUTES[route](spec, TERMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the terms stream in 4096-term blocks (about 0.4 MB); one array of
    # 10**5 terms and its list would take 4 MB
    assert peak < 1e6


# ---------------------------------------------------------------- exact summation

#: Lengths at and around the edges of _BLOCK_ELEMS-element blocks (4096).
EDGE_LENGTHS = (0, 1, 2, 3, 4095, 4096, 4097, 4098, 8193)


def _exact_sum(*blocks):
    total = _ExactSum()
    for block in blocks:
        total.add(np.asarray(block, dtype=float))
    return total.value()


@pytest.mark.parametrize("values", [
    [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0],
    [5e-324], [5e-324, -5e-324], [2.0 ** -1022, -5e-324], [2.0 ** -1022, 2.0 ** -1022 - 5e-324],
    [1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -106], [1.0, 2.0 ** -53, -2.0 ** -106],
    [1.0 + 2.0 ** -52, 2.0 ** -53], [-1.0, -(2.0 ** -53)],
    [1e300, -1e300, 1e-300], [1e300, 1.0, -1e300], [1e-300, 3e-310, -1e-300],
    [0.1] * 10, [1.7976931348623157e308, -1.7976931348623157e308, 4.9e-324],
])
def test_exact_sum_has_the_bits_of_fsum_at_zeros_subnormals_and_ties(values):
    expected = math.fsum(values).hex()
    assert _exact_sum(values).hex() == expected
    assert _exact_sum(*([v] for v in values)).hex() == expected


_DOUBLES = st.one_of(
    st.floats(-1e300, 1e300),  # subnormals and both zeros included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.0, 2.0 ** -53, 2.0 ** -106]),
)


@settings(max_examples=150, deadline=None)
@given(pool=st.lists(_DOUBLES, min_size=1, max_size=12),
       length=st.sampled_from(EDGE_LENGTHS),
       seed=st.integers(0, 2 ** 32 - 1),
       cancel=st.booleans(),
       cuts=st.lists(st.integers(0, EDGE_LENGTHS[-1]), max_size=3))
def test_exact_sum_has_the_bits_of_fsum(pool, length, seed, cancel, cuts):
    # values drawn from the pool and from random magnitudes 1e-300..1e300;
    # with ``cancel`` the second half is the first half negated, then shuffled
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 301, length)
    picks = rng.random(length) < 0.5
    x[picks] = np.array(pool)[rng.integers(len(pool), size=int(picks.sum()))]
    if cancel:
        x[length // 2:2 * (length // 2)] = -x[:length // 2]
        rng.shuffle(x)
    edges = [0, *sorted(c for c in cuts if c <= length), length]
    expected = math.fsum(x.tolist()).hex()
    assert _exact_sum(x).hex() == expected
    assert _exact_sum(*(x[a:b] for a, b in zip(edges, edges[1:]))).hex() == expected


def test_exact_sum_names_the_first_non_finite_element():
    total = _ExactSum()
    total.add(np.ones(5000))
    with pytest.raises(DomainError, match=r"k = 5003 is not finite"):
        total.add(np.array([1.0, 2.0, 3.0, math.inf, math.nan]))
    with pytest.raises(DomainError, match=r"k = 4097 is not finite"):
        _ExactSum().add(np.concatenate((np.zeros(4097), [math.nan])))


def test_exact_sum_refuses_a_sum_beyond_the_doubles():
    big = sys.float_info.max
    with pytest.raises(DomainError, match="overflows"):
        _exact_sum([big, big])
    # math.fsum refuses this one too, but its exact sum is a double
    assert _exact_sum([big, big, -big]) == big


# ---------------------------------------------------------------- streamed sums

def _list_terms(spec, count):
    return binom_scan(spec.n, count) * trig_values(spec.phi, count, spec.kind)


def _list_partial(spec, count):
    """(value, residual) as partial_sum took them from one term list and math.fsum."""
    ts = _list_terms(spec, count).tolist()
    return math.fsum(ts), abs(ts[-1])


def _list_cesaro(spec, count):
    """(value, residual) as cesaro_sum took them from one np.cumsum and math.fsum."""
    partials = np.cumsum(_list_terms(spec, count))
    w = -(-count // 4)
    last = math.fsum(partials[-w:].tolist()) / w
    prev = partials[-2 * w:-w]
    return math.fsum(partials.tolist()) / count, abs(last - math.fsum(prev.tolist()) / prev.size)


def _list_abel_point(r, count, coeffs, trig):
    """A float64 Abel sample as one term list summed by math.fsum."""
    rk = np.cumprod(np.concatenate(([1.0], np.full(count - 1, r))))
    return math.fsum(((coeffs[:count] * rk) * trig[:count]).tolist())


#: Counts at block edges (4097 leaves one term past a block) and the default budget.
STREAM_COUNTS = (2, 3, 4096, 4097, 4098, 8193, 12289, TERMS)
_RNG = random.Random(2015)
STREAM_PHIS = (0.0, math.pi / 2, math.pi) + tuple(_RNG.uniform(-math.pi, math.pi) for _ in range(3))


def _hexes(*values):
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("kind", list(SeriesKind))
@pytest.mark.parametrize("n", [-1.9, -1.0, -0.5, 0.5, 1.5, 7.3, 60.5])
def test_streamed_sums_keep_the_list_path_bits(kind, n):
    for phi in STREAM_PHIS:
        spec = SeriesSpec(kind, n, phi)
        conv = classify(spec)
        zero = series._zero_row(spec, conv)
        refused = {partial_sum: conv in (ConvergenceClass.SUMMABLE_ONLY, ConvergenceClass.DIVERGENT),
                   cesaro_sum: conv is ConvergenceClass.DIVERGENT}
        for count in STREAM_COUNTS:
            for route, reference in ((partial_sum, _list_partial), (cesaro_sum, _list_cesaro)):
                if refused[route] and not zero:
                    with pytest.raises(DivergentSeriesError):
                        route(spec, count)
                    continue
                res = route(spec, count)
                expected = (0.0, 0.0) if zero else reference(spec, count)
                assert _hexes(res.value, res.residual_estimate) == _hexes(*expected), (route, phi, count)
                assert res.terms_used == (0 if zero else count)
        outcome = _abel_outcome(spec)
        with mock.patch.object(series, "_abel_point_f64", _list_abel_point):
            assert outcome == _abel_outcome(spec)


def _abel_outcome(spec):
    # n = 60.5 is refused by DIVERGENCE_THRESHOLD after its samples are taken
    try:
        res = abel_sum(spec)
    except DivergentSeriesError as exc:
        return str(exc)
    return _hexes(res.value, res.residual_estimate), res.terms_used


@pytest.mark.parametrize("count", [1, 2, 3, 40, 4095, 4096, 4097, 4098, 8193])
def test_term_blocks_hold_the_term_array_with_no_one_term_block_after_the_first(count):
    first = count % 4096 or 4096
    rows = [("cos", 0.5, 1.0), ("sin", -1.5, -2.5), ("cos", -0.5, -0.0)]
    if count <= 40:
        rows.append(("sin", 40.0, 0.7))  # binom_scan's exact branch, as partial sums truncate it
    for kind, n, phi in rows:
        spec = SeriesSpec(kind, n, phi)
        blocks = list(series._term_blocks(spec, count))
        assert [start for start, _ in blocks] == [0, *range(first, count, 4096)]
        assert [block.size for _, block in blocks] == [first] + [4096] * (len(blocks) - 1)
        assert _hex(np.concatenate([block for _, block in blocks])) == _hex(_list_terms(spec, count))


@pytest.mark.parametrize("route", [partial_sum, cesaro_sum, abel_sum])
def test_non_finite_float64_terms_raise_domain_error(route):
    # n = 1030.5: the coefficients overflow from k = 495 on
    spec = SeriesSpec("cos", 1030.5, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _list_terms(spec, TERMS)
        first = {partial_sum: terms, cesaro_sum: np.cumsum(terms)}.get(route, terms)
        k = int(np.argmin(np.isfinite(first)))
        with pytest.raises(DomainError, match="not finite") as err:
            route(spec) if route is abel_sum else route(spec, TERMS)
    if route is not abel_sum:
        assert f"k = {k} is not finite" in str(err.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the DomainError speaks alone
@pytest.mark.parametrize("kind, n, phi", [("cos", 1024.0, 0.0), ("cos", 1029.0, 1.0), ("sin", 1100.0, 0.0)])
@pytest.mark.parametrize("route", [partial_sum, cesaro_sum, abel_sum])
def test_terminating_rows_beyond_the_doubles_raise_domain_error(route, kind, n, phi):
    # n = 1024 sums to 2**1024 at phi = 0; sum_k |t_k| of n = 1029 at phi = 1
    # overflows; from n = 1030 on the row is refused before it is built
    spec = SeriesSpec(kind, n, phi)
    with pytest.raises(DomainError, match="terminating row"):
        route(spec) if route is abel_sum else route(spec, TERMS)


_PAST_THE_BOUND = [1030.0, 2e6, 1e15, 1e308]


def _whole_row_routes(n):
    spec = SeriesSpec("cos", n, 1.0)
    return [lambda: partial_sum(spec, int(n) + 1), lambda: cesaro_sum(spec, TERMS), lambda: abel_sum(spec),
            lambda: series.abel_sum_grid("cos", [n], [1.0, 2.0])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("route", range(4), ids=["partial", "cesaro", "abel", "abel_grid"])
@pytest.mark.parametrize("n", _PAST_THE_BOUND)
def test_terminating_rows_past_n_1029_are_refused(route, n):
    # C(1030, 515) is about 2**1024.67; n = 1e15 and 1e308 once asked numpy for their whole row
    with pytest.raises(DomainError, match="terminating row"):
        _whole_row_routes(n)[route]()


def test_a_refused_terminating_row_builds_no_array():
    routes = _whole_row_routes(2e6)
    tracemalloc.start()
    try:
        for route in routes:
            with pytest.raises(DomainError, match="terminating row"):
                route()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the row's coefficients alone would take 16 MB


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(SeriesKind)), n=st.integers(0, 1029).map(float),
       phi=st.floats(allow_nan=False, allow_infinity=False))
def test_terminating_rows_in_the_doubles_raise_no_floating_point_error(kind, n, phi):
    # rows up to n = 1029 sum outside np.errstate: their coefficients, terms and
    # rotations cannot overflow, divide by zero or make nan; only math.fsum may overflow
    spec = SeriesSpec(kind, n, phi)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            values = [partial_sum(spec, TERMS), cesaro_sum(spec, TERMS), abel_sum(spec)]
        except DomainError as exc:
            assert "overflows" in str(exc)
            return
    assert len({res.value for res in values}) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_whole_row_sums_refuse_a_grid_with_an_angle_beyond_the_doubles():
    with pytest.raises(DomainError, match="terminating row"):
        series.whole_row_sums(SeriesKind.COSINE, 1024, series.rotations((1.0, 0.0), 1025))
    sums = series.whole_row_sums(SeriesKind.COSINE, 1024, series.rotations((1.0,), 1025))
    assert sums == [partial_sum(SeriesSpec("cos", 1024.0, 1.0), TERMS).value]


def test_partial_sum_beyond_the_doubles_raises_domain_error():
    # every coefficient of n = 1024.5 is finite, but their sum is about 2**1024.5
    with pytest.raises(DomainError, match="overflows"):
        partial_sum(SeriesSpec("cos", 1024.5, 0.0), TERMS)
