"""The plain-double routes: partial sums, Cesaro means and their scans.

``trig_values`` and the float branch of ``binom_prefix`` are numpy scans
(np.multiply.accumulate, np.cumprod); the references here are the
step-by-step loops they replaced, which they must match bit for bit, and
values pinned before the scans replaced the loops.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trigsum import SeriesKind, SeriesSpec, binom_prefix, cesaro_sum, partial_sum
from trigsum.binom import binom_scan, gen_binom_exact
from trigsum.series import trig_values

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
@given(phi=st.floats(-math.pi, math.pi, exclude_min=True),
       count=st.integers(0, 4000),
       kind=st.sampled_from(list(SeriesKind)))
def test_trig_values_equal_the_rotation_loop(phi, count, kind):
    assert _hex(trig_values(phi, count, kind)) == _hex(_trig_by_loop(phi, count, kind))


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
    ("partial", -1.0, "cos", -100): ("0x1.0000000000082p+0", "0x1.fffffffff6396p-1"),
    ("partial", -1.0, "cos", 35): ("0x1.081c973ef4e92p-2", "0x1.6a09e667f7431p-1"),
    ("partial", -1.0, "cos", 117): ("0x1.412a800000000p-37", "0x1.d0e2e2b473c62p-2"),
    ("partial", -1.0, "sin", -100): ("0x1.4942000000000p-38", "0x1.06c2800000000p-38"),
    ("partial", -1.0, "sin", 35): ("-0x1.3ecf9dea213d8p-1", "0x1.6a09e667e9d91p-1"),
    ("partial", -1.0, "sin", 117): ("0x1.20a5000000000p-38", "0x1.c83201d3c5c0cp-1"),
    ("partial", -1.9, "cos", -100): ("0x1.00e04bb4f0952p+14", "0x1.00dfcbbb852b9p+15"),
    ("partial", -1.9, "cos", 35): ("-0x1.f1753987009c3p+12", "0x1.6b466526be079p+14"),
    ("partial", -1.9, "cos", 117): ("-0x1.00e0a195d16c6p+14", "0x1.d2794a506934bp+13"),
    ("partial", -1.9, "sin", -100): ("-0x1.321f0022926eep+14", "0x1.07a8348a394c0p-23"),
    ("partial", -1.9, "sin", 35): ("-0x1.ddd26c2ef4d0fp+13", "0x1.6b466526b091ep+14"),
    ("partial", -1.9, "sin", 117): ("0x1.a32bc4aef4714p+14", "0x1.c9c0d07137415p+14"),
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
    res = _ROUTES[route](SeriesSpec(kind, n, math.radians(deg)), TERMS)
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
    assert peak < 6e6
