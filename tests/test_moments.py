"""Closed-form moment oracle tests.

The exact Jain moments were pinned against 60-digit direct summation of the
basis series; the historically printed third/fourth-moment coefficient
polynomials disagree with those sums for beta > 0, and the tests below
measure that gap exactly rather than asserting equality.
"""

import math
import re

import mpmath
import numpy as np
import pytest

from jainbaskakov import (
    DomainError,
    EvalConfig,
    OperatorParams,
    ThresholdError,
    baskakov_kernel_log,
    d_central_moment,
    d_moment_display,
    d_moment_exact,
    eval_jain,
    eval_jain_baskakov,
    eval_king,
    get_function,
    jain_moment,
    jain_moment_display,
    king_central_moment,
    king_moment,
    king_moment_display,
    king_transform,
)
from jainbaskakov import moments
from jainbaskakov.analysis import weighted_majorant_e1
from jainbaskakov.kernels import kernel_moment_exact
from jainbaskakov.moments import d_central_moment4_display
from jainbaskakov.params import check_integer, check_point

GRID = [
    (5.0, 1.0, 0.0),
    (20.0, 1.0, 0.1),
    (20.0, 1.0, 0.3),
    (100.0, 1.0, 0.6),
    (13.0, 2.0, 0.2),
]
XS = [0.1, 1.0, 5.0]


class TestJainMoments:
    def test_m0_is_one(self):
        for n, c, b in GRID:
            assert jain_moment(OperatorParams(n, c, b), 0, 3.7) == 1.0

    def test_szasz_first_moment(self):
        p = OperatorParams(10, 1, 0.0)
        for x in XS:
            assert jain_moment(p, 1, x) == x

    def test_third_moment_poisson_case(self):
        # beta = 0, n = 10, x = 1: x^3 + 3x^2/n + x/n^2 = 1.31
        p = OperatorParams(10, 1, 0.0)
        assert jain_moment(p, 3, 1.0) == pytest.approx(1.31, abs=1e-14)

    @pytest.mark.parametrize("m", range(5))
    def test_oracle_equivalence_vs_series(self, m):
        # |jain_moment - eval_jain(t^m)| <= 1e-8 relative
        f = get_function(f"e{m}")
        cfg = EvalConfig()
        for n, c, b in GRID:
            p = OperatorParams(n, c, b)
            for x in XS:
                closed = jain_moment(p, m, x)
                got = eval_jain(p, f, x, cfg).value
                assert got == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("m, n, x", [(4, 1e-80, 1e85), (2, 1e-150, 1e155)])
    def test_overflow_is_a_domain_error(self, m, n, x):
        # x**4 raises OverflowError, x * x rounds to inf
        with pytest.raises(DomainError, match=re.escape(f"jain_moment({m}, {x}) overflows")):
            jain_moment(OperatorParams(n, 1, 0.0), m, x)

    def test_large_n_evaluates(self):
        # n^2 and n^3 overflow at these n, the moments do not: P(t^m, x)
        # tends to (a x)^m as n grows
        assert jain_moment(OperatorParams(1e200, 1, 0.0), 3, 1.0) == 1.0
        assert jain_moment(OperatorParams(1e160, 1, 0.0), 4, 1.0) == 1.0
        assert jain_moment(OperatorParams(1e200, 1, 0.5), 4, 1.0) == 16.0
        p = OperatorParams(1e200, 1, 0.0)
        res = eval_jain(p, get_function("e4"), 1e-199)  # nx = 10
        assert res.value == pytest.approx(jain_moment(p, 4, 1e-199), abs=1e-300)

    def test_display_equals_exact_at_beta_zero(self):
        p = OperatorParams(17, 1, 0.0)
        for m in (3, 4):
            assert jain_moment_display(p, m, 2.0) == pytest.approx(
                jain_moment(p, m, 2.0), rel=1e-15
            )

    def test_display_gap_is_the_printed_coefficient_defect(self):
        # display - exact = 6 b^3 (1-b) a^5 x / n^2 for the third moment
        n, b, x = 12.0, 0.4, 1.7
        p = OperatorParams(n, 1, b)
        a = 1.0 / (1.0 - b)
        gap = jain_moment_display(p, 3, x) - jain_moment(p, 3, x)
        assert gap == pytest.approx(6 * b**3 * (1 - b) * a**5 * x / n**2, rel=1e-12)

    def test_display_rejects_low_orders(self):
        with pytest.raises(DomainError):
            jain_moment_display(OperatorParams(10, 1, 0.1), 2, 1.0)


class TestHybridMoments:
    def test_examples(self):
        assert d_moment_exact(OperatorParams(10, 1, 0.0), 1, 2.0) == pytest.approx(2.5, rel=1e-14)
        assert d_moment_exact(OperatorParams(10, 1, 0.0), 2, 1.0) == pytest.approx(15.0 / 7.0, rel=1e-14)
        for n, c, b in GRID:
            assert d_moment_exact(OperatorParams(n, c, b), 0, 0.3) == 1.0

    def test_display_m2_equals_exact(self):
        # the printed t^2 formula is exact (it is the recombination itself)
        for n, c, b in GRID:
            p = OperatorParams(n, c, b)
            q = b * b - 2 * b + 2
            a = 1.0 / (1.0 - b)
            for x in XS:
                disp = (
                    n**2
                    / ((n - 2 * c) * (n - 3 * c))
                    * (x * x * a * a + x * q * a**3 / n)
                )
                assert d_moment_exact(p, 2, x) == pytest.approx(disp, rel=1e-13)

    @pytest.mark.parametrize("m", range(5))
    def test_oracle_equivalence_vs_operator(self, m):
        f = get_function(f"e{m}")
        cfg = EvalConfig()
        for n, c, b in GRID:
            if not n > (m + 1) * c:
                continue
            p = OperatorParams(n, c, b)
            for x in XS:
                closed = d_moment_exact(p, m, x)
                got = eval_jain_baskakov(p, f, x, cfg).value
                assert got == pytest.approx(closed, rel=1e-7)

    def test_threshold_errors(self):
        with pytest.raises(ThresholdError):
            d_moment_exact(OperatorParams(5, 1, 0.0), 4, 1.0)
        with pytest.raises(ThresholdError):
            d_moment_exact(OperatorParams(4, 2, 0.0), 1, 1.0)

    def test_display_t3_vanishes_at_origin(self):
        assert d_moment_display(OperatorParams(20, 1, 0.2), 3, 0.0) == 0.0

    def test_large_n_evaluates(self):
        # n^4 overflows at n = 1e80, the moments do not: D(t^m, x) tends to
        # x^m as n grows, and n^m/((n-2c)...) rounds to 1
        p = OperatorParams(1e80, 1, 0.0)
        assert d_moment_exact(p, 4, 1.0) == 1.0
        assert d_moment_exact(OperatorParams(1e80, 1, 0.5), 3, 2.0) == 64.0
        res = eval_jain_baskakov(p, get_function("e4"), 1e-79)  # nx = 10
        assert res.value == pytest.approx(d_moment_exact(p, 4, 1e-79), abs=1e-300)

    def test_moment_past_the_jain_overflow_evaluates(self):
        # n^3 in the Jain moments it recombines overflows at n = 1e200
        assert d_moment_exact(OperatorParams(1e200, 1, 0.0), 4, 1.0) == 1.0
        assert d_moment_exact(OperatorParams(1e200, 1, 0.5), 4, 1.0) == 16.0

    @pytest.mark.parametrize("n, x", [(10.0, 1e77), (1e80, 1e80)])
    def test_overflow_is_a_domain_error(self, n, x):
        # the first overflows in the recombination (it returned inf), the
        # second in the Jain moment it recombines
        with pytest.raises(DomainError, match=re.escape(f"d_moment_exact(4, {x}) overflows")):
            d_moment_exact(OperatorParams(n, 1, 0.0), 4, x)

    def test_display_t4_gap_shrinks(self):
        # n * |display - exact| decreasing for the fourth moment
        p0 = dict(c=1.0, b=0.25, x=1.0)
        gaps = []
        for k in range(6, 14):
            n = float(2**k)
            p = OperatorParams(n, p0["c"], p0["b"])
            gaps.append(n * abs(d_moment_display(p, 4, p0["x"]) - d_moment_exact(p, 4, p0["x"])))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_display_t3_gap_confirms_sign_defect(self):
        # the printed t^3 main term enters with the wrong sign, so the gap
        # tends to 2 x^3 / (1-b)^3 instead of vanishing
        b, x = 0.25, 1.0
        a = 1.0 / (1.0 - b)
        for k in (10, 13):
            n = float(2**k)
            p = OperatorParams(n, 1.0, b)
            gap = abs(d_moment_display(p, 3, x) - d_moment_exact(p, 3, x))
            assert gap == pytest.approx(2 * x**3 * a**3, rel=30.0 / n)

    def test_moment_matches_the_reference_bit_for_bit(self):
        # the cached plan of (n, c, m) gives the bits of the recombination
        # written out in full, or the same exception, over huge n, n just
        # past its threshold, integer n, tiny n and x from 0 to 1e300
        rng = np.random.default_rng(11)
        cases = 0
        for _ in range(4000):
            m = int(rng.integers(0, 5))
            pick = rng.integers(5)
            if pick == 0:
                n = 2.0 ** rng.uniform(0, 1000)
            elif pick == 1:
                n = float(rng.uniform(1, 1e4))
            elif pick == 2:
                n = int(rng.integers(1, 10**6)) * 10**int(rng.integers(0, 25))
            else:
                n = 10.0 ** rng.uniform(-120, 300)
            c = [1.0, 0.5, n / (m + 1.0 + 1e-12), n / (m + 1.5), n / 7.0][rng.integers(5)]
            beta = [0.0, float(rng.uniform(0, 0.95))][rng.integers(2)]
            x = [0.0, float(rng.uniform(0, 5)), 10.0 ** rng.uniform(-300, 300),
                 5e-324][rng.integers(4)]
            try:
                p = OperatorParams(n, c, beta)
            except DomainError:
                continue
            cases += 1
            want = got = None
            try:
                want = float.hex(_d_moment_reference(p, m, x))
            except Exception as exc:  # noqa: BLE001 - the type is compared
                want = type(exc)
            try:
                got = float.hex(d_moment_exact(p, m, x))
            except Exception as exc:  # noqa: BLE001
                got = type(exc)
            assert got == want, (n, c, beta, m, x)
        assert cases > 3000

    def test_plan_cache_stays_bounded(self):
        plans = moments._hybrid_plan
        for k in range(3 * plans.cache_info().maxsize):
            d_moment_exact(OperatorParams(100.0 + k, 1.0, 0.1), 2, 1.0)
        assert plans.cache_info().currsize == plans.cache_info().maxsize


def _d_moment_reference(params, m, x):
    """d_moment_exact as one body, every constant computed per call: the
    reference for its cached plan."""
    m = check_integer(m, "moment order", 0, 4)
    check_point(x)
    if m == 0:
        return 1.0
    params.require_order(m)
    n, c, b = params.n, params.c, params.beta
    e, ns = moments._scaled(n)
    denom = 1.0
    for i in range(2, m + 2):
        denom *= math.ldexp(n - i * c, -e)
    try:
        terms = [
            coef * math.ldexp(moments._jain_moment(b, k, x, e, ns), -e * (m - k))
            / ns ** (m - k)
            for k, coef in moments.RISING_COEF[m].items()
        ]
        mom = ns**m / denom * math.fsum(terms)
    except OverflowError:
        mom = math.inf
    if mom == math.inf:
        raise DomainError(f"hybrid moment D(t^{m}, x) overflows at x={x} (n={n}, c={c})")
    return mom


class TestHybridCentralMoments:
    def test_mu1_example(self):
        assert d_central_moment(OperatorParams(10, 1, 0.0), 1, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_mu2_example(self):
        # beta=0 display: x^2(nc + 6c^2)/((n-2c)(n-3c)) + 2nx/((n-2c)(n-3c));
        # at n=10, c=1, x=1 this is 36/56 = 9/14 (equals D(t^2)-2xD(t)+x^2).
        assert d_central_moment(OperatorParams(10, 1, 0.0), 2, 1.0) == pytest.approx(
            9.0 / 14.0, rel=1e-14
        )

    def test_mu2_at_huge_n_evaluates(self):
        # n^2 overflows at n = 1e200, mu2 does not: about 3/n at beta = 0,
        # and about (b/(1-b))^2 above
        assert d_central_moment(OperatorParams(1e200, 1, 0.0), 2, 1.0) == pytest.approx(
            3e-200, rel=1e-14)
        assert d_central_moment(OperatorParams(1e200, 1, 0.1), 2, 1.0) == pytest.approx(
            0.01 / 0.81, rel=1e-14)

    def test_displays_match_recombination_exactly(self):
        # mu1, mu2 printed formulas are exact: compare against the binomial
        # over exact raw moments at 1e-10 (acceptance tolerance; they agree
        # to rounding)
        for n, c, b in GRID:
            p = OperatorParams(n, c, b)
            for x in XS:
                mu1 = d_moment_exact(p, 1, x) - x
                assert d_central_moment(p, 1, x) == pytest.approx(mu1, rel=1e-10, abs=1e-13)
                mu2 = math.fsum(
                    [d_moment_exact(p, 2, x), -2 * x * d_moment_exact(p, 1, x), x * x]
                )
                assert d_central_moment(p, 2, x) == pytest.approx(mu2, rel=1e-10, abs=1e-12)

    def test_positivity(self):
        for n, c, b in GRID:
            p = OperatorParams(n, c, b)
            for x in XS:
                assert d_central_moment(p, 1, x) >= 0.0
                assert d_central_moment(p, 2, x) > 0.0
                if n > 5 * c:
                    assert d_central_moment(p, 4, x) > 0.0

    def test_record_requires_n_above_5c(self):
        with pytest.raises(ThresholdError):
            d_central_moment(OperatorParams(9.0, 2.0, 0.0), 4, 1.0)
        p = OperatorParams(11.0, 2.0, 0.0)
        assert d_central_moment(p, 2, 1.0) > 0 and d_central_moment(p, 4, 1.0) > 0

    def test_numeric_vs_binomial(self):
        # direct numeric D((t-x)^k, x) against the expansion, small grid
        from jainbaskakov.functions import shifted_power

        cfg = EvalConfig()
        p = OperatorParams(12, 1, 0.2)
        for x in (0.5, 1.0, 2.0):
            for k in (1, 2, 4):
                closed = d_central_moment(p, k, x)
                got = eval_jain_baskakov(p, shifted_power(k, x), x, cfg).value
                assert got == pytest.approx(closed, rel=1e-6, abs=1e-10)

    def test_mu4_display_reference_only(self):
        # at beta=0 the printed mu4 main term collapses to 0 while the exact
        # value is O(1/n^2): both o(1/n), so only finiteness is asserted
        p = OperatorParams(40, 1, 0.0)
        assert d_central_moment4_display(p, 1.0) == 0.0
        p = OperatorParams(40, 1, 0.3)
        assert math.isfinite(d_central_moment4_display(p, 1.0))

    def test_mu4_display_gap_is_o_one_over_n(self):
        # unlike the t^3 display, the printed mu4 main term is consistent:
        # n * |display - exact| decreases along the doubling sweep
        for b in (0.1, 0.25, 0.5):
            gaps = []
            for k in range(6, 14):
                n = float(2**k)
                p = OperatorParams(n, 1.0, b)
                gaps.append(
                    n * abs(d_central_moment4_display(p, 1.0) - d_central_moment(p, 4, 1.0))
                )
            assert all(u > v for u, v in zip(gaps, gaps[1:])), (b, gaps)


@pytest.mark.parametrize("display, args", [
    (jain_moment_display, (3, 1.0)), (jain_moment_display, (4, 1.0)),
    (d_moment_display, (3, 1.0)), (d_moment_display, (4, 1.0)),
    (king_moment_display, (3, 1.0)), (king_moment_display, (4, 1.0)),
    (d_central_moment4_display, (1.0,)),
])
def test_display_overflow_is_a_domain_error(display, args):
    # the verbatim formulas form powers of n: float ** raises OverflowError
    # at n = 1e200, and an inf over inf gives nan (King t^3)
    with pytest.raises(DomainError, match=rf"{display.__name__}\(.*\) overflows"):
        display(OperatorParams(1e200, 1, 0.1), *args)


# Every public closed form as a call on (params, x): the order j of its
# threshold n > (j+1)c (None: it has none), and the (n, c, beta, x) where it
# overflows the float range (none: it cannot).  At _DIVISOR_N a power of n
# in a display underflows to a zero divisor, which float division raises
# on, as does (n-2c)...(n-5c) at _TINY_GAP.
_TINY_N = (1e-300, 1e-302, 0.0, 1e10)
_HUGE_N = (1e200, 1, 0.1, 1.0)
_DIVISOR_N = (1e-170, 1e-172, 0.1, 1e-150)
_TINY_GAP = (2.0**-255, math.nextafter(2.0**-255 / 5, 0.0), 0.0, 1.0)


_CLOSED_FORMS = [
    ("jain_moment", lambda p, x: jain_moment(p, 4, x), None, [(1e-80, 1, 0.0, 1e85)]),
    ("jain_moment_display", lambda p, x: jain_moment_display(p, 3, x), None,
     [_HUGE_N, _DIVISOR_N]),
    ("d_moment_exact", lambda p, x: d_moment_exact(p, 4, x), 4,
     [(10.0, 1, 0.0, 1e77), _TINY_GAP]),
    ("d_moment_display", lambda p, x: d_moment_display(p, 3, x), 3, [_HUGE_N, _DIVISOR_N]),
    ("d_central_moment", lambda p, x: d_central_moment(p, 2, x), 2, [_TINY_N]),
    ("d_central_moment4_display", d_central_moment4_display, 4, [_HUGE_N, _DIVISOR_N]),
    ("king_moment", lambda p, x: king_moment(p, 2, x), 2, [_TINY_N]),
    ("king_moment_display", lambda p, x: king_moment_display(p, 4, x), 4,
     [_HUGE_N, _DIVISOR_N]),
    ("king_central_moment", lambda p, x: king_central_moment(p, 2, x), 2, [_TINY_N]),
    ("king_transform", king_transform, 1, []),
    # n/c overflows
    ("baskakov_kernel_log", lambda p, x: baskakov_kernel_log(p, 1, x), 0,
     [(1e300, 1e-300, 0.0, 1.0)]),
    ("weighted_majorant_e1", lambda p, x: weighted_majorant_e1(p.n, p.c, p.beta), 1, []),
    ("eval_king", lambda p, x: eval_king(p, get_function("e0"), x), 2, []),
]


@pytest.mark.parametrize("name, call, j, overflows", _CLOSED_FORMS,
                         ids=[case[0] for case in _CLOSED_FORMS])
def test_one_domain_policy(name, call, j, overflows):
    # an overflow is a DomainError naming the function, and n = (j+1)c the
    # one ThresholdError message, which states the condition
    for *params, x in overflows:
        with pytest.raises(DomainError, match=rf"^{name}\(.*\) overflows"):
            call(OperatorParams(*params), x)
    if j is not None:
        with pytest.raises(ThresholdError, match=re.escape(f"n > {j + 1}c, got n={j + 1}.0, c=1.0")):
            call(OperatorParams(j + 1.0, 1.0, 0.1), 1.0)


class TestKingMoments:
    def test_constants_and_identity_are_identities(self):
        for n, c, b in GRID:
            if not n > 3 * c:
                continue
            p = OperatorParams(n, c, b)
            for x in XS:
                assert king_moment(p, 0, x) == 1.0
                assert king_moment(p, 1, x) == pytest.approx(x, rel=1e-12)

    def test_transform(self):
        p = OperatorParams(10, 1, 0.0)
        assert king_transform(p, 1.0) == pytest.approx(0.8, rel=1e-15)
        assert king_transform(p, 0.0) == 0.0
        xs = np.linspace(0, 4, 9)
        rs = [king_transform(p, float(x)) for x in xs]
        assert all(r1 < r2 for r1, r2 in zip(rs, rs[1:]))
        # beta near 1 collapses toward evaluation at 0
        tight = OperatorParams(10, 1, 0.94)
        assert king_transform(tight, 1.0) < 0.05

    def test_m1_composition_consistency(self):
        # composing the exact hybrid recombination with r_n(x) reproduces x
        for n, c, b in GRID:
            if not n > 3 * c:
                continue
            p = OperatorParams(n, c, b)
            for x in XS:
                r = king_transform(p, x)
                assert d_moment_exact(p, 1, r) == pytest.approx(x, rel=1e-13)

    def test_m2_display_equals_composition(self):
        for n, c, b in GRID:
            if not n > 3 * c:
                continue
            p = OperatorParams(n, c, b)
            for x in XS:
                comp = d_moment_exact(p, 2, king_transform(p, x))
                assert king_moment(p, 2, x) == pytest.approx(comp, rel=1e-12)

    def test_t2_example(self):
        # n=13, c=1, b=0, x=1: 11/10 + 2/10 = 1.3
        assert king_moment(OperatorParams(13, 1, 0.0), 2, 1.0) == pytest.approx(1.3, rel=1e-14)

    def test_mu_star_1_identically_zero(self):
        for n, c, b in GRID:
            if not n > 3 * c:
                continue
            p = OperatorParams(n, c, b)
            for x in XS:
                assert king_central_moment(p, 1, x) == 0.0

    def test_mu_star_2_example(self):
        assert king_central_moment(OperatorParams(13, 1, 0.0), 2, 1.0) == pytest.approx(
            0.3, rel=1e-14
        )

    def test_n_mu_star_4_decreases(self):
        for b in (0.0, 0.3):
            vals = []
            for k in range(6, 14):
                n = float(2**k)
                p = OperatorParams(n, 1.0, b)
                vals.append(n * king_central_moment(p, 4, 1.0))
            assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_displays_at_beta_zero_are_asymptotic(self):
        # n * |display - exact| -> 0 for the King t^3/t^4 printed formulas at b=0
        for m in (3, 4):
            gaps = []
            for k in (7, 10, 13):
                n = float(2**k)
                p = OperatorParams(n, 1.0, 0.0)
                gaps.append(n * abs(king_moment_display(p, m, 1.0) - king_moment(p, m, 1.0)))
            assert gaps[0] > gaps[1] > gaps[2]

    def test_t3_display_factor_anomaly_recorded(self):
        # the printed King t^3 has (1-b^2) where its t^4 sibling has (1-b)^2;
        # as printed, display/exact -> (1+b)/(1-b) for fixed b > 0
        b, x = 0.3, 1.0
        p = OperatorParams(2.0**13, 1.0, b)
        ratio = king_moment_display(p, 3, x) / king_moment(p, 3, x)
        assert ratio == pytest.approx((1 + b) / (1 - b), rel=5e-3)

    def test_thresholds(self):
        with pytest.raises(ThresholdError):
            king_moment(OperatorParams(5.0, 2.0, 0.0), 1, 1.0)  # needs n > 3c
        with pytest.raises(ThresholdError):
            king_moment(OperatorParams(7.0, 2.0, 0.0), 3, 1.0)  # needs n > 4c
        with pytest.raises(ThresholdError):
            king_central_moment(OperatorParams(9.0, 2.0, 0.0), 4, 1.0)  # needs n > 5c
        king_central_moment(OperatorParams(11.0, 2.0, 0.0), 4, 1.0)

    def test_numeric_king_matches_closed(self):
        cfg = EvalConfig()
        p = OperatorParams(13, 1, 0.2)
        for m in range(5):
            f = get_function(f"e{m}")
            got = eval_king(p, f, 1.0, cfg).value
            assert got == pytest.approx(king_moment(p, m, 1.0), rel=1e-7)


def _mp_jain(n, b, m, x):
    """P(t^m, x) of the Jain operator at 40 digits."""
    a = 1 / (1 - b)
    return [1, a * x, a * a * x * x + a**3 * x / n,
            a**3 * x**3 + 3 * a**4 * x**2 / n + (1 + 2 * b) * a**5 * x / n**2,
            a**4 * x**4 + 6 * a**5 * x**3 / n + (7 + 8 * b) * a**6 * x**2 / n**2
            + (1 + 8 * b + 6 * b * b) * a**7 * x / n**3][m]


def _mp_hybrid(n, c, b, m, x):
    """D(t^m, x) at 40 digits: n^m / prod (n - ic) times sum_k coef_k P(t^k, x) / n^(m-k)."""
    denom = mpmath.fprod(n - i * c for i in range(2, m + 2))
    return n**m / denom * mpmath.fsum(coef * _mp_jain(n, b, k, x) / n ** (m - k)
                                      for k, coef in moments.RISING_COEF[m].items())


class TestTinyN:
    # n so small that n^m underflows: each closed form scales n up, and
    # either evaluates or raises DomainError, never ZeroDivisionError

    def test_scaling_leaves_the_normal_range_alone(self):
        for n in (2.0**-255, 1e-70, 1.0, 1e70, 2.0**255 * (1 - 2.0**-53)):
            assert moments._scaled(n) == (0, n)
        for n in (2.0**-256, 1e-100, 1e-300, 5e-324, 2.0**255, 1e300):
            e, ns = moments._scaled(n)
            assert 2.0**-255 <= ns < 2.0**255 and math.ldexp(ns, e) == n

    def test_jain_moment_overflow_is_a_domain_error(self):
        # x / n^2 = 1e400
        with pytest.raises(DomainError, match=r"jain_moment\(3, 1.0\) overflows"):
            jain_moment(OperatorParams(1e-200, 1, 0.0), 3, 1.0)

    @pytest.mark.parametrize("n, c, b, m, x", [
        (1e-100, 1e-102, 0.0, 4, 1.0), (1e-100, 1e-102, 0.3, 3, 2.0), (1e-200, 1e-202, 0.0, 1, 1.0),
        (1e-300, 1e-301, 0.1, 2, 1e-5)])
    def test_hybrid_moment_evaluates(self, n, c, b, m, x):
        with mpmath.workdps(40):
            exact = _mp_hybrid(mpmath.mpf(n), mpmath.mpf(c), mpmath.mpf(b), m, mpmath.mpf(x))
            assert abs(d_moment_exact(OperatorParams(n, c, b), m, x) / exact - 1) < 1e-14

    def test_central_moments_evaluate(self):
        n, c, x = 1e-200, 1e-202, 1.0
        with mpmath.workdps(40):
            mn, mc = mpmath.mpf(n), mpmath.mpf(c)
            mu2 = _mp_hybrid(mn, mc, 0, 2, x) - 2 * x * _mp_hybrid(mn, mc, 0, 1, x) + x * x
            got = d_central_moment(OperatorParams(n, c, 0.0), 2, x)
            assert abs(got / mu2 - 1) < 1e-14
            n, c = 1e-100, 1e-102
            mn, mc = mpmath.mpf(n), mpmath.mpf(c)
            r = (mn - 2 * mc) * x / mn
            raw = [1, x, (mn - 2 * mc) * x * x / (mn - 3 * mc) + 2 * x / (mn - 3 * mc)]
            raw += [_mp_hybrid(mn, mc, 0, m, r) for m in (3, 4)]
            mu4 = mpmath.fsum(math.comb(4, j) * (-x) ** (4 - j) * raw[j] for j in range(5))
            got = king_central_moment(OperatorParams(n, c, 0.0), 4, x)
            assert abs(got / mu4 - 1) < 1e-14

    def test_overflow_is_a_domain_error(self):
        # mu2 and the King t^2 moment are about x / n = 1e310
        p = OperatorParams(1e-300, 1e-302, 0.0)
        with pytest.raises(DomainError, match=r"d_central_moment\(2, 10000000000.0\) overflows"):
            d_central_moment(p, 2, 1e10)
        with pytest.raises(DomainError, match=r"king_moment\(2, 10000000000.0\) overflows"):
            king_moment(p, 2, 1e10)

    def test_underflowed_kernel_moment_is_a_domain_error(self):
        # (n - 2c)...(n - 5c) underflows to 0: a DomainError, not 0/0
        p = OperatorParams(1e-100, 1e-102, 0.0)
        with pytest.raises(DomainError, match="underflows"):
            kernel_moment_exact(p, 3, 4)
        with pytest.raises(DomainError, match="underflows"):
            eval_jain_baskakov(p, get_function("e4"), 1e100)


def test_moment_order_must_be_an_integer():
    # an integral order evaluates as that integer; any other is a
    # DomainError, not the 4th moment (jain_moment) nor a bare TypeError
    p = OperatorParams(50, 1, 0.2)
    for moment in (jain_moment, d_moment_exact, king_moment):
        assert moment(p, 4.0, 1.0) == moment(p, 4, 1.0)
        for order in (2.5, 3.5, math.nan, math.inf, -1, 5):
            with pytest.raises(DomainError, match="moment order must be an integer"):
                moment(p, order, 1.0)
    assert kernel_moment_exact(p, 3, 4.0) == kernel_moment_exact(p, 3, 4)
    for order in (2.5, math.nan, -1):
        with pytest.raises(DomainError, match="moment order must be an integer"):
            kernel_moment_exact(p, 3, order)
