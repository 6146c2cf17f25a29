"""Closed-form moment oracle tests.

The exact Jain moments were pinned against 60-digit direct summation of the
basis series; the historically printed third/fourth-moment coefficient
polynomials disagree with those sums for beta > 0, and the tests below
measure that gap exactly rather than asserting equality.
"""

import math

import numpy as np
import pytest

from jainbaskakov import (
    DomainError,
    EvalConfig,
    OperatorParams,
    ThresholdError,
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
from jainbaskakov.moments import d_central_moment4_display

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


class TestHybridCentralMoments:
    def test_mu1_example(self):
        assert d_central_moment(OperatorParams(10, 1, 0.0), 1, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_mu2_example(self):
        # beta=0 display: x^2(nc + 6c^2)/((n-2c)(n-3c)) + 2nx/((n-2c)(n-3c));
        # at n=10, c=1, x=1 this is 36/56 = 9/14 (equals D(t^2)-2xD(t)+x^2).
        assert d_central_moment(OperatorParams(10, 1, 0.0), 2, 1.0) == pytest.approx(
            9.0 / 14.0, rel=1e-14
        )

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
