"""Basis-weight and kernel-integral tests.

Frozen reference values were computed offline with 40-60 digit arithmetic
(direct evaluation of the defining formulas, plus an independent confluent
hypergeometric route for the exponential kernel integral).
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from jainbaskakov import kernels, operators
from jainbaskakov import (
    ConvergenceError,
    DomainError,
    EvalConfig,
    IntegrabilityError,
    OperatorParams,
    ThresholdError,
    basis_mass,
    baskakov_kernel_log,
    eval_jain_baskakov,
    eval_king,
    get_function,
    jain_basis_log,
    kernel_integral,
    kernel_moment_exact,
)
from jainbaskakov.kernels import magnitude_bound
from jainbaskakov.moments import d_moment_exact, king_moment
class TestJainBasis:
    def test_poisson_v0(self):
        p = OperatorParams(1, 1, 0.0)
        assert jain_basis_log(p, 2.0, 0) == pytest.approx(-2.0, abs=1e-14)

    def test_poisson_pmf_reduction_example(self):
        # beta = 0 collapses to the Poisson pmf with mean nx
        p = OperatorParams(1, 1, 0.0)
        expect = math.log(math.exp(-2.0) * 2.0**3 / 6.0)
        assert jain_basis_log(p, 2.0, 3) == pytest.approx(expect, rel=1e-13)

    def test_frozen_high_precision_value(self):
        # beta=0.25, n=10, x=0.5, v=7 (40-digit oracle)
        p = OperatorParams(10, 1, 0.25)
        assert jain_basis_log(p, 0.5, 7) == pytest.approx(
            -2.208468419324683193457143, rel=1e-14
        )

    def test_x_zero_degenerates_to_atom(self):
        p = OperatorParams(10, 1, 0.3)
        assert jain_basis_log(p, 0.0, 0) == 0.0
        assert jain_basis_log(p, 0.0, 5) == -math.inf

    def test_domain_errors(self):
        p = OperatorParams(10, 1, 0.25)
        with pytest.raises(DomainError):
            jain_basis_log(p, -1.0, 0)
        with pytest.raises(DomainError):
            jain_basis_log(p, 1.0, -1)
        with pytest.raises(DomainError):
            OperatorParams(10, 1, 1.0)
        with pytest.raises(DomainError):
            OperatorParams(10, 1, 0.97)  # beta guard
        # guard is configurable
        OperatorParams(10, 1, 0.97, beta_guard=0.99)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, x):
        p = OperatorParams(10, 1, 0.25)
        with pytest.raises(DomainError):
            jain_basis_log(p, x, 3)
        with pytest.raises(DomainError):
            basis_mass(p, x)

    @pytest.mark.parametrize("n, x", [(1e-300, 1e-300), (1e200, 1e200)])
    def test_nx_outside_the_float_range_rejected(self, n, x):
        # n*x underflows to 0 or overflows to inf, where the weight formula
        # would return nan
        with pytest.raises(DomainError, match=r"n\*x must be positive and finite"):
            jain_basis_log(OperatorParams(n, 1, 0), x, 3)

    @pytest.mark.parametrize("n, c", [(math.inf, 1.0), (10.0, math.inf), (math.nan, 1.0),
                                      (10.0, math.nan)])
    def test_non_finite_params_rejected(self, n, c):
        with pytest.raises(DomainError):
            OperatorParams(n, c, 0.2)

    @pytest.mark.parametrize("field", ["domain_cap", "quad_rel_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_eval_config_rejects_non_finite_or_nonpositive(self, field, value):
        with pytest.raises(DomainError, match=field):
            EvalConfig(**{field: value})

    @given(
        beta=st.floats(0.0, 0.6),
        n=st.floats(1.0, 200.0),
        x=st.floats(0.01, 10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_poisson_reduction_property(self, beta, n, x):
        # compare beta=0 weights against scipy's Poisson pmf up to v=200
        p = OperatorParams(n, 1, 0.0)
        v = np.arange(0, 201)
        ours = np.array([jain_basis_log(p, x, int(vv)) for vv in v[:40]])
        ref = poisson.logpmf(v[:40], n * x)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)

    def test_log_space_finite_for_large_v_and_nx(self):
        # no overflow anywhere up to v = 1e4, nx = 1e3
        p = OperatorParams(1000.0, 1, 0.9, beta_guard=0.95)
        for v in (1, 10, 100, 10_000):
            lw = jain_basis_log(p, 1.0, v)
            assert math.isfinite(lw)


class TestIndexChecks:
    @pytest.mark.parametrize("v", [2.5, math.nan, math.inf, 1e300])
    @pytest.mark.parametrize("call", [
        lambda p, v: jain_basis_log(p, 1.0, v),
        lambda p, v: baskakov_kernel_log(p, v, 1.0),
        lambda p, v: kernel_moment_exact(p, v, 1),
        lambda p, v: kernel_integral(p, v, get_function("exp-neg")),
    ], ids=["jain_basis_log", "baskakov_kernel_log", "kernel_moment_exact",
            "kernel_integral"])
    def test_non_integral_v_rejected(self, call, v):
        with pytest.raises(DomainError, match="v must be an integer"):
            call(OperatorParams(40, 1, 0.2), v)

    def test_index_up_to_2_53_accepted(self):
        p = OperatorParams(40, 1, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_integral(p, 2**53, get_function("exp-neg")) == 0.0
            assert -math.inf < jain_basis_log(p, 1.0, 2**53) < 0.0

    def test_integral_float_v_accepted(self):
        p = OperatorParams(40, 1, 0.2)
        assert jain_basis_log(p, 1.0, 3.0) == jain_basis_log(p, 1.0, 3)


class TestBasisMass:
    def test_x_zero(self):
        assert basis_mass(OperatorParams(7, 1, 0.4), 0.0) == 1.0

    def test_poisson_cdf(self):
        # beta = 0 is the Poisson law with mean 5: its mass past v = 40 is
        # below 1e-20
        p = OperatorParams(5, 1, 0.0)
        got = basis_mass(p, 1.0)
        assert got == pytest.approx(poisson.cdf(40, 5.0), abs=1e-13)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_adaptive_reaches_tail_eps(self):
        cfg = EvalConfig(tail_eps=1e-12)
        got = basis_mass(OperatorParams(20, 1, 0.3), 2.0, cfg=cfg)
        assert 1.0 - 1e-10 <= got <= 1.0

    @given(
        beta=st.floats(0.0, 0.6),
        n=st.sampled_from([5.0, 20.0, 100.0]),
        x=st.floats(0.05, 5.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_normalization_property(self, beta, n, x):
        got = basis_mass(OperatorParams(n, 1, beta), x, cfg=EvalConfig(tail_eps=1e-12))
        assert 1.0 - 1e-10 <= got <= 1.0


class TestBaskakovKernel:
    def test_v1_closed_form(self):
        # for v = 1 the Gamma ratio collapses and p(t) = c (1+ct)^(-n/c)
        for n, c in [(4.0, 1.0), (6.0, 2.0), (9.5, 1.5)]:
            p = OperatorParams(n, c, 0.0)
            for t in (0.1, 0.7, 3.0):
                expect = math.log(c) - (n / c) * math.log1p(c * t)
                assert baskakov_kernel_log(p, 1, t) == pytest.approx(expect, rel=1e-13)

    def test_frozen_value(self):
        # n=6, c=2, v=3, t=0.5 evaluates to exactly 3/8 (oracle-confirmed)
        p = OperatorParams(6, 2, 0.0)
        assert baskakov_kernel_log(p, 3, 0.5) == pytest.approx(
            math.log(3.0 / 8.0), rel=1e-14
        )
        # c t past the float range, above it and below its normal range:
        # log(ct) is log c + log t there, against 40-digit mpmath
        for n, c, v, t in [(1e200, 1e199, 1, 1e200), (1e200, 1e199, 3, 1e200),
                           (1e-299, 1e-300, 2, 1e-300)]:
            with mpmath.workdps(40):
                n_, c_, t_ = mpmath.mpf(n), mpmath.mpf(c), mpmath.mpf(t)
                nc = n_ / c_
                expect = (mpmath.log(c_) + mpmath.loggamma(nc + v - 1) - mpmath.loggamma(v)
                          - mpmath.loggamma(nc) + (v - 1) * mpmath.log(c_ * t_)
                          - (nc + v - 1) * mpmath.log1p(c_ * t_))
            got = baskakov_kernel_log(OperatorParams(n, c, 0.0), v, t)
            assert got == pytest.approx(float(expect), rel=1e-14)

    def test_t_zero_limits(self):
        p = OperatorParams(6, 2, 0.0)
        assert baskakov_kernel_log(p, 1, 0.0) == pytest.approx(math.log(2.0))
        assert baskakov_kernel_log(p, 2, 0.0) == -math.inf

    def test_domain_errors(self):
        p = OperatorParams(6, 2, 0.0)
        with pytest.raises(DomainError):
            baskakov_kernel_log(p, 0, 1.0)
        for t in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="t must be"):
                baskakov_kernel_log(p, 1, t)
        with pytest.raises(ThresholdError):
            baskakov_kernel_log(OperatorParams(1.5, 2, 0.0), 1, 1.0)
        # n/c overflows: an error, not a numpy warning and nan
        with pytest.raises(DomainError, match=r"baskakov_kernel_log\(1, 1.0\) overflows"):
            baskakov_kernel_log(OperatorParams(1e300, 1e-300, 0.0), 1, 1.0)


class TestKernelMoments:
    def test_mass_identity(self):
        # j = 0: total kernel mass c/(n-c) for any v
        for n, c, v in [(4, 1, 1), (10, 1, 7), (11, 2, 3), (9, 0.5, 20)]:
            p = OperatorParams(n, c, 0.0)
            assert kernel_moment_exact(p, v, 0) == pytest.approx(
                c / (n - c), rel=1e-14
            )

    def test_product_formula_examples(self):
        assert kernel_moment_exact(OperatorParams(10, 1, 0.0), 4, 1) == pytest.approx(
            1.0 / 18.0, rel=1e-14
        )
        assert kernel_moment_exact(OperatorParams(11, 2, 0.0), 1, 4) == pytest.approx(
            48.0 / 945.0, rel=1e-14
        )

    def test_threshold(self):
        with pytest.raises(ThresholdError):
            kernel_moment_exact(OperatorParams(5, 1, 0.0), 1, 4)

    def test_quadrature_mass(self, cfg):
        e0 = get_function("e0")
        for n, c, v in [(4, 1, 1), (10, 1, 7), (11, 2, 3)]:
            p = OperatorParams(n, c, 0.0)
            got = kernel_integral(p, v, e0, cfg)
            assert got == pytest.approx(c / (n - c), rel=cfg.quad_rel_tol * 20)

    def test_quadrature_examples(self, cfg):
        got = kernel_integral(OperatorParams(4, 1, 0.0), 1, get_function("e1"), cfg)
        assert got == pytest.approx(1.0 / 6.0, rel=1e-10)
        got = kernel_integral(OperatorParams(7, 1, 0.0), 2, get_function("e2"), cfg)
        assert got == pytest.approx(0.05, rel=1e-10)

    @pytest.mark.parametrize("j", range(5))
    def test_monomial_quadrature_equivalence(self, j, cfg):
        # adaptive quadrature against the exact product formula
        f = get_function(f"e{j}")
        for n, c in [(7.0, 1.0), (13.0, 2.0), (30.0, 1.0)]:
            if not n > (j + 1) * c:
                continue
            p = OperatorParams(n, c, 0.0)
            for v in (1, 2, 9, 60):
                exact = kernel_moment_exact(p, v, j)
                got = kernel_integral(p, v, f, cfg)
                assert got == pytest.approx(exact, rel=1e-8)

    def test_integrability_error(self, cfg):
        with pytest.raises(IntegrabilityError):
            kernel_integral(OperatorParams(4, 1, 0.0), 1, get_function("e4"), cfg)

    def test_quadrature_convergence_error(self, monkeypatch):
        # a kink plus an absurdly tight tolerance, with QUADPACK held to 4
        # subintervals: the 3 its break points (mode and mean) make, and one
        # bisection
        monkeypatch.setattr(kernels, "_QUAD_LIMIT", 4)
        tight = EvalConfig(quad_rel_tol=1e-14)
        with pytest.raises(ConvergenceError, match="4 of 4 subintervals used"):
            kernel_integral(OperatorParams(50, 1, 0.0), 30, get_function("abs-shift"), tight)


_MP_FUNCTIONS = {
    "e1": lambda t: t, "e2": lambda t: t**2, "e3": lambda t: t**3, "e4": lambda t: t**4,
    "exp-neg": lambda t: mpmath.exp(-t), "t-exp-neg": lambda t: t * mpmath.exp(-t),
    "recip-sq": lambda t: 1 / (1 + t * t), "sin": mpmath.sin,
    "abs-shift": lambda t: abs(t - 1),
}


def _mp_expectation(n, c, v, name, d):
    """E_v[f] by ``mpmath.quad`` at 30 digits, in u = log(s/(1-s)).

    The integral runs, past the peak of the density times t^d, to where the
    log density plus max(0, d u) has fallen 92 below that peak
    (e^-92 ~ 1e-40), with break points at the mode, at 1.5-fold growing
    steps of the standard deviation from it, at the kink of abs-shift and at
    the zeros of sin.
    """
    with mpmath.workdps(30):
        n, c, v = mpmath.mpf(n), mpmath.mpf(c), mpmath.mpf(v)
        b = n / c - 1
        lb = mpmath.log(mpmath.beta(v, b))
        fn = _MP_FUNCTIONS[name]

        def logdens(u):
            return -v * mpmath.log1p(mpmath.exp(-u)) - b * mpmath.log1p(mpmath.exp(u)) - lb

        mode, sd = mpmath.log(v / b), mpmath.sqrt(1 / v + 1 / b)
        top = mpmath.log((v + d) / (b - d))
        peak = max(logdens(mode), logdens(top) + d * top)
        pts = [mode]
        for sign in (-1, 1):
            u, step = mode, sd
            while sign * (top - u) > 0 or logdens(u) + max(0, d * u) >= peak - 92:
                u = mode + sign * step
                pts.append(u)
                step *= 1.5
        lo, hi = min(pts), max(pts)
        if name == "abs-shift" and lo < mpmath.log(c) < hi:
            pts.append(mpmath.log(c))
        if name == "sin":
            k = math.ceil(mpmath.exp(lo) * c / mpmath.pi)
            while mpmath.log(c * k * mpmath.pi) < hi:
                pts.append(mpmath.log(c * k * mpmath.pi))
                k += 1
        pts.sort()
        return mpmath.quad(lambda u: mpmath.exp(logdens(u)) * fn(mpmath.exp(u) / c), pts)


# (function, n, c, v): e1-e4 at 0.3c, 1c and 4c past their thresholds
# n > (d+1)c, the bounded functions from heavy (n = 1.5c) to light tails
_HONEST_CASES = [
    ("e1", 2.3, 1.0, 2), ("e1", 4.6, 2.0, 40), ("e1", 3.0, 1.0, 1500), ("e1", 6.0, 1.0, 250),
    ("e2", 3.3, 1.0, 3), ("e2", 6.6, 2.0, 250), ("e2", 4.0, 1.0, 1500), ("e2", 7.0, 1.0, 1500),
    ("e3", 4.3, 1.0, 1), ("e3", 8.6, 2.0, 40), ("e3", 5.0, 1.0, 1500), ("e3", 8.0, 1.0, 250),
    ("e4", 5.3, 1.0, 7), ("e4", 10.6, 2.0, 250), ("e4", 6.0, 1.0, 1500), ("e4", 9.0, 1.0, 40),
    ("exp-neg", 1.5, 1.0, 250), ("exp-neg", 20.0, 1.0, 40), ("exp-neg", 300.0, 1.0, 2),
    ("exp-neg", 300.0, 2.0, 1500),
    ("t-exp-neg", 3.0, 1.0, 7), ("t-exp-neg", 40.0, 2.0, 40), ("t-exp-neg", 300.0, 1.0, 250),
    ("recip-sq", 1.5, 1.0, 1), ("recip-sq", 6.0, 2.0, 1500), ("recip-sq", 20.0, 1.0, 40),
    ("recip-sq", 300.0, 1.0, 1500),
    ("sin", 300.0, 1.0, 1), ("sin", 300.0, 1.0, 40), ("sin", 300.0, 2.0, 1500),
    # the sizes the Voronovskaja sweeps reach, also at the tolerance they
    # tighten to there (analysis._tightened)
    ("e2", 1025.0, 1.0, 1000), ("exp-neg", 4097.0, 1.0, 4000), ("e1", 8193.0, 1.0, 8192),
]
_SWEEP_TOLERANCE = 1e-13


class TestGaussLegendreRule:
    """The table's rule against a 30-digit reference: the reported error
    estimate bounds the actual error, whichever path computed the value."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        seen = []
        real = kernels._kernel_expectation

        def spy(params, v, fn, cfg_, scale):
            seen.append(v)
            return real(params, v, fn, cfg_, scale)

        monkeypatch.setattr(kernels, "_kernel_expectation", spy)
        return seen

    def test_error_estimate_bounds_actual_error(self, cfg, fallbacks):
        paths = set()
        for name, n, c, v in _HONEST_CASES:
            f = get_function(name)
            ref = _mp_expectation(n, c, v, name, f.growth_degree)
            tolerances = (cfg.quad_rel_tol, _SWEEP_TOLERANCE) if n > 1000 else (cfg.quad_rel_tol,)
            for cfg_ in (EvalConfig(quad_rel_tol=tol) for tol in tolerances):
                tab = operators._IntegralTable(OperatorParams(n, c, 0.0), f, cfg_)
                fallbacks.clear()
                value, err = (float(a[0]) for a in tab.get(slice(v, v + 1)))
                assert abs(value - ref) <= err, (name, n, c, v, cfg_.quad_rel_tol, value, err)
                paths.add(bool(fallbacks))
        assert paths == {True, False}  # both the rule and QUADPACK were checked

    @pytest.mark.parametrize("v", [20, 49, 100])
    def test_kink_refused(self, cfg, fallbacks, v):
        # abs-shift has its kink at t = 1, in the bulk of these laws
        p, f = OperatorParams(50, 1, 0.0), get_function("abs-shift")
        value, err = kernels._gauss_legendre(p, f, np.array([float(v)]), cfg)
        tol = cfg.quad_rel_tol * max(abs(value[0]), 1e-2 * float(magnitude_bound(p, f, v)))
        assert err[0] > tol
        value, err = kernels.kernel_expectations(p, f, np.array([v]), cfg, magnitude_bound(p, f, [v]))
        assert fallbacks == [v]
        assert abs(value[0] - _mp_expectation(50, 1, v, "abs-shift", 1)) <= err[0]

    def test_unresolved_oscillation_refused(self, cfg, fallbacks):
        # sin over Beta(211, 7), t = s/(2(1-s)): the right tail reaches t ~ 1e6
        p, f = OperatorParams(16, 2, 0.9), get_function("sin")
        _, err = kernels._gauss_legendre(p, f, np.array([211.0]), cfg)
        assert err[0] > cfg.quad_rel_tol
        with pytest.raises(ConvergenceError):
            kernels.kernel_expectations(p, f, np.array([211]), cfg, np.ones(1))
        assert fallbacks == [211]

    @pytest.mark.xfail(raises=ConvergenceError, strict=True,
                       reason="QUADPACK fails on the singular integrand near the threshold")
    def test_near_threshold_large_v(self, cfg):
        f = get_function("e1")
        kernel_integral(OperatorParams(2.3, 1, 0.0), 250, f, cfg)

    def test_node_budget_leaves_the_rule_first(self, fallbacks):
        # QUADPACK's budget is its own: every v is tried by a rule first (v =
        # 1..4 by the pair in s), and only those whose estimate misses the
        # tolerance reach QUADPACK
        p, f = OperatorParams(20, 1, 0.0), get_function("exp-neg")
        v = np.arange(1, 12)
        kernels.kernel_expectations(p, f, v, EvalConfig(), magnitude_bound(p, f, v))
        assert fallbacks == [5]

    def test_log_density_matches_high_precision(self):
        # the log density at the mode and the step away from it, each to a
        # few ulps of its own size, where betaln loses eps * v log v
        for v, b in [(1, 299), (3, 0.3), (15.9, 16.1), (250, 7), (5000, 299), (1e6, 2047)]:
            with mpmath.workdps(40):
                v_, b_ = mpmath.mpf(v), mpmath.mpf(b)
                s0 = v_ / (v_ + b_)

                def phi(u):
                    return (-v_ * mpmath.log1p(mpmath.exp(-u)) - b_ * mpmath.log1p(mpmath.exp(u))
                            - mpmath.log(mpmath.beta(v_, b_)))

                u0 = mpmath.log(v_ / b_)
                peak = phi(u0)
                assert v_ * mpmath.log(s0) + b_ * mpmath.log(1 - s0) - mpmath.log(
                    mpmath.beta(v_, b_)) == pytest.approx(peak, abs=1e-25)
                got = kernels._log_peak(np.float64(v), np.float64(b))
                assert abs(got - float(peak)) <= 16 * np.finfo(float).eps * (1 + abs(float(peak)))
                sd = math.sqrt(1 / v + 1 / b)
                for delta in (-20 * sd, -sd, -1e-3 * sd, 0.0, 1e-3 * sd, sd, 20 * sd):
                    want = float(phi(u0 + delta) - peak)
                    step, size = kernels._log_step(np.float64(delta), np.float64(v), b)
                    assert abs(step - want) <= 4 * np.finfo(float).eps * size

    @pytest.mark.parametrize("name", ["e1", "e4", "exp-neg", "sin", "abs-shift", "recip-sq"])
    @pytest.mark.parametrize("n", [5.5, 16.0, 300.0, 3000.0])
    def test_rule_rows_do_not_depend_on_their_chunk(self, cfg, name, n):
        # a table fills whole aligned chunks and keeps a row computed along
        # with others: each v gets the same bits alone, in its full chunk and
        # in any part of it
        p, f = OperatorParams(n, 1, 0.0), get_function(name)
        rng = np.random.default_rng(int(n) + len(name))
        for base in (0, 288, 4992, 40000, 10**6):
            chunk = np.arange(max(base, 1), base + kernels._GL_CHUNK, dtype=np.float64)
            full = kernels._gauss_legendre(p, f, chunk, cfg)
            part = np.sort(rng.choice(len(chunk), size=rng.integers(2, len(chunk)),
                                      replace=False))
            parted = kernels._gauss_legendre(p, f, chunk[part], cfg)
            for got, want in zip(parted, full):
                assert got.tobytes() == want[part].tobytes(), (name, n, base)
            for i, v in enumerate(chunk):
                alone = kernels._gauss_legendre(p, f, np.array([v]), cfg)
                for got, want in zip(alone, full):
                    assert got.tobytes() == want[i : i + 1].tobytes(), (name, n, v)

    def test_series_helpers_match_high_precision(self):
        # log1p(y) - y and expm1(-a) + a switch from a series to the closed
        # form at 1/4; both sides of the switch, the origin and a subnormal
        # square, to a few ulps of the value, on arrays and on 0-d input
        eps, quarter = np.finfo(float).eps, 0.25
        edge = [np.nextafter(quarter, 0.0), quarter, np.nextafter(quarter, 1.0)]
        cases = (
            (kernels._log1pmx, lambda y: mpmath.log1p(y) - y,
             [0.0, 1e-300, -1e-300, 0.1, 0.7] + edge + [-y for y in edge]),
            (kernels._expm1px, lambda a: mpmath.expm1(-a) + a, [0.0, 1e-300, 0.1, 0.7] + edge),
        )
        with mpmath.workdps(40):
            for helper, exact, points in cases:
                got = helper(np.array(points)).tolist()
                got0 = [float(helper(np.float64(p))) for p in points]
                assert all(np.ndim(helper(np.array(p))) == 0 for p in points)
                for p, g, g0 in zip(points, got, got0):
                    want = exact(mpmath.mpf(p))
                    assert g == g0, (helper.__name__, p)
                    assert abs(g - float(want)) <= 8 * eps * abs(want) + 2.0**-1074, (
                        helper.__name__, p)
                assert helper(np.array([])).shape == (0,)

    def test_stirling_rest_at_huge_arguments(self):
        # x * x overflowed past about 1e154, a RuntimeWarning (an error in
        # this suite) from every hybrid evaluation at such n/c
        x = np.array([1e150, 1e160, 1e300, 1.7e308])
        np.testing.assert_allclose(kernels._stirling_rest(x), (1.0 / 12.0) / x, rtol=1e-15)
        p = OperatorParams(1e200, 1, 0)
        for evaluate, name in ((eval_jain_baskakov, "e4"), (eval_king, "e2")):
            assert evaluate(p, get_function(name), 1e-199).value == 0.0

    def test_fallback_skips_f_where_the_density_underflows(self):
        # at c = 1e-153 the QUADPACK integrand reaches t = s/(c(1-s)) where
        # e2 overflows while the density is 0: f is not evaluated there, so
        # no RuntimeWarning (an error in this suite) and no ConvergenceError
        p, e2, x = OperatorParams(1e-150, 1e-153, 0), get_function("e2"), 1e-160
        for evaluate, exact in ((eval_jain_baskakov, d_moment_exact), (eval_king, king_moment)):
            res = evaluate(p, e2, x)
            bound = res.est_tail_bound + res.quad_error_est + res.rounding_est
            assert abs(res.value - exact(p, 2, x)) <= bound < 1e-15


# n/c from just past the thresholds to 1e200, c taking turns over 1, 1.3, 2.
# The monomials are checked at every n/c, against their product form; the
# functions with no closed form take turns, one per n/c (each 40-digit
# quadrature takes about 0.1 s).
_S_RULE_NC = (3.01, 4.2, 5.5, 16.0, 300.0, 3e4, 1e6, 1e10, 1e200)
_S_RULE_C = (1.0, 1.3, 2.0)
_NO_CLOSED_FORM = ("exp-neg", "t-exp-neg", "recip-sq", "sin", "abs-shift")


def _mp_expectation_s(n, c, v, name):
    """E_v[f] at 40 digits, in s: the Beta(v, B) density through
    log1p(-s), with log Beta(v, B) = log (v-1)! - sum_{i<v} log(B+i) (a ratio
    of gamma functions would cancel 200 digits at B = 1e200), and break points
    at the mean v/(v+B) times 1, 4, 16 and 64: at B = 1e200 the mass lies
    within 1e-198 of s = 0, where a plain quad on [0, 1] finds none of it.
    The integral ends at 256 means or at 1.  Monomials by their product
    form."""
    with mpmath.workdps(40):
        n, c = mpmath.mpf(n), mpmath.mpf(c)
        b = n / c - 1
        if name[1:].isdigit():
            return mpmath.fprod((v + i) / (n - (i + 2) * c) for i in range(int(name[1:])))
        lb = mpmath.log(mpmath.factorial(v - 1)) - mpmath.fsum(mpmath.log(b + i) for i in range(v))
        # past 256 means the mass left is below e^-200 of the whole
        mean = v / (v + b)
        pts = {mpmath.mpf(0), min(mean * 256, mpmath.mpf(1))}
        pts |= {mean * 4**k for k in range(4) if mean * 4**k < 1}
        if name == "abs-shift" and c / (1 + c) < max(pts):
            pts.add(c / (1 + c))
        fn = _MP_FUNCTIONS[name]
        return mpmath.quad(lambda s: mpmath.exp((v - 1) * mpmath.log(s) + (b - 1) * mpmath.log1p(-s)
                                                - lb) * fn(s / (c * (1 - s))), sorted(pts))


class TestSmallVRule:
    """v = 1..4 by the Gauss-Legendre pair in s (kernels._gauss_legendre_s)
    against 40 digits: each value the rule accepts lies within its reported
    error, and each v it refuses reaches QUADPACK."""

    def test_accepted_values_within_their_error(self, cfg, monkeypatch):
        fallbacks = []
        real = kernels._kernel_expectation

        def spy(params, v, *args):
            fallbacks.append(v)
            return real(params, v, *args)

        monkeypatch.setattr(kernels, "_kernel_expectation", spy)
        v = np.arange(1, kernels._S_RULE_V + 1)
        accepted = refused = 0
        for i, nc in enumerate(_S_RULE_NC):
            c = _S_RULE_C[i % 3]
            p = OperatorParams(nc * c, c, 0.0)
            for name in ("e0", "e1", "e2", "e3", "e4", _NO_CLOSED_FORM[i % 5]):
                f = get_function(name)
                if not nc > f.growth_degree + 1:
                    continue
                mag = magnitude_bound(p, f, v)
                value, err = kernels._gauss_legendre_s(p, f, v.astype(float), cfg)
                ok = err <= cfg.quad_rel_tol * np.maximum(np.abs(value), kernels._MAG_FLOOR * mag)
                # past a moderate n/c every v is the rule's, kink and all
                assert ok.all() or nc < 300, (nc, name)
                for k in range(len(v)):
                    fallbacks.clear()
                    try:
                        got = kernels.kernel_expectations(p, f, v[k : k + 1], cfg, mag[k : k + 1])
                    except ConvergenceError:
                        got = None
                    if not ok[k]:
                        assert fallbacks == [v[k]], (nc, name, v[k])
                        refused += 1
                        continue
                    # alone, the row has the bits it has among the others
                    assert fallbacks == [], (nc, name, v[k])
                    assert (got[0][0], got[1][0]) == (value[k], err[k]), (nc, name, v[k])
                    ref = _mp_expectation_s(p.n, c, int(v[k]), name)
                    assert abs(value[k] - ref) <= err[k], (nc, c, name, v[k], value[k], err[k])
                    accepted += 1
        assert accepted > 0 and refused > 0


class TestWeightBlocks:
    def test_block_fill_matches_scalar_api(self):
        from jainbaskakov._core import jain_log_weights

        p = OperatorParams(12, 1, 0.35)
        block = jain_log_weights(12 * 0.7, 0.35, 0, 64)
        singles = [jain_basis_log(p, 0.7, v) for v in range(64)]
        np.testing.assert_allclose(block, singles, rtol=1e-15)

    def test_blocking_is_seamless(self):
        from jainbaskakov._core import jain_weights

        whole = jain_weights(37.5, 0.2, 0, 512)
        pieces = np.concatenate(
            [jain_weights(37.5, 0.2, v0, 128) for v0 in range(0, 512, 128)]
        )
        np.testing.assert_array_equal(whole, pieces)

    def test_log_factorial_table_matches_gammaln(self):
        # blocks below, across, up to and above the table's cap: below it the
        # weights take gammaln's bits from the table, from v0 = 0 (no shifted
        # view), v0 = 1 (the first one) and on, at beta = 0 too, and so do
        # their exps; above it log v! is the Stirling branch on numpy's log,
        # within an ulp of gammaln
        from scipy.special import gammaln

        from jainbaskakov._core import (
            _LOG_FACT_CAP, _lgam_stirling, jain_log_weights, jain_weights)

        count = 256
        for nx, beta in ((5000.0, 0.95), (37.5, 0.0), (0.3, 0.5)):
            for v0 in (0, 1, 2, _LOG_FACT_CAP - 100, _LOG_FACT_CAP - count,
                       _LOG_FACT_CAP + 7):
                v = np.arange(v0, v0 + count, dtype=np.float64)
                m = nx + v * beta
                log_fact = gammaln(v + 1.0)
                above = v >= _LOG_FACT_CAP
                log_fact[above] = _lgam_stirling(v[above] + 1.0, np.log(v[above] + 1.0))
                assert np.all(np.abs(log_fact - gammaln(v + 1.0))
                              <= np.spacing(gammaln(v + 1.0)))
                direct = np.log(nx) + (v - 1.0) * np.log(m) - m - log_fact
                # at v = 0, log nx - log nx and log 0! are exactly 0
                assert v0 > 0 or direct[0] == -nx
                np.testing.assert_array_equal(jain_log_weights(nx, beta, v0, count), direct)
                np.testing.assert_array_equal(jain_weights(nx, beta, v0, count), np.exp(direct))

    def test_log_gamma_port_matches_gammaln(self):
        # Cephes' lgam, as gammaln runs it, bit for bit: the whole log v!
        # table, seeded reals in (0, 1e12], both sides of each branch
        # switch (13, 1000, 1e8, the overflow threshold) and the limits
        from scipy.special import gammaln

        from jainbaskakov import _core

        np.testing.assert_array_equal(_core._LOG_FACT, gammaln(_core._V + 1.0))
        rng = np.random.default_rng(25)
        switches = [np.nextafter(s, d) for s in (13.0, 1000.0, 1e8, 2.556348e305)
                    for d in (0.0, s, np.inf)]
        x = np.concatenate((rng.uniform(0.0, 13.0, 10000), 10.0 ** rng.uniform(-300, 12, 10000),
                            np.arange(1.0, 200.0), switches, [5e-324, 2.0, 3.0, 1e306]))
        x = x[x > 0.0]
        np.testing.assert_array_equal([_core.lgam(float(y)) for y in x], gammaln(x))
        np.testing.assert_array_equal(_core.log_gamma(x[x <= 1e305]), gammaln(x[x <= 1e305]))
        for y in (math.inf, math.nan):
            assert _core.lgam(y) is y

    def test_expit_matches_scipy(self):
        # 1/(1 + exp(-x)) with libm's exp is scipy's expit, bit for bit,
        # also where exp(-x) overflows (0) and at the limits
        from scipy.special import expit

        rng = np.random.default_rng(25)
        x = np.concatenate((rng.normal(0.0, 40.0, 20000), [-709.78, -709.79, -800.0, 800.0,
                                                          0.0, -np.inf, np.inf, np.nan]))
        np.testing.assert_array_equal(kernels._expit(x), expit(x))
