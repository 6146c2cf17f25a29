"""Basis-weight and kernel-integral tests.

Frozen reference values were computed offline with 40-60 digit arithmetic
(direct evaluation of the defining formulas, plus an independent confluent
hypergeometric route for the exponential kernel integral).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from jainbaskakov import (
    ConvergenceError,
    DomainError,
    EvalConfig,
    IntegrabilityError,
    OperatorParams,
    ThresholdError,
    basis_mass,
    baskakov_kernel_log,
    get_function,
    jain_basis_log,
    jain_basis_weight,
    kernel_integral,
    kernel_moment_exact,
)
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

    def test_basis_weight_record(self):
        p = OperatorParams(10, 1, 0.25)
        bw = jain_basis_weight(p, 0.5, 7)
        assert bw.v == 7
        assert bw.weight == pytest.approx(math.exp(bw.log_weight), rel=1e-15)
        assert 0.0 <= bw.weight <= 1.0

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


class TestBasisMass:
    def test_x_zero(self):
        assert basis_mass(OperatorParams(7, 1, 0.4), 0.0, v_max=0) == 1.0

    def test_poisson_cdf(self):
        p = OperatorParams(5, 1, 0.0)
        got = basis_mass(p, 1.0, v_max=40)
        assert got == pytest.approx(poisson.cdf(40, 5.0), abs=1e-13)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_v_max(self):
        p = OperatorParams(20, 1, 0.3)
        masses = [basis_mass(p, 2.0, v_max=v) for v in (10, 40, 80, 200)]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))

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

    def test_t_zero_limits(self):
        p = OperatorParams(6, 2, 0.0)
        assert baskakov_kernel_log(p, 1, 0.0) == pytest.approx(math.log(2.0))
        assert baskakov_kernel_log(p, 2, 0.0) == -math.inf

    def test_domain_errors(self):
        p = OperatorParams(6, 2, 0.0)
        with pytest.raises(DomainError):
            baskakov_kernel_log(p, 0, 1.0)
        with pytest.raises(DomainError):
            baskakov_kernel_log(p, 1, -0.5)
        with pytest.raises(ThresholdError):
            baskakov_kernel_log(OperatorParams(1.5, 2, 0.0), 1, 1.0)


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

    def test_quadrature_convergence_error(self):
        # a kink plus an absurdly tight tolerance and a one-panel budget
        tight = EvalConfig(quad_rel_tol=1e-14, quad_max_nodes=42)
        with pytest.raises(ConvergenceError):
            kernel_integral(OperatorParams(50, 1, 0.0), 30, get_function("abs-shift"), tight)


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
        # blocks below, across and above the table's cap give the direct values
        from scipy.special import gammaln

        from jainbaskakov._core import _LOG_FACT_CAP, jain_log_weights

        nx, beta = 5000.0, 0.95
        for v0 in (0, _LOG_FACT_CAP - 100, _LOG_FACT_CAP + 7):
            v = np.arange(v0, v0 + 256, dtype=np.float64)
            m = nx + v * beta
            direct = np.log(nx) + (v - 1.0) * np.log(m) - m - gammaln(v + 1.0)
            if v0 == 0:
                direct[0] = -nx
            np.testing.assert_array_equal(jain_log_weights(nx, beta, v0, 256), direct)


class TestBlockSchedule:
    def test_schedule_doubles_then_holds(self):
        from jainbaskakov.operators import block_schedule

        blocks = list(block_schedule(40_000))
        assert [c for _, c in blocks[:6]] == [256, 512, 1024, 2048, 4096, 8192]
        assert all(c == 8192 for _, c in blocks[5:])
        assert all(a + c == b for (a, c), (b, _) in zip(blocks, blocks[1:]))
        assert blocks[0][0] == 0 and blocks[-1][0] < 40_000 <= sum(blocks[-1])
