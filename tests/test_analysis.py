"""Analysis harness tests: moduli, bound checks, weighted norms, asymptotics."""

import math
import warnings

import numpy as np
import pytest

from jainbaskakov import analysis
from jainbaskakov import (
    DomainError,
    EvalConfig,
    EvalResult,
    OperatorKind,
    OperatorParams,
    UnboundedFunctionError,
    check_direct_bound,
    d_moment_exact,
    get_function,
    modulus1,
    modulus2,
    voronovskaja_sweep,
    weighted_norm_error,
)
from jainbaskakov.analysis import (
    empirical_order,
    rate_bound_checks,
    sweep_orders,
    weighted_majorant_e1,
)
from jainbaskakov.functions import TestFunction

from helpers import combine


class TestModulus1:
    def test_constant_is_zero(self, cfg):
        assert modulus1(get_function("e0"), 2.0, 0.5, cfg) == 0.0

    def test_linear(self, cfg):
        # omega(delta) = delta for the identity
        assert modulus1(get_function("e1"), 2.0, 0.5, cfg) == pytest.approx(0.5, abs=1e-12)

    def test_kink_function(self, cfg):
        # 1-Lipschitz piecewise-linear: omega(delta) = delta
        assert modulus1(get_function("abs-shift"), 2.0, 0.3, cfg) == pytest.approx(
            0.3, abs=1e-12
        )

    def test_monotone_in_delta(self, cfg):
        for name in ("sin", "exp-neg", "recip-sq", "abs-shift", "e2"):
            f = get_function(name)
            vals = [modulus1(f, 3.0, d, cfg) for d in (0.1, 0.2, 0.4, 0.8)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_subadditivity_style_bound(self, cfg):
        # omega(lam * delta) <= (1 + ceil(lam)) * omega(delta)
        delta = 0.1
        for name in ("sin", "exp-neg", "recip-sq", "abs-shift"):
            f = get_function(name)
            base = modulus1(f, 3.0, delta, cfg)
            for lam in (1.5, 2.0, 3.7):
                lhs = modulus1(f, 3.0, min(lam * delta, 3.0), cfg)
                assert lhs <= (1 + math.ceil(lam)) * base + 1e-12

    def test_never_samples_past_a(self, cfg):
        # 0 on [0, a] and 1 beyond: a sample past a reads 1.  An absolute
        # slack of 1e-12 on t <= a took in every t up to 2a at a = 1e-13
        a = 1e-13
        f = TestFunction("step", fn=lambda t: (np.asarray(t, dtype=float) > a).astype(float))
        assert modulus1(f, a, a, cfg) == 0.0

    def test_domain_checks(self, cfg):
        with pytest.raises(DomainError):
            modulus1(get_function("sin"), -1.0, 0.1, cfg)
        with pytest.raises(DomainError):
            modulus1(get_function("sin"), 1.0, 2.0, cfg)


    @pytest.mark.parametrize("points", [2.5, math.nan, math.inf, 1, True])
    def test_grid_points_must_be_an_integer(self, points):
        # caught in EvalConfig, not as a TypeError inside np.linspace
        with pytest.raises(DomainError, match="grid_points must be an integer"):
            EvalConfig(grid_points=points)

    def test_integral_grid_points_evaluate(self):
        cfg = EvalConfig(grid_points=33.0, domain_cap=8.0)
        assert cfg.grid_points == 33 and type(cfg.grid_points) is int
        assert modulus1(get_function("e1"), 2.0, 0.5, cfg) == pytest.approx(0.5, abs=1e-12)


class TestModulus2:
    def test_constant_is_zero(self, cfg):
        assert modulus2(get_function("e0"), 0.3, cfg) == 0.0

    def test_sin_matches_analytic(self, cfg):
        # sup |sin(x+2h) - 2 sin(x+h) + sin(x)| = 4 sin^2(h/2) sup|sin| over
        # the grid; the step bound itself is sampled, grid caps the x-sup
        h0 = 0.1
        got = modulus2(get_function("sin"), h0, cfg)
        assert got == pytest.approx(4 * math.sin(h0 / 2) ** 2, rel=2e-3)
        assert got <= h0 * h0

    def test_exp_matches_analytic(self, cfg):
        # second difference of e^-x maximal at x = 0: (1 - e^-h)^2
        h0 = 0.1
        got = modulus2(get_function("exp-neg"), h0, cfg)
        assert got == pytest.approx(math.expm1(-h0) ** 2, rel=1e-12)

    def test_unbounded_rejected(self, cfg):
        with pytest.raises(UnboundedFunctionError):
            modulus2(get_function("e2"), 0.1, cfg)

    def test_monotone_in_step_bound(self, cfg):
        f = get_function("recip-sq")
        vals = [modulus2(f, h, cfg) for h in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestDirectBound:
    def test_constant_function_tight(self, cfg):
        ch = check_direct_bound(OperatorParams(20, 1, 0.1), get_function("e0"), 1.0, cfg)
        assert ch.lhs == pytest.approx(0.0, abs=1e-12)
        assert ch.rhs == pytest.approx(0.0, abs=1e-12)
        assert ch.slack == pytest.approx(0.0, abs=1e-12)
        assert ch.m_required == 0.0

    def test_sin_example_with_default_constant(self, cfg):
        ch = check_direct_bound(OperatorParams(100, 1, 0.05), get_function("sin"), 1.0, cfg)
        assert ch.slack >= 0.0
        assert ch.m_required <= 2.0

    def test_sweep_trends(self, cfg):
        # beta_n = 1/n: rhs decreasing along the sweep; lhs decreasing in the
        # asymptotic regime (early n can straddle a sign crossing of the
        # first/second-order error terms)
        rows = [
            check_direct_bound(OperatorParams(n, 1, 1.0 / n), get_function("sin"), 1.0, cfg)
            for n in (25, 50, 100, 200, 400)
        ]
        assert all(ch.slack >= 0.0 for ch in rows)
        rhs = [ch.rhs for ch in rows]
        assert all(a > b for a, b in zip(rhs, rhs[1:]))
        lhs_tail = [ch.lhs for ch in rows[2:]]
        assert all(a > b for a, b in zip(lhs_tail, lhs_tail[1:]))

    def test_smallest_constant_reported_below_default(self, cfg):
        worst = 0.0
        for name in ("sin", "exp-neg", "recip-sq", "t-exp-neg"):
            f = get_function(name)
            for x in (0.25, 1.0, 2.0):
                ch = check_direct_bound(OperatorParams(50, 1, 0.05), f, x, cfg)
                worst = max(worst, ch.m_required)
        assert worst <= 2.0

    def test_unbounded_rejected(self, cfg):
        with pytest.raises(UnboundedFunctionError):
            check_direct_bound(OperatorParams(20, 1, 0.0), get_function("e2"), 1.0, cfg)


class TestRateBound:
    def test_constant_function(self, fast_cfg):
        checks = rate_bound_checks(OperatorParams(25, 1, 0.0), get_function("e0"), 1.0, fast_cfg)
        assert all(ch.lhs == pytest.approx(0.0, abs=1e-12) for ch in checks)
        assert min(ch.slack for ch in checks) >= -1e-9

    def test_growth_two_function_passes_pointwise(self, fast_cfg):
        checks = rate_bound_checks(OperatorParams(50, 1, 0.0), get_function("e2"), 1.0, fast_cfg)
        assert len(checks) == fast_cfg.grid_points
        assert all(ch.slack >= -1e-9 for ch in checks)

    def test_recip_sq_sweep_decreasing_and_never_violated(self, fast_cfg):
        sups, rhss = [], []
        for n in (25, 50, 100):
            checks = rate_bound_checks(OperatorParams(n, 1, 0.0), get_function("recip-sq"), 2.0, fast_cfg)
            assert all(ch.slack >= -1e-9 for ch in checks)
            sups.append(max(ch.lhs for ch in checks))
            rhss.append(max(ch.rhs for ch in checks))
        assert sups[0] > sups[1] > sups[2]
        assert rhss[0] > rhss[1] > rhss[2]

    def test_growth_cap(self, fast_cfg):
        with pytest.raises(DomainError):
            rate_bound_checks(OperatorParams(25, 1, 0.0), get_function("e3"), 1.0, fast_cfg)


class TestWeightedNorm:
    def test_identity_function_majorant_and_trend(self):
        # grid spacing 0.25 puts x = 1 (where the weighted sup is attained)
        # exactly on the grid
        cfg = EvalConfig(grid_points=33, domain_cap=8.0)
        sched = [(n, 1.0 / n) for n in (16, 32, 64, 128)]
        ests = weighted_norm_error(sched, 1.0, get_function("e1"), 0.0, cfg)
        values = [e.value for e in ests]
        assert all(a > b for a, b in zip(values, values[1:]))
        for e in ests:
            # the error profile is K_n * x/(1+x^2), so the measured norm is
            # exactly half the closed-form majorant (sup attained at x = 1)
            majorant = weighted_majorant_e1(e.n, 1.0, e.beta)
            assert e.value <= majorant
            assert e.value == pytest.approx(majorant / 2.0, rel=1e-8)
            assert e.tail_bound >= 0.0

    def test_constant_function_error_zero(self, fast_cfg):
        ests = weighted_norm_error([(16, 1.0 / 16), (64, 1.0 / 64)], 1.0, get_function("e0"), 0.0, fast_cfg)
        for e in ests:
            assert e.value <= 1e-10

    def test_lambda_variant_decreasing(self, fast_cfg):
        sched = [(n, 1.0 / n) for n in (16, 32, 64)]
        ests = weighted_norm_error(sched, 1.0, get_function("e2"), 0.5, fast_cfg)
        values = [e.value for e in ests]
        assert values[0] > values[1] > values[2]
        # tail bound vanishes with the cap for lambda > 0
        assert all(e.tail_bound < 1.0 for e in ests)

    def test_negative_lambda_rejected(self, fast_cfg):
        with pytest.raises(DomainError):
            weighted_norm_error([(16, 0.0)], 1.0, get_function("e1"), -0.1, fast_cfg)


class TestVoronovskaja:
    def test_affine_king_exact_preservation(self, cfg):
        lin = combine("affine", 1.0, get_function("e0"), -2.0, get_function("e1"))
        # a gap of about 0 lies inside the noise: the sweep warns
        with pytest.warns(UserWarning, match="numerical noise"):
            recs = voronovskaja_sweep(OperatorKind.KING, 1.0, 0.0, lin, 1.0, [16, 64, 256], cfg)
        for r in recs:
            assert r.predicted_limit == 0.0
            assert abs(r.scaled_error) <= 1e-8

    def test_king_exponential_limit(self, cfg):
        # x=1, c=1, f=e^-t: limit x(2+xc)/2 f'' = 3/(2e)
        recs = voronovskaja_sweep(
            OperatorKind.KING, 1.0, 0.0, get_function("exp-neg"), 1.0, [64, 128, 256], cfg
        )
        assert recs[0].predicted_limit == pytest.approx(3.0 / (2.0 * math.e), rel=1e-12)
        assert recs[-1].gap < recs[0].gap

    def test_square_hybrid_limit_is_seven(self, cfg):
        # x=1, l=0, c=1, f=t^2: x(l+2c) f' + x(2+xc)/2 f'' = 4 + 3 = 7
        recs = voronovskaja_sweep(
            OperatorKind.JAIN_BASKAKOV, 1.0, 0.0, get_function("e2"), 1.0,
            [64, 128, 256, 512], cfg,
        )
        assert recs[0].predicted_limit == pytest.approx(7.0)
        gaps = [r.gap for r in recs]
        assert all(a / b >= 1.7 for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_polynomial_consistency_via_closed_forms(self, m):
        # exact moment algebra for monomials up to degree 4: the gap
        # |n(D(t^m)-t^m) - limit| is O(1/n), so quadrupling n cuts it ~4x
        c, l, x = 1.0, 0.5, 1.0
        d1 = m * x ** (m - 1)
        d2 = m * (m - 1) * x ** (m - 2)
        limit = x * (l + 2 * c) * d1 + x * (2 + x * c) / 2 * d2
        gaps = []
        for k in (8, 10, 12):
            n = float(2**k)
            p = OperatorParams(n, c, l / n)
            scaled = n * (d_moment_exact(p, m, x) - x**m)
            gaps.append(abs(scaled - limit))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.1)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.1)

    def test_king_fprime_term_absent(self):
        # mu*_1 = 0 makes the f' term vanish for every n, not just in the
        # limit: for affine f the closed-form scaled error is identically 0
        lin_val = lambda p, x: 3.0 + 2.0 * x
        for n in (16, 256, 4096):
            p = OperatorParams(n, 1.0, 1.0 / n**2)
            from jainbaskakov import king_moment

            val = 3.0 * king_moment(p, 0, 1.0) + 2.0 * king_moment(p, 1, 1.0)
            assert n * (val - lin_val(p, 1.0)) == pytest.approx(0.0, abs=1e-11)

    def test_noise_warning_counts_the_rounding(self, monkeypatch):
        # the noise is n times every error the evaluation reports: a rounding
        # bound alone above gap/n makes the gap unresolved
        gap = 1e-3

        def evaluated(rounding):
            def fake(kind, params, f, x, cfg):
                value = float(f.fn(x)) + (7.0 + gap) / params.n  # 7: the limit
                return EvalResult(x, value, 1, 0.0, 0.0, rounding / params.n)
            return fake

        e2 = get_function("e2")
        monkeypatch.setattr(analysis, "eval_operator", evaluated(2 * gap))
        with pytest.warns(UserWarning, match="numerical noise estimate"):
            voronovskaja_sweep(OperatorKind.JAIN_BASKAKOV, 1.0, 0.0, e2, 1.0, [64])
        monkeypatch.setattr(analysis, "eval_operator", evaluated(gap / 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            voronovskaja_sweep(OperatorKind.JAIN_BASKAKOV, 1.0, 0.0, e2, 1.0, [64])

    def test_requires_derivatives_and_interior_point(self, cfg):
        with pytest.raises(DomainError):
            voronovskaja_sweep(OperatorKind.JAIN_BASKAKOV, 1.0, 0.0, get_function("abs-shift"), 1.0, [16, 32], cfg)
        with pytest.raises(DomainError):
            voronovskaja_sweep(OperatorKind.JAIN_BASKAKOV, 1.0, 0.0, get_function("e2"), 0.0, [16, 32], cfg)
        with pytest.raises(DomainError):
            voronovskaja_sweep(OperatorKind.JAIN, 1.0, 0.0, get_function("e2"), 1.0, [16, 32], cfg)


# Each analysis input, checked for sign and finiteness before anything is
# evaluated: (call, whether 0 is allowed).
_INPUT_CHECKS = {
    "m_const": (lambda v: check_direct_bound(OperatorParams(25, 1, 0.0), get_function("sin"),
                                             1.0, EvalConfig(grid_points=5), v), True),
    "lambda": (lambda v: weighted_norm_error([(16, 0.0)], 1.0, get_function("e1"), v), True),
    "h0": (lambda v: modulus2(get_function("sin"), v), True),
    "x": (lambda v: voronovskaja_sweep(OperatorKind.KING, 1.0, 0.0, get_function("e2"), v,
                                       [16]), False),
    "l": (lambda v: voronovskaja_sweep(OperatorKind.JAIN_BASKAKOV, 1.0, v, get_function("e2"),
                                       1.0, [16]), True),
    "a": (lambda v: modulus1(get_function("sin"), v, 0.0), False),
    "a-rate": (lambda v: rate_bound_checks(OperatorParams(25, 1, 0.0), get_function("sin"),
                                           v), False),
}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name, (_, zero_ok) in sorted(_INPUT_CHECKS.items())
    for bad in [math.nan, math.inf, -math.inf, -1.0] + ([] if zero_ok else [0.0])])
def test_bad_inputs_rejected_before_evaluating(monkeypatch, name, bad):
    def no_eval(*args):
        raise AssertionError("evaluated before checking the input")

    monkeypatch.setattr(analysis, "eval_jain_baskakov", no_eval)
    monkeypatch.setattr(analysis, "eval_operator", no_eval)
    with pytest.raises(DomainError, match=f"{name.split('-')[0]} must be"):
        _INPUT_CHECKS[name][0](bad)


class TestSweepHelpers:
    def test_empirical_order(self):
        assert empirical_order(10, 1.0, 20, 0.5) == pytest.approx(1.0)
        assert empirical_order(10, 1.0, 40, 1.0 / 16.0) == pytest.approx(2.0)
        assert math.isnan(empirical_order(10, 0.0, 20, 0.5))

    def test_sweep_orders_layout(self):
        orders = sweep_orders([8, 16, 32], [1.0, 0.5, 0.25])
        assert math.isnan(orders[0])
        assert orders[1] == pytest.approx(1.0)
        assert orders[2] == pytest.approx(1.0)
