"""Empirical verification harness: moduli of continuity, error-bound checks,
weighted-norm convergence, and Voronovskaja-type asymptotics.

The harness does not prove limit statements; it measures finite-n
quantities against closed-form bounds and asserts trends (decreasing
errors, nonnegative slack, gap-ratio tests) at configured tolerances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, UnboundedFunctionError
from .functions import TestFunction
from .moments import d_central_moment
from .operators import eval_jain_baskakov, eval_operator
from .params import EvalConfig, OperatorKind, OperatorParams, check_point

# Number of fractional steps per modulus evaluation: the sup over step sizes
# h <= delta is sampled at delta * j / SUBSTEPS, so the declared step bound
# itself is always included.
MODULUS_SUBSTEPS = 16


@dataclass(frozen=True)
class BoundCheck:
    """One theorem-bound comparison; slack = rhs - lhs must be >= -tolerance."""

    lhs: float
    rhs: float
    slack: float
    x: float
    m_required: Optional[float] = None


@dataclass(frozen=True)
class VoronovskajaRecord:
    n: int
    beta_n: float
    scaled_error: float
    predicted_limit: float
    gap: float


@dataclass(frozen=True)
class WeightedNormEstimate:
    value: float
    tail_bound: float
    n: float
    beta: float


def _refined_grid(lo: float, hi: float, cfg: EvalConfig) -> np.ndarray:
    # base grid plus one level of midpoint refinement
    return np.linspace(lo, hi, 2 * cfg.grid_points - 1)


def modulus1(f: TestFunction, a: float, delta: float, cfg: Optional[EvalConfig] = None) -> float:
    """Grid sup of |f(t)-f(x)| over t, x in [0, a] with |t-x| <= delta.

    Steps are sampled at delta*j/SUBSTEPS (the bound delta included), so the
    estimate underestimates the true modulus by at most the grid-resolution
    Lipschitz slack.
    """
    cfg = cfg or EvalConfig()
    check_point(a, "interval endpoint a", zero_ok=False)
    if not (0 <= delta <= a):
        raise DomainError(f"delta must lie in [0, a], got delta={delta}, a={a}")
    if delta == 0:
        return 0.0
    x = _refined_grid(0.0, a, cfg)
    fx = np.asarray(f.fn(x), dtype=float)
    best = 0.0
    for j in range(1, MODULUS_SUBSTEPS + 1):
        s = delta * j / MODULUS_SUBSTEPS
        t = x + s
        m = t <= a + 1e-12
        diff = np.abs(np.asarray(f.fn(t[m]), dtype=float) - fx[m])
        best = max(best, float(diff.max()))
    return best


def modulus2(f: TestFunction, h0: float, cfg: Optional[EvalConfig] = None) -> float:
    """Second-order modulus: sup over 0 < h <= h0 and x of
    |f(x+2h) - 2f(x+h) + f(x)|.

    Defined for bounded functions only, growth degree 0 in f's envelope
    (:class:`~jainbaskakov.functions.TestFunction`); the sup over [0, inf)
    is taken on [0, domain_cap], justified by the registry's
    decay/periodicity.
    """
    cfg = cfg or EvalConfig()
    check_point(h0, "step bound h0")
    if f.growth_degree:
        raise UnboundedFunctionError(
            f"{f.name} has growth degree {f.growth_degree}; the second-order modulus "
            "over [0, inf) is only computed for bounded functions (degree 0)"
        )
    if h0 == 0:
        return 0.0
    cap = cfg.domain_cap
    x = _refined_grid(0.0, cap, cfg)
    fx = np.asarray(f.fn(x), dtype=float)
    best = 0.0
    for j in range(1, MODULUS_SUBSTEPS + 1):
        h = h0 * j / MODULUS_SUBSTEPS
        d2 = np.abs(
            np.asarray(f.fn(x + 2 * h), dtype=float)
            - 2 * np.asarray(f.fn(x + h), dtype=float)
            + fx
        )
        best = max(best, float(d2.max()))
    return best


def check_direct_bound(
    params: OperatorParams,
    f: TestFunction,
    x: float,
    cfg: Optional[EvalConfig] = None,
    m_const: float = 2.0,
) -> BoundCheck:
    """Pointwise first/second-modulus bound for the hybrid operator.

    lhs = |D(f,x) - f(x)|;
    rhs = omega(f, mu1(x)) + M * omega2(f, sqrt(mu1(x)^2 + mu2(x))).

    The absolute constant M is configurable (default 2); ``m_required``
    reports the smallest constant that would make this check pass.
    """
    cfg = cfg or EvalConfig()
    check_point(m_const, "m_const")
    if f.growth_degree:
        raise UnboundedFunctionError("the direct bound applies to bounded f")
    params.require_order(2)
    val = eval_jain_baskakov(params, f, x, cfg).value
    lhs = abs(val - float(f.fn(x)))
    mu1 = d_central_moment(params, 1, x)
    mu2v = d_central_moment(params, 2, x)
    w1 = modulus1(f, cfg.domain_cap, min(mu1, cfg.domain_cap), cfg)
    step = math.sqrt(mu1 * mu1 + mu2v)
    w2 = modulus2(f, step, cfg)
    rhs = w1 + m_const * w2
    if w2 > 0:
        m_req = max(0.0, (lhs - w1) / w2)
    else:
        m_req = 0.0 if lhs <= w1 + 1e-12 else math.inf
    return BoundCheck(lhs=lhs, rhs=rhs, slack=rhs - lhs, x=x, m_required=m_req)


def rate_bound_checks(
    params: OperatorParams,
    f: TestFunction,
    a: float,
    cfg: Optional[EvalConfig] = None,
) -> list[BoundCheck]:
    """Pointwise second-moment/modulus rate bound over an x grid in [0, a].

    rhs(x) = 6 M_f (1 + a^2) mu2(x) + 2 omega_{[0,a+1]}(f, sqrt(mu2(x))),
    checked at every grid x (the stronger, pointwise reading).
    """
    cfg = cfg or EvalConfig()
    check_point(a, "interval endpoint a", zero_ok=False)
    if f.growth_degree > 2:
        raise DomainError(
            "the rate bound applies to functions of growth degree <= 2"
        )
    params.require_order(2)
    checks = []
    for x in np.linspace(0.0, a, cfg.grid_points):
        x = float(x)
        val = eval_jain_baskakov(params, f, x, cfg).value
        lhs = abs(val - float(f.fn(x)))
        mu2v = d_central_moment(params, 2, x)
        delta = math.sqrt(mu2v)
        w = modulus1(f, a + 1.0, min(delta, a + 1.0), cfg)
        rhs = 6.0 * f.m_bound * (1.0 + a * a) * mu2v + 2.0 * w
        checks.append(BoundCheck(lhs=lhs, rhs=rhs, slack=rhs - lhs, x=x))
    return checks


def weighted_majorant_e1(n: float, c: float, beta: float) -> float:
    """Closed-form majorant of the rho0-norm error for f = t:
    2c/(n-2c) + n beta / ((n-2c)(1-beta)); it exists for n > 2c only
    (ThresholdError below)."""
    OperatorParams(n, c, beta).require_order(1)
    return 2 * c / (n - 2 * c) + n * beta / ((n - 2 * c) * (1 - beta))


def _weighted_tail_bound(params, f, lam, cap) -> float:
    """Sup of |D f - f| / (1+x^2)^(1+lam) beyond the cap, from growth metadata
    of degree d <= 2 (:func:`weighted_norm_error` refuses a larger one).

    Uses (1+x^2) >= x^2, so each numerator monomial becomes a decreasing
    power of x and can be bounded at x = cap.  Past the float range the
    bound is inf where a power of a cap below 1 overflows, and 0 where the
    bounded tail's weight does.  For growth degree 0, |Df| + |f| <= 2M.
    """
    n, c = params.n, params.c
    d = f.growth_degree
    if not d:
        try:
            return 2.0 * f.m_bound / (1.0 + cap * cap) ** (1.0 + lam)
        except OverflowError:  # a weight past the float range: the ratio is below it
            return 0.0
    try:
        if d <= 1:
            # |Df| + |f| <= M (2 + x + D(t, x)),  D(t,x) = k1 x
            k1 = n / ((n - 2 * c) * (1.0 - params.beta))
            return f.m_bound * (
                2.0 * cap ** (-2.0 - 2.0 * lam) + (1.0 + k1) * cap ** (-1.0 - 2.0 * lam)
            )
        # |Df| + |f| <= M (2 + x^2 + A x^2 + B x)
        a1 = 1.0 / (1.0 - params.beta)
        denom = (n - 2 * c) * (n - 3 * c)
        big_a = n * n * a1 * a1 / denom
        big_b = n * (2 - 2 * params.beta + params.beta**2) * a1**3 / denom
        return f.m_bound * (
            2.0 * cap ** (-2.0 - 2.0 * lam)
            + big_b * cap ** (-1.0 - 2.0 * lam)
            + (1.0 + big_a) * cap ** (-2.0 * lam)
        )
    except OverflowError:  # a power past the float range (cap < 1): so is the bound
        return math.inf


def weighted_norm_error(
    schedule: Sequence[tuple],
    c: float,
    f: TestFunction,
    lam: float,
    cfg: Optional[EvalConfig] = None,
) -> list[WeightedNormEstimate]:
    """Per-(n, beta_n) weighted sup-norm error of the hybrid operator.

    ``schedule`` is a sequence of (n, beta_n).  The sup over [0, inf) is the
    grid sup over [0, domain_cap] plus the analytic tail bound.
    """
    cfg = cfg or EvalConfig()
    check_point(lam, "lambda")
    if f.growth_degree > 2:
        raise DomainError("weighted norms are defined for growth degree <= 2")
    xs = np.linspace(0.0, cfg.domain_cap, cfg.grid_points)
    with np.errstate(over="ignore"):  # an infinite weight gives a ratio of 0
        weights = (1.0 + xs * xs) ** (1.0 + lam)
    fx = np.asarray(f.fn(xs), dtype=float)
    out = []
    for n, beta in schedule:
        params = OperatorParams(n, c, beta)
        vals = np.array(
            [eval_jain_baskakov(params, f, float(x), cfg).value for x in xs]
        )
        value = float(np.max(np.abs(vals - fx) / weights))
        tail = _weighted_tail_bound(params, f, lam, cfg.domain_cap)
        out.append(WeightedNormEstimate(value=value, tail_bound=tail, n=n, beta=beta))
    return out


def _tightened(cfg: EvalConfig, n: float) -> EvalConfig:
    # Sweeps multiply absolute evaluation error by n, so truncation and
    # quadrature tolerances shrink with n (floored at float64 resolution).
    return replace(
        cfg,
        tail_eps=max(cfg.tail_eps / (n * n), 5e-16),
        quad_rel_tol=max(cfg.quad_rel_tol / n, 1e-13),
    )


def voronovskaja_sweep(
    kind: OperatorKind,
    c: float,
    l: float,
    f: TestFunction,
    x: float,
    n_values: Sequence[int],
    cfg: Optional[EvalConfig] = None,
) -> list[VoronovskajaRecord]:
    """Scaled errors n (L_n f - f)(x) along an n sweep, against the
    second-order limit.

    Hybrid case: beta_n = l/n and the limit is
        x (l + 2c) f'(x) + x (2 + xc) f''(x) / 2.
    King case: beta_n = 1/n^2 (so n beta_n -> 0) and the limit is
        x (2 + xc) f''(x) / 2.
    """
    cfg = cfg or EvalConfig()
    kind = OperatorKind(kind)
    if kind is OperatorKind.JAIN:
        raise DomainError("the sweep covers the hybrid and King operators")
    if f.deriv1 is None or f.deriv2 is None:
        raise DomainError(f"{f.name} has no declared derivatives at x")
    # the asymptotic formula is stated for x > 0
    check_point(x, zero_ok=False)
    check_point(l, "l")
    d1 = float(f.deriv1(x))
    d2 = float(f.deriv2(x))
    fx = float(f.fn(x))
    if kind is OperatorKind.KING:
        predicted = x * (2.0 + x * c) * d2 / 2.0
    else:
        predicted = x * (l + 2.0 * c) * d1 + x * (2.0 + x * c) * d2 / 2.0

    records = []
    for n in sorted(n_values):
        beta_n = (1.0 / (n * n)) if kind is OperatorKind.KING else l / n
        params = OperatorParams(n, c, beta_n)
        res = eval_operator(kind, params, f, x, _tightened(cfg, n))
        scaled = n * (res.value - fx)
        gap = abs(scaled - predicted)
        noise = n * (res.est_tail_bound + res.quad_error_est + res.rounding_est)
        if gap > 0 and noise > gap:
            warnings.warn(
                f"n={n}: numerical noise estimate {noise:.3e} exceeds the "
                f"asymptotic gap {gap:.3e}; tighten tolerances",
                stacklevel=2,
            )
        records.append(
            VoronovskajaRecord(
                n=int(n),
                beta_n=beta_n,
                scaled_error=scaled,
                predicted_limit=predicted,
                gap=gap,
            )
        )
    return records


def empirical_order(n0: float, e0: float, n1: float, e1: float) -> float:
    """log error ratio per log n ratio: the empirical convergence order."""
    if e0 <= 0 or e1 <= 0 or n1 <= n0:
        return math.nan
    return math.log(e0 / e1) / math.log(n1 / n0)


def sweep_orders(ns: Sequence[float], errs: Sequence[float]) -> list[float]:
    """Empirical order column: orders[i] compares row i-1 to row i (first NaN)."""
    out = [math.nan]
    for i in range(1, len(ns)):
        out.append(empirical_order(ns[i - 1], errs[i - 1], ns[i], errs[i]))
    return out


def converge_sweep(
    kind: OperatorKind,
    schedule: Sequence[tuple],
    c: float,
    f: TestFunction,
    xs: Sequence[float],
    cfg: Optional[EvalConfig] = None,
) -> list[tuple]:
    """Sup error over ``xs`` per (n, beta_n): rows (n, beta, sup_err)."""
    cfg = cfg or EvalConfig()
    rows = []
    for n, beta in schedule:
        params = OperatorParams(n, c, beta)
        sup_err = 0.0
        for x in xs:
            val = eval_operator(kind, params, f, float(x), cfg).value
            sup_err = max(sup_err, abs(val - float(f.fn(float(x)))))
        rows.append((n, beta, sup_err))
    return rows
