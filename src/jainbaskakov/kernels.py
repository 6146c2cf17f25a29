"""Basis weights, Baskakov-type kernel, and kernel integrals.

Two building blocks drive every operator here:

* the generalized-Poisson (Jain) basis
      w_b(v, nx) = nx (nx + v b)^(v-1) e^-(nx + v b) / v!,
  a probability mass function in v for 0 <= b < 1 (b = 0 is Poisson with
  mean nx);

* the Baskakov-type kernel on (0, inf)
      p(t) = c G(n/c+v-1) / (G(v) G(n/c)) (ct)^(v-1) / (1+ct)^(n/c+v-1),
  whose total mass is c/(n-c).

Under s = ct/(1+ct) the kernel measure becomes c/(n-c) times a
Beta(v, n/c-1) law on (0, 1), so kernel integrals are computed as Beta
expectations with adaptive Gauss-Kronrod quadrature on the unit interval,
and the monomial integrals have the exact product form

    int t^j p(t) dt = c * v(v+1)...(v+j-1) / ((n-c)(n-2c)...(n-(j+1)c))

valid for n > (j+1)c.  All Gamma factors are taken through log-gamma.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import betaln, gammaln

from . import _core
from .errors import ConvergenceError, DomainError, IntegrabilityError, ThresholdError
from .params import BasisWeight, EvalConfig, OperatorParams, check_point


def jain_basis_log(params: OperatorParams, x: float, v: int) -> float:
    """log w_b(v, nx); -inf where the weight is exactly zero.

    At x = 0 only v = 0 carries weight (weight 1, by continuity).
    """
    check_point(x)
    if v < 0:
        raise DomainError(f"v must be a nonnegative integer, got {v}")
    if x == 0:
        return 0.0 if v == 0 else -math.inf
    return float(_core.jain_log_weights(params.n * x, params.beta, v, 1)[0])


def jain_basis_weight(params: OperatorParams, x: float, v: int) -> BasisWeight:
    """The weight at index v in both log and linear scale."""
    lw = jain_basis_log(params, x, v)
    return BasisWeight(v=v, log_weight=lw, weight=math.exp(lw))


def baskakov_kernel_log(params: OperatorParams, v: int, t: float) -> float:
    """log p(t) for the order-v kernel (v >= 1), through log-gamma.

    Limits at t = 0: finite (log c) for v = 1, -inf for v >= 2.
    """
    n, c = params.n, params.c
    if v < 1:
        raise DomainError(f"kernel index v must be >= 1, got {v}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if not (n > c):
        raise ThresholdError(f"kernel needs n > c (n={n}, c={c})")
    nc = n / c
    if t == 0:
        return math.log(c) if v == 1 else -math.inf
    lg = gammaln(nc + v - 1) - gammaln(v) - gammaln(nc)
    return float(
        math.log(c) + lg + (v - 1) * math.log(c * t) - (nc + v - 1) * math.log1p(c * t)
    )


def kernel_moment_exact(params: OperatorParams, v: int, j: int) -> float:
    """Exact monomial kernel integral int t^j p(t) dt; needs n > (j+1)c."""
    if v < 1:
        raise DomainError(f"kernel index v must be >= 1, got {v}")
    if j < 0:
        raise DomainError(f"moment order must be nonnegative, got {j}")
    n, c = params.n, params.c
    return float(c / (n - c) * expectation_moments(params, v, j))


def expectation_moments(params: OperatorParams, v, j: int) -> np.ndarray:
    """(n-c)/c times the monomial kernel integral: the Beta-expectation of t^j.

    Equals ``v(v+1)...(v+j-1) / ((n-2c)...(n-(j+1)c))``; vectorized over v.
    For j = 0 this is identically 1.
    """
    params.require_order(j)
    n, c = params.n, params.c
    v = np.asarray(v, dtype=np.float64)
    rising, denom = np.ones_like(v), 1.0
    for i in range(j):
        rising = rising * (v + i)
        denom *= n - (i + 2) * c
    return rising / denom


def magnitude_bound(params: OperatorParams, f, v) -> np.ndarray:
    """A-priori bound on |E_v[f]|, elementwise over the integer(s) ``v``.

    ``f.sup_bound`` for bounded f, else ``m_bound * (1 + E_v[t^d])`` with d
    the growth degree.
    """
    if f.bounded:
        return np.full_like(v, f.sup_bound, dtype=np.float64)
    return f.m_bound * (1.0 + expectation_moments(params, v, f.growth_degree))


def _kernel_expectation(params, v, fn, cfg, scale):
    """E[f(t(S))] with S ~ Beta(v, n/c - 1), by adaptive quadrature.

    ``scale`` is an a-priori magnitude bound for the expectation, used to set
    the absolute tolerance so that near-zero integrals terminate.  Returns
    (value, error_estimate).
    """
    n, c = params.n, params.c
    big = n / c - 1.0  # second Beta parameter
    vm1 = v - 1.0
    bm1 = big - 1.0
    lbeta = float(betaln(v, big))
    log_s = math.log
    log1p_s = math.log1p
    exp_s = math.exp

    def integrand(s):
        if s <= 0.0:
            if vm1 == 0.0:
                return exp_s(-lbeta) * float(fn(0.0))
            return 0.0
        if s >= 1.0:
            return 0.0
        lp = bm1 * log1p_s(-s) - lbeta
        if vm1:
            lp += vm1 * log_s(s)
        t = s / (c * (1.0 - s))
        return exp_s(lp) * float(fn(t))

    pts = []
    if v + big > 2.0:
        mode = (v - 1.0) / (v + big - 2.0)
        if 0.0 < mode < 1.0:
            pts.append(mode)
    mean = v / (v + big)
    if 0.0 < mean < 1.0:
        pts.append(mean)

    pts = sorted(set(pts))
    epsabs = cfg.quad_rel_tol * max(scale, 1e-300) * 1e-2
    # each panel refinement costs ~42 evaluations; QUADPACK needs the
    # subinterval limit to exceed the number of break points
    limit = max(len(pts) + 2, cfg.quad_max_nodes // 42)
    val, err, info, *tail = quad(
        integrand,
        0.0,
        1.0,
        points=pts or None,
        epsabs=epsabs,
        epsrel=cfg.quad_rel_tol,
        limit=limit,
        full_output=1,
    )
    ok = err <= max(epsabs, cfg.quad_rel_tol * abs(val)) * 10.0
    if tail and not ok:  # tail non-empty means QUADPACK reported a failure
        raise ConvergenceError(
            f"kernel integral (v={v}) did not converge within "
            f"{cfg.quad_max_nodes} nodes: est. error {err:.3e} for value {val:.6e}"
        )
    return val, err


def kernel_integral(
    params: OperatorParams,
    v: int,
    f,
    cfg: EvalConfig | None = None,
) -> float:
    """int_0^inf p(t) f(t) dt via the s = ct/(1+ct) substitution.

    ``f`` is a TestFunction (its growth degree gates integrability:
    n > (growth_degree+1)c is required).
    """
    cfg = cfg or EvalConfig()
    if v < 1:
        raise DomainError(f"kernel index v must be >= 1, got {v}")
    n, c = params.n, params.c
    if not (n > c):
        raise ThresholdError(f"kernel needs n > c (n={n}, c={c})")
    d = f.growth_degree
    if not (n > (d + 1) * c):
        raise IntegrabilityError(
            f"integrating growth-degree-{d} functions needs n > {d + 1}c "
            f"(n={n}, c={c})"
        )
    scale = float(magnitude_bound(params, f, v))
    val, _ = _kernel_expectation(params, v, f.fn, cfg, scale)
    return c / (n - c) * val
