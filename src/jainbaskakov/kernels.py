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

# Hard cap on the adaptive v-series; beyond this we fail loudly rather than
# silently truncate a heavy-tail case (beta near 1).
V_MAX = 10**6

# Every v-series (operator values and the basis mass) sums the same blocks:
# 256 terms, doubling up to 8192.
_BLOCK_START = 256
_BLOCK_MAX = 8192


def block_schedule(v_max: int):
    """(v0, count) of the summation blocks, while v0 < v_max."""
    v0, block = 0, _BLOCK_START
    while v0 < v_max:
        yield v0, block
        v0 += block
        block = min(block * 2, _BLOCK_MAX)


def mass_saturated(mass: float, last: float, tail_eps: float) -> bool:
    """Whether the basis mass collected so far lets a series stop.

    ``mass`` is the summed mass, ``last`` the last block's share.  The
    computed mass saturates at 1 - O(nx log(nx) eps) because the log-space
    weights round; once block contributions sit at rounding level (and the
    bulk of the mass has been collected, so this is the right tail and not
    the pre-mode left tail) the mass is taken as complete.

    The rule only grows truer as ``mass`` grows and as ``last`` shrinks (each
    float operation in it is monotone), which lets a caller decide it from
    bounds on the two inputs.
    """
    return (1.0 - mass) <= tail_eps or (mass >= 0.5 and last <= 2e-16 * (1.0 + mass))


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


def basis_mass(
    params: OperatorParams,
    x: float,
    v_max: int | None = None,
    cfg: EvalConfig | None = None,
) -> float:
    """Partial sum of the basis weights, sum_{v=0}^{v_max} w_b(v, nx).

    With ``v_max=None`` the summation is adaptive: it stops once the
    unaccounted mass drops below ``cfg.tail_eps`` (or the float sum
    saturates).  Summation is blockwise-``fsum`` exact, but the individual
    weights carry log-space rounding of order nx*eps, so the raw sum can
    overshoot 1 by a few ulps; the result is clamped to [0, 1].
    """
    check_point(x)
    cfg = cfg or EvalConfig()
    if x == 0:
        return 1.0  # only v = 0 survives
    nx = params.n * x

    if v_max is not None:
        if v_max < 0:
            raise DomainError(f"v_max must be nonnegative, got {v_max}")
        parts = []
        v0, remaining = 0, v_max + 1
        while remaining > 0:
            count = min(remaining, _BLOCK_MAX)
            parts.append(math.fsum(_core.jain_weights(nx, params.beta, v0, count).tolist()))
            v0 += count
            remaining -= count
        return min(math.fsum(parts), 1.0)

    parts = []
    for v0, count in block_schedule(V_MAX):
        parts.append(math.fsum(_core.jain_weights(nx, params.beta, v0, count).tolist()))
        total = math.fsum(parts)
        if mass_saturated(total, parts[-1], cfg.tail_eps):
            return min(total, 1.0)
    raise ConvergenceError(
        f"basis mass did not reach 1 - {cfg.tail_eps} within v <= {V_MAX}"
    )


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


def _rising(v, j: int):
    """v (v+1) ... (v+j-1); empty product (1) for j = 0.  Vectorized in v."""
    out = np.ones_like(np.asarray(v, dtype=np.float64))
    for i in range(j):
        out = out * (v + i)
    return out


def kernel_moment_exact(params: OperatorParams, v: int, j: int) -> float:
    """Exact monomial kernel integral int t^j p(t) dt; needs n > (j+1)c."""
    if v < 1:
        raise DomainError(f"kernel index v must be >= 1, got {v}")
    if j < 0:
        raise DomainError(f"moment order must be nonnegative, got {j}")
    params.require_order(j)
    n, c = params.n, params.c
    denom = 1.0
    for i in range(1, j + 2):
        denom *= n - i * c
    return float(c * _rising(float(v), j) / denom)


def expectation_moments(params: OperatorParams, v, j: int) -> np.ndarray:
    """(n-c)/c times the monomial kernel integral: the Beta-expectation of t^j.

    Equals ``v(v+1)...(v+j-1) / ((n-2c)...(n-(j+1)c))``; vectorized over v.
    For j = 0 this is identically 1.
    """
    params.require_order(j)
    n, c = params.n, params.c
    denom = 1.0
    for i in range(2, j + 2):
        denom *= n - i * c
    return _rising(np.asarray(v, dtype=np.float64), j) / denom


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
    if f.bounded:
        scale = f.sup_bound
    else:
        em = float(expectation_moments(params, v, d))
        scale = f.m_bound * (1.0 + em)
    val, _ = _kernel_expectation(params, v, f.fn, cfg, scale)
    return c / (n - c) * val
