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
expectations E_v[f].  :func:`kernel_expectations` computes a whole array
of v at once by an embedded Gauss-Legendre pair: in s itself for v = 1..4,
in u = log(s/(1-s)) for larger v, each with an error estimate from the
pair, a truncation bound from the concavity of the log density and a
rounding bound.  A v whose estimate misses the tolerance falls back to
adaptive Gauss-Kronrod quadrature (QUADPACK) on the unit interval,
:func:`_kernel_expectation`, the only caller of ``quad``; scipy is
imported there, on the first fallback, so a process whose integrals all
pass a rule never loads it.  The monomial integrals have the exact
product form

    int t^j p(t) dt = c * v(v+1)...(v+j-1) / ((n-c)(n-2c)...(n-(j+1)c))

valid for n > (j+1)c.  All Gamma factors are taken through log-gamma
(:func:`_core.lgam`, gammaln's algorithm).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _core
from .errors import ConvergenceError, DomainError, IntegrabilityError
from .params import EvalConfig, OperatorParams, check_integer, check_point


# Largest index v accepted: every integer up to 2^53 is a float, and the
# float arithmetic of the weights and kernel rules holds no larger one.
_V_INDEX_MAX = 2**53


def jain_basis_log(params: OperatorParams, x: float, v: int) -> float:
    """log w_b(v, nx); -inf where the weight is exactly zero.

    At x = 0 only v = 0 carries weight (weight 1, by continuity); for x > 0
    n*x must be positive and finite in floats.
    """
    check_point(x)
    v = check_integer(v, "v", 0, _V_INDEX_MAX)
    if x == 0:
        return 0.0 if v == 0 else -math.inf
    nx = params.n * x
    check_point(nx, "n*x", zero_ok=False)
    return float(_core.jain_log_weights(nx, params.beta, v, 1)[0])


def baskakov_kernel_log(params: OperatorParams, v: int, t: float) -> float:
    """log p(t) for the order-v kernel (v >= 1), through log-gamma.

    Limits at t = 0: finite (log c) for v = 1, -inf for v >= 2.  Where c t
    leaves the normal range, log(ct) is taken as log c + log t; where n/c
    overflows, DomainError.
    """
    n, c = params.n, params.c
    v = check_integer(v, "v", 1, _V_INDEX_MAX)
    check_point(t, "t")
    params.require_order(0)
    nc = n / c
    if t == 0:
        return math.log(c) if v == 1 else -math.inf
    if nc == math.inf:
        raise DomainError(f"baskakov_kernel_log({v}, {t}) overflows at n={n}, c={c}, "
                          f"beta={params.beta}")
    lg = _core.lgam(nc + v - 1) - _core.lgam(v) - _core.lgam(nc)
    ct = c * t
    log_ct = math.log(ct) if 2.0**-1022 <= ct < math.inf else math.log(c) + math.log(t)
    # past the float range log1p(ct) = log(ct) + log1p(1/ct) is log(ct)
    log1p_ct = math.log1p(ct) if ct < math.inf else log_ct
    return float(math.log(c) + lg + (v - 1) * log_ct - (nc + v - 1) * log1p_ct)


def kernel_moment_exact(params: OperatorParams, v: int, j: int) -> float:
    """Exact monomial kernel integral int t^j p(t) dt; needs n > (j+1)c."""
    v = check_integer(v, "v", 1, _V_INDEX_MAX)
    j = check_integer(j, "moment order", 0)
    n, c = params.n, params.c
    return float(c / (n - c) * expectation_moments(params, v, j))


def expectation_moments(params: OperatorParams, v, j: int) -> np.ndarray:
    """(n-c)/c times the monomial kernel integral: the Beta-expectation of t^j.

    Equals ``v(v+1)...(v+j-1) / ((n-2c)...(n-(j+1)c))``; vectorized over v.
    For j = 0 this is identically 1.  Raises DomainError where the
    denominator underflows below the normal range (n = 1e-100, j = 4).
    """
    params.require_order(j)
    n, c = params.n, params.c
    v = np.asarray(v, dtype=np.float64)
    rising, denom = np.ones_like(v), 1.0
    for i in range(j):
        rising = rising * (v + i)
        denom *= n - (i + 2) * c
    if denom < 2.0**-1022:
        raise DomainError(f"kernel moment of t^{j} needs (n-2c)...(n-{j + 1}c) = {denom}, "
                          f"which underflows (n={n}, c={c})")
    return rising / denom


def require_integrable(params: OperatorParams, f) -> None:
    """Raise IntegrabilityError unless n > (d+1)c, d the growth degree of
    ``f``: the condition for its kernel integrals (and so for the hybrid and
    King operators on it) to be finite."""
    d = f.growth_degree
    if not (params.n > (d + 1) * params.c):
        raise IntegrabilityError(
            f"growth-degree-{d} functions need n > {d + 1}c "
            f"(n={params.n}, c={params.c})"
        )


def magnitude_bound(params: OperatorParams, f, v) -> np.ndarray:
    """A-priori bound on |E_v[f]|, elementwise over the integer(s) ``v``.

    From f's envelope (:class:`~jainbaskakov.functions.TestFunction`):
    ``m_bound`` for growth degree d = 0, else ``m_bound * (1 + E_v[t^d])``.
    """
    if not f.growth_degree:
        return np.full_like(v, f.m_bound, dtype=np.float64)
    return f.m_bound * (1.0 + expectation_moments(params, v, f.growth_degree))


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call: QUADPACK serves
    only the fallback :func:`_kernel_expectation`, so a process whose kernel
    integrals all pass a rule never loads scipy."""
    from scipy.integrate import quad as quadpack

    return quadpack(*args, **kwargs)


def _kernel_expectation(params, v, fn, cfg, scale):
    """E[f(t(S))] with S ~ Beta(v, n/c - 1), by adaptive quadrature.

    ``scale`` is an a-priori magnitude bound for the expectation, used to set
    the absolute tolerance (_MAG_FLOOR of it) so that near-zero integrals
    terminate.  QUADPACK may split [0, 1] into at most _QUAD_LIMIT
    subintervals; an integral it cannot bring within tolerance, having used
    them up or having detected roundoff first, raises ConvergenceError.
    Returns (value, error_estimate).
    """
    from scipy.special import betaln

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
        density = exp_s(lp)
        if density == 0.0:  # f need not be finite where the density underflows
            return 0.0
        return density * float(fn(s / (c * (1.0 - s))))

    pts = []
    if v + big > 2.0:
        mode = (v - 1.0) / (v + big - 2.0)
        if 0.0 < mode < 1.0:
            pts.append(mode)
    mean = v / (v + big)
    if 0.0 < mean < 1.0:
        pts.append(mean)

    pts = sorted(set(pts))
    epsabs = cfg.quad_rel_tol * max(scale, 1e-300) * _MAG_FLOOR
    val, err, info, *tail = quad(
        integrand,
        0.0,
        1.0,
        points=pts or None,
        epsabs=epsabs,
        epsrel=cfg.quad_rel_tol,
        limit=_QUAD_LIMIT,
        full_output=1,
    )
    ok = err <= max(epsabs, cfg.quad_rel_tol * abs(val)) * 10.0
    if tail and not ok:  # tail non-empty means QUADPACK reported a failure
        raise ConvergenceError(
            f"kernel integral (v={v}) did not converge ({info['last']} of "
            f"{_QUAD_LIMIT} subintervals used): est. error {err:.3e} for value {val:.6e}"
        )
    return val, err


# The embedded pair of Gauss-Legendre rules in the logit variable: K and 2K
# nodes, evaluated together (3K integrand values per v).
_GL_K = 64
# v per vectorised chunk: each (chunk x 3K) float temporary is 48 KB.  The
# sums over the nodes go through einsum, not BLAS, whose buffers would add
# about 0.4 MB to the peak resident memory.  A table fills whole chunks
# aligned to multiples of it (operators._IntegralTable.get), as a rule
# call's cost is mostly fixed: 0.45 ms for 32 v against 0.2 ms for one, on
# a 2-core Xeon.
_GL_CHUNK = 32
# v up to this are integrated in s by _gauss_legendre_s: in u their left
# tail decays only like e^(v u), too slowly for the logit window.
_S_RULE_V = 4
# QUADPACK's error estimate is not a bound: on the integrands near the
# integrability threshold, singular at s = 1, it fell short of the actual
# error by up to 2.4x (n = (d + 1.3)c, checked against mpmath), so a
# fallback value reports this multiple of it.
_QUAD_SAFETY = 10.0
# QUADPACK's subinterval budget per fallback integral (21 integrand values
# each); the benchmark workloads use at most 8.  Where sin used it up, a
# larger one only moved the failure to a larger v at a growing cost (n = 16,
# c = 2, beta = 0.9: v = 211 at 100, v = 689 at 300).
_QUAD_LIMIT = 100
# A kernel integral is accurate enough once its error is within quad_rel_tol
# of its value or of this fraction of the a-priori bound on its magnitude,
# so that integrals near zero need no relative accuracy.
_MAG_FLOOR = 1e-2
# Machine epsilon, twice the unit roundoff.
_EPS = float(np.finfo(np.float64).eps)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _legendre(m):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on the three-term recurrence of P_m from the
    Chebyshev-like first guesses (Press et al., Numerical Recipes, 4.6)."""
    x = np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(8):
        p0, p1 = np.ones_like(x), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@functools.cache
def _gl_rule():
    """Nodes on [-1, 1] of the K- and the 2K-point rule side by side, and a
    (3K, 2) matrix whose columns weight them (zero on the other rule's
    nodes).  Built on first use, not at import; shared, so read-only."""
    x1, w1 = _legendre(_GL_K)
    x2, w2 = _legendre(2 * _GL_K)
    nodes = np.concatenate((x1, x2))
    weights = np.zeros((3 * _GL_K, 2))
    weights[:_GL_K, 0] = w1
    weights[_GL_K:, 1] = w2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# Coefficients B_2k / (2k (2k-1)) of Stirling's series for log Gamma, k = 1..8.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _stirling_rest(x):
    """log Gamma(x) less its Stirling part (x - 1/2) log x - x + log(2 pi)/2:
    by eight terms of the asymptotic series for x >= 8 (truncation error below
    1e-16), and from :func:`_core.lgam` below 8, where both parts are below
    10."""
    x = np.asarray(x, dtype=np.float64)
    small = x < 8.0
    xs = np.where(small, 8.0, x)
    # capped where xs * xs would overflow: past 1e150, r2 is far below the
    # rounding of the leading 1/12
    xc = np.minimum(xs, 1e150)
    r2 = 1.0 / (xc * xc)
    series = np.zeros_like(xs)
    for coef in reversed(_STIRLING):
        series = series * r2 + coef
    out = series / xs
    xd = x[small]
    out[small] = _core.log_gamma(xd) - ((xd - 0.5) * np.log(xd) - xd + _HALF_LOG_2PI)
    return out


def _expit(x):
    """scipy's expit, 1/(1 + e^-x), over a 1-d array with libm's exp, so
    with its bits; 0 where e^-x overflows."""
    out = []
    for y in x.tolist():
        try:
            out.append(1.0 / (1.0 + math.exp(-y)))
        except OverflowError:
            out.append(0.0)
    return np.array(out)


def _log_peak(v, big):
    """log of the Beta(v, big) density in u = log(s/(1-s)) at its mode
    log(v/big): v log s0 + big log(1-s0) - log Beta(v, big), s0 = v/(v+big).
    Its terms of size v log v cancel analytically through Stirling's
    formula; ``betaln`` would leave eps * v log v of them (1e-11 at
    v = 5000)."""
    rest_v, rest_vb, rest_b = _stirling_rest(np.stack(np.broadcast_arrays(v, v + big, big)))
    return -0.5 * np.log(2.0 * math.pi * (1.0 / v + 1.0 / big)) - rest_v - rest_b + rest_vb


def _log1pmx(y):
    """log1p(y) - y, without the cancellation at small |y|: below 1/4 from
    log1p(y) = 2 atanh(z), z = y/(2+y), as -y^2/(2+y) + 2 (z^3/3 + ... +
    z^19/19) (truncation below 1e-18 of the value)."""
    out = np.asarray(np.log1p(y) - y)
    near = np.abs(y) < 0.25
    ys = np.asarray(y)[near]
    z = ys / (2.0 + ys)
    w = z * z
    series = np.full_like(w, 1.0 / 19)
    for k in range(17, 2, -2):
        series *= w
        series += 1.0 / k
    out[near] = -ys * ys / (2.0 + ys) + 2.0 * z * w * series
    return out


def _expm1px(a):
    """expm1(-a) + a for a >= 0, without the cancellation at small a: below
    1/4 by its Taylor series to a^13 (truncation below 1e-17 of the value)."""
    out = np.asarray(np.expm1(-a) + a)
    near = a < 0.25
    as_ = np.asarray(a)[near]
    series = np.full_like(as_, 1.0 / math.factorial(13))
    for k in range(12, 1, -1):
        series *= -as_
        series += 1.0 / math.factorial(k)
    out[near] = as_ * as_ * series
    return out


def _log_step(delta, v, big):
    """phi(u0 + delta) - phi(u0) for the log density phi of Beta(v, big) in u
    and its mode u0, and the size of its two terms (for the rounding bound).

    phi(u) = -v log(1+e^-u) - big log(1+e^u) + const.  Right of the mode
    the first log changes by log1p(q x), x = expm1(-delta), q = big/(v+big),
    and the second by delta more; left of it the second changes by
    log1p(q x), x = expm1(delta), q = v/(v+big), and the first by -delta
    more.  With r = (v+big) q that is
    phi(u0 + delta) - phi(u0) = -(v+big) (log1p(q x) - q x) - r (x + |delta|),
    two terms of second order in delta, so near the mode, where the mass
    is, they are small and so is their rounding.
    """
    r = np.where(delta >= 0.0, big, v)
    a = np.abs(delta)
    curve = -(v + big) * _log1pmx(r / (v + big) * np.expm1(-a))
    bend = r * _expm1px(a)
    return curve - bend, curve + bend


def _rule_setup(params, f, cfg):
    """(c, B = n/c - 1, d, M, M c^-d, drop) for a rule: f's envelope
    |f| <= M (1 + t^d) with t^d = (ct)^d c^-d (|f| <= M, with no t^d part,
    for d = 0), and the drop of the log density from its peak to the
    window's edges."""
    c, d, env = params.c, f.growth_degree, f.m_bound
    env_d = env * c ** -d if d else 0.0
    return c, params.n / c - 1.0, d, env, env_d, math.log(1.0 / cfg.quad_rel_tol) + 10.0


def _gauss_legendre(params, f, v, cfg):
    """E_v[f] for the float array ``v`` by the embedded Gauss-Legendre pair in
    u = log(s/(1-s)); returns (values, error estimates).

    In u the Beta(v, B) law (B = n/c - 1) has the log density
    phi(u) = -v log(1+e^-u) - B log(1+e^u) - log Beta(v, B), concave with
    its mode at u0 = log(v/B) and tails decaying like e^(v u) on the left
    and e^(-B u) on the right; and t = e^u / c.  The window runs from u0,
    less a Gaussian width and the distance at rate v, to the mode of
    phi + d u (d the growth degree), plus the same at rate B - d.  phi is
    evaluated as its value at u0 plus the step from u0 (:func:`_log_peak`,
    :func:`_log_step`), which keeps its rounding at eps times terms of the
    size of the step rather than of v log v; the nodes and the window's
    two edges take one pass of :func:`_log_step`.

    The error estimate is |Q_2K - Q_K|, plus the mass of the envelope
    |f| <= M (1 + t^d) (|f| <= M for d = 0) beyond the window --
    phi and phi + d u are concave, so each tail is at most e^phi / |phi'| at
    the window's edge -- plus a bound on the rounding of phi and of the sum.
    """
    c, big, d, env, env_d, drop = _rule_setup(params, f, cfg)
    spread = math.sqrt(2.0 * drop)
    u0 = np.log(v / big)
    left = -spread * np.sqrt(1.0 / v + 1.0 / big) - drop / v
    right = (np.log1p(d / v) - np.log1p(-d / big)
             + spread * np.sqrt(1.0 / (v + d) + 1.0 / (big - d)) + drop / (big - d))
    half = 0.5 * (right - left)
    peak = _log_peak(v, big)
    nodes, weights = _gl_rule()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the nodes' offsets from the mode, then the window's two edges: one
        # pass of the log density for all of them
        delta = np.column_stack((0.5 * (right + left)[:, None] + half[:, None] * nodes,
                                 left, right))
        step, size = _log_step(delta, v[:, None], big)
        u = u0[:, None] + delta[:, :-2]
        g = np.exp(peak[:, None] + step[:, :-2]) * np.asarray(f.fn(np.exp(u) / c),
                                                               dtype=np.float64)
        q = half[:, None] * np.einsum("ij,jk->ik", g, weights)
        node_size = size[:, :-2] + (np.abs(peak)[:, None] + (d + 1) * np.abs(u) + _GL_K)
        rounding = 2.0 * _EPS * half * np.einsum("ij,j->i", np.abs(g) * node_size, weights[:, 1])
        tails = np.zeros_like(v)
        for col, edge, sign in ((-2, left, 1.0), (-1, right, -1.0)):
            phi_e = peak + step[:, col]
            slope = sign * (v - (v + big) * _expit(u0 + edge))
            tails += env * np.exp(phi_e) / slope
            if env_d:
                tails += env_d * np.exp(phi_e + d * (u0 + edge)) / (slope + sign * d)
    return q[:, 1], np.abs(q[:, 1] - q[:, 0]) + tails + rounding


def _gauss_legendre_s(params, f, v, cfg):
    """E_v[f] for the float array ``v`` of integers 1 .. _S_RULE_V by the
    embedded Gauss-Legendre pair in s itself, on [0, s_R]; returns (values,
    error estimates).

    The Beta(v, B) density s^(v-1) (1-s)^(B-1) / Beta(v, B) is smooth at
    s = 0, with log Beta(v, B) = log (v-1)! - sum_{i<v} log(B+i): exact for
    integer v, with no gamma function, and finite for every B in the float
    range.  The envelope density s^a (1-s)^b, a = v-1+d, b = B-1-d (d the
    growth degree), is about the Gamma(a+1) law of b w, w = -log(1-s); the
    window ends at w = (a + z)/b, z a Gaussian width sqrt(2 drop (a+1)) plus
    the drop itself, past the mode a/b by more than the law needs to fall
    by the drop.  Where b > 0 the density and the envelope are both
    log-concave in s, so each tail beyond s_R is at most e^psi / |psi'|
    there, psi their log; otherwise s_R = 1 and there is no tail.

    The error estimate is |Q_2K - Q_K|, plus those tails of the envelope
    |f| <= M (1 + t^d) (|f| <= M for d = 0), plus a bound on the
    rounding of the log density, of t and of the sum, sized as in
    :func:`_gauss_legendre`.
    """
    c, big, d, env, env_d, drop = _rule_setup(params, f, cfg)
    lbeta, lbeta_size = np.empty_like(v), np.empty_like(v)
    for i, k in enumerate(v.astype(int).tolist()):
        log_fact, logs = math.log(math.factorial(k - 1)), [math.log(big + j) for j in range(k)]
        lbeta[i] = log_fact - sum(logs)
        lbeta_size[i] = log_fact + sum(map(abs, logs))
    a, b = v - 1.0 + d, big - 1.0 - d
    reach = a + math.sqrt(2.0 * drop) * np.sqrt(a + 1.0) + drop
    s_right = -np.expm1(-reach / b) if b > 0.0 else np.ones_like(v)
    half = 0.5 * s_right
    nodes, weights = _gl_rule()
    vm1 = (v - 1.0)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = half[:, None] * (1.0 + nodes)
        rest = 1.0 - s
        log_s, log_rest = np.log(s), np.log1p(-s)
        t = s / (c * rest)
        g = (np.exp(vm1 * log_s + (big - 1.0) * log_rest - lbeta[:, None])
             * np.asarray(f.fn(t), dtype=np.float64))
        q = half[:, None] * np.einsum("ij,jk->ik", g, weights)
        # s and 1 - s carry a relative rounding of eps and eps s/(1-s)
        odds = s / rest
        node_size = (vm1 * (np.abs(log_s) + 1.0) + abs(big - 1.0) * (np.abs(log_rest) + odds)
                     + lbeta_size[:, None] + (d + 1) * (np.abs(np.log(t)) + odds + 2.0) + _GL_K)
        rounding = 2.0 * _EPS * half * np.einsum("ij,j->i", np.abs(g) * node_size, weights[:, 1])
        tails = np.zeros_like(v)
        if b > 0.0:
            phi_r = (v - 1.0) * np.log(s_right) + (big - 1.0) * np.log1p(-s_right) - lbeta
            slope = (v - 1.0) / s_right - (big - 1.0) / (1.0 - s_right)
            tails += env * np.exp(phi_r) / -slope
            if env_d:
                bend = d / (s_right * (1.0 - s_right))
                tails += env_d * np.exp(phi_r + d * np.log(s_right / (1.0 - s_right))) / -(
                    slope + bend)
            tails[s_right == 1.0] = 0.0  # the window is all of [0, 1] there
    return q[:, 1], np.abs(q[:, 1] - q[:, 0]) + tails + rounding


def kernel_expectations(params, f, v, cfg, mag, needed=None):
    """(E_v[f], error estimates) for the sorted integer array ``v`` >= 1.

    ``mag`` holds a-priori bounds on |E_v[f]|.  Each v up to _S_RULE_V is
    tried with the Gauss-Legendre pair in s, :func:`_gauss_legendre_s`, and
    each larger v with the pair in u, :func:`_gauss_legendre`, in chunks of
    _GL_CHUNK.  A v whose estimate misses max(quad_rel_tol |value|, _MAG_FLOOR
    quad_rel_tol mag) -- a kink, an oscillation the nodes cannot resolve, a
    slowly decaying tail -- is computed by :func:`_kernel_expectation`
    instead, with its ConvergenceError.  Such a value reports _QUAD_SAFETY
    times QUADPACK's estimate plus the rounding of its ``betaln`` (which
    QUADPACK cannot see: it scales the integrand).

    ``needed`` (a boolean mask over ``v``; every v by default) marks the v
    that must be answered.  A v not needed whose rule estimate misses the
    tolerance is not sent to QUADPACK: it is returned with an infinite error
    estimate.  An integral table passes every unfilled v of the aligned
    _GL_CHUNK chunks that hold the v a block asks for, marks those as
    needed, and stores the others only where their error is finite; so
    QUADPACK runs, and may raise, for the same v as if the table passed
    only the v asked for.  A rule row depends on no other v of its chunk, so
    a v computed along with others gets the same bits as alone.
    """
    values = np.empty(len(v))
    errors = np.empty(len(v))
    vf = np.asarray(v, dtype=np.float64)
    small = int(np.searchsorted(vf, _S_RULE_V, side="right"))
    if small:
        values[:small], errors[:small] = _gauss_legendre_s(params, f, vf[:small], cfg)
    for lo in range(small, len(v), _GL_CHUNK):
        part = slice(lo, lo + _GL_CHUNK)
        values[part], errors[part] = _gauss_legendre(params, f, vf[part], cfg)
    redo = ~(errors <= cfg.quad_rel_tol * np.maximum(np.abs(values), _MAG_FLOOR * mag))
    if needed is not None:
        errors[redo & ~needed] = np.inf
        redo &= needed
    big = params.n / params.c - 1.0
    for i in np.flatnonzero(redo).tolist():
        vi = int(v[i])
        values[i], err = _kernel_expectation(params, vi, f.fn, cfg, float(mag[i]))
        lgam = abs(_core.lgam(vi)) + abs(_core.lgam(big)) + abs(_core.lgam(vi + big))
        errors[i] = _QUAD_SAFETY * err + 4.0 * _EPS * lgam * abs(values[i])
    return values, errors


def kernel_integral(
    params: OperatorParams,
    v: int,
    f,
    cfg: EvalConfig | None = None,
) -> float:
    """int_0^inf p(t) f(t) dt via the s = ct/(1+ct) substitution.

    ``f`` is a TestFunction (its growth degree gates integrability:
    n > (growth_degree+1)c is required).  Computed by the same rule as the
    operators' integral tables (:func:`kernel_expectations`).
    """
    cfg = cfg or EvalConfig()
    v = check_integer(v, "v", 1, _V_INDEX_MAX)
    require_integrable(params, f)
    vs = np.array([v])
    val, _ = kernel_expectations(params, f, vs, cfg, magnitude_bound(params, f, vs))
    return params.c / (params.n - params.c) * float(val[0])
