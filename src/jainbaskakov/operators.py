"""Evaluation of the Jain, Jain-Baskakov and King-type operators.

All three are positive linear operators built on the same generalized-Poisson
basis in v:

* Jain:            sum_v w(v, nx) f(v/n)
* Jain-Baskakov:   sum_{v>=1} w(v, nx) E_v[f] + e^{-nx} f(0),
  where E_v[f] is the Beta-expectation form of the kernel integral
  (the (n-c)/c prefactor and the kernel mass c/(n-c) cancel);
* King-type:       the Jain-Baskakov sum with the basis argument moved to
  r_n(x) = (n-2c)(1-beta)x/n (kernel integrals unchanged), which restores
  exact reproduction of constants and of the identity.

The v-series is summed in blocks of v (:func:`block_schedule`), each
block as numpy arrays with one exactly rounded ``math.fsum``.  Summation
stops only once a certified bound on the remaining terms drops below
``tail_eps * (1 + |value|) * gcf`` *and* the accumulated basis mass passes
:func:`mass_saturated`.

The bound is a geometric majorant of sum_{v>V} w(v) mbound(v), V the last
index of the block and mbound the a-priori bound on |f(v/n)| or |E_v[f]|.
The weight ratio is

    w(v+1)/w(v) = (m/(v+1)) (1 + beta/m)^v e^-beta,   m = nx + v beta,

at most rho(v) = (m/(v+1)) exp(v beta/m - beta), as 1 + y <= e^y.  The
derivative of log rho has the sign of 2 beta nx + v beta^2 - nx^2, which
is linear and rising in v, so rho falls and then rises towards its limit
beta e^(1-beta) (for beta = 0 it is nx/(v+1), falling to 0): its supremum
over v >= V is max(rho(V), beta e^(1-beta)).  Both magnitude bounds grow
by at most (1 + 1/v)^d per step, d the growth degree: M(1 + (v/n)^d) for
Jain, and M(1 + E_v[t^d]) for the hybrid and King operators, whose
E_v[t^d] steps by (v+d)/v.  So with
q = max(rho(V), beta e^(1-beta)) (1 + 1/V)^d every later term is at most q
times the one before, and for q < 1 the tail is at most
w(V) mbound(V) q/(1-q) (inf otherwise), with q rounded up and w(V)
inflated by the log-space rounding of its computed value.  The rounding
of the summed weights themselves is not in the bound.

The mass is only needed for that decision,
so it is kept as a running total of plain ``np.sum`` block sums.
:func:`basis_mass` is the same series for f = 1 with zero magnitude bounds,
which it stops on the mass rule alone.

Kernel integrals are cached per (n, c, f) since they depend on neither beta
nor x; grid and parameter sweeps reuse them heavily.  A table holds E_v[f],
its error estimate and the a-priori bound on |E_v[f]| in arrays indexed by
v and answers a whole block of v in one lookup.  The v a block finds
missing are computed in one call of :func:`kernels.kernel_expectations`:
a vectorised Gauss-Legendre rule in the logit variable, whose reported
error is its K/2K difference plus a truncation and a rounding bound, with
QUADPACK for each v where that estimate misses ``quad_rel_tol``.  The cache
keeps at most CACHE_TABLES tables, dropping the least recently used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _core
from .errors import ConvergenceError, ThresholdError
from .functions import TestFunction, get_function
from .kernels import _EPS, kernel_expectations, magnitude_bound, require_integrable
from .moments import d_moment_exact, jain_moment, king_transform
from .params import EvalConfig, OperatorKind, OperatorParams, check_point

# Per-term skip threshold factor: a term whose a-priori bound is below
# tail_eps * 2^-26 * (scale) is dropped without computing its integral; the
# dropped mass is tracked and folded into the reported tail bound.
_SKIP_FACTOR = 2.0**-26


@dataclass(frozen=True)
class EvalResult:
    """One operator evaluation with accuracy accounting."""

    x: float
    value: float
    v_terms_used: int
    est_tail_bound: float
    quad_error_est: float


class _IntegralTable:
    """Cached Beta-expectations E_v[f] for one (params, f, quad-config).

    Arrays indexed by v hold E_v[f], its quadrature error estimate, the
    a-priori bound ``mag`` on |E_v[f]| and a mask of the entries computed so
    far; they grow on demand.  v = 0 is the point-mass atom at t = 0, preset
    to f(0) with no error.
    """

    def __init__(self, params: OperatorParams, f: TestFunction, cfg: EvalConfig):
        self.params = params
        self.f = f
        self.cfg = cfg
        self._values = np.array([float(f.fn(0.0))])
        self._errors = np.zeros(1)
        self._filled = np.ones(1, dtype=bool)
        self._mag = magnitude_bound(params, f, np.arange(1))

    def _reserve(self, size: int) -> None:
        old = len(self._filled)
        if size <= old:
            return
        size = max(size, 2 * old)
        grow = size - old
        self._values = np.concatenate((self._values, np.zeros(grow)))
        self._errors = np.concatenate((self._errors, np.zeros(grow)))
        self._filled = np.concatenate((self._filled, np.zeros(grow, dtype=bool)))
        self._mag = np.concatenate(
            (self._mag, magnitude_bound(self.params, self.f, np.arange(old, size)))
        )

    def mag(self, v0: int, count: int) -> np.ndarray:
        """Bounds on |E_v[f]| for v = v0 .. v0+count-1 (a view; do not write)."""
        self._reserve(v0 + count)
        return self._mag[v0 : v0 + count]

    def get(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(E_v[f], error estimates) for the integer array ``v``.

        Entries not yet in the table are computed first, all in one call
        of :func:`kernels.kernel_expectations`.
        """
        self._reserve(int(v.max(initial=0)) + 1)
        missing = v[~self._filled[v]]
        if missing.size:
            new = np.unique(missing)
            self._values[new], self._errors[new] = kernel_expectations(
                self.params, self.f, new, self.cfg, self._mag[new]
            )
            self._filled[new] = True
        return self._values[v], self._errors[v]

    def __len__(self):
        """Kernel integrals held (the preset atom at v = 0 not counted)."""
        return int(np.count_nonzero(self._filled)) - 1


# Tables a cache keeps; beyond this the least recently used one is dropped.
CACHE_TABLES = 64


class KernelIntegralCache:
    """Process-wide table cache, bounded at CACHE_TABLES tables.

    ``_tables`` is kept in order of use, least recent first.  Each
    evaluation asks for its table once and holds it for its whole series, so
    eviction never takes a table from a running series, and a sweep that
    keeps using one table keeps it however many others pass through.

    Tables grow in place and are not safe to fill from several threads at
    once.
    """

    def __init__(self):
        self._tables: dict[tuple, _IntegralTable] = {}

    def table(self, params: OperatorParams, f: TestFunction, cfg: EvalConfig) -> _IntegralTable:
        key = (params.n, params.c, cfg.quad_key(), f.name, id(f))
        tab = self._tables.pop(key, None)
        if tab is None:
            tab = _IntegralTable(params, f, cfg)
            if len(self._tables) >= CACHE_TABLES:
                del self._tables[next(iter(self._tables))]
        self._tables[key] = tab
        return tab

    def clear(self):
        self._tables.clear()


DEFAULT_CACHE = KernelIntegralCache()


# Hard cap on the adaptive v-series; beyond this we fail loudly rather than
# silently truncate a heavy-tail case (beta near 1).
V_MAX = 10**6

# Every v-series sums the same blocks: 256 terms, doubling up to 8192.
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
    """
    return (1.0 - mass) <= tail_eps or (mass >= 0.5 and last <= 2e-16 * (1.0 + mass))


def _ratio_sup(nx, beta, v, d):
    """An upper bound, rounded up, on the term ratio b(u+1)/b(u) over u >= v.

    b(u) = w(u) mbound(u) with mbound growing by at most (1 + 1/u)^d per
    step; the weight ratio is bounded as in the module docstring.
    """
    m = nx + v * beta
    log_ratio = math.log(m / (v + 1.0)) + v * beta / m - beta  # log rho(v)
    if beta > 0.0:
        log_ratio = max(log_ratio, math.log(beta) + 1.0 - beta)  # its limit
    # log_ratio is computed to within 16 eps (1 + |log_ratio|) of its value
    return math.exp(log_ratio + d * math.log1p(1.0 / v) + 16.0 * _EPS * (1.0 + abs(log_ratio)))


def _tail_bound(nx, beta, v, w_last, mb_last, d):
    """Certified bound on sum_{u>v} w(u) mbound(u) from w(v) and mbound(v).

    With q = :func:`_ratio_sup` the tail is at most w(v) mbound(v) q/(1-q),
    or inf when q is not below 1.  The computed w(v) is inflated by the
    rounding of its log-space evaluation, and by the least subnormal in
    case exp rounded it below the normal range.
    """
    q = _ratio_sup(nx, beta, v, d)
    if q >= 1.0:
        return math.inf
    # the computed log w(v) is within a few eps of the sizes of its terms,
    # mbound and the products here within d + 4 roundings: 8 eps of both is
    # about twice that
    m = nx + v * beta
    rounding = 8.0 * _EPS * (abs(math.log(nx)) + v * (1.0 + abs(math.log(m))) + m
                             + math.lgamma(v + 1.0) + d + 4.0)
    scale = mb_last * math.exp(rounding) * q / (1.0 - q)
    # one step up covers the rounding of the last product, subnormal or not
    return math.nextafter((w_last + 2.0**-1074) * scale, math.inf)


def _series_eval(params, basis_x, provider, f, hybrid, cfg, x_report):
    """Adaptive blockwise summation over the basis index v.

    ``provider(v0, w, running_value, gcf)``, gcf the threshold scale of
    :func:`_growth_correction`, returns per-block (values, magnitude_bounds,
    skipped_tail_increment, quad_error_increment); the magnitude bounds grow
    by at most (1 + 1/v)^d from v to v + 1, d the growth degree of ``f``.
    After each block, terms past its last index V are bounded by
    :func:`_tail_bound`: every weight ratio past V is at most the larger of
    rho(V) = (m/(V+1)) exp(V beta/m - beta) and its limit beta e^(1-beta)
    (log rho is quasi-convex in v; module docstring), so with the growth
    factor (1 + 1/V)^d the tail is a geometric series.

    A law whose mean nx/(1 - beta) is not below V_MAX (or is not finite)
    keeps about half its mass past the cap, more than any useful tail_eps
    allows, so it raises before summing, and before the growth correction,
    whose moment can overflow at such points.
    """
    nx = params.n * basis_x
    beta = params.beta
    if not nx / (1.0 - beta) < V_MAX:
        raise _cap_error(beta, nx)
    gcf = _growth_correction(params, f, basis_x, hybrid)
    val_run = 0.0
    val_parts: list[float] = []
    qerr_parts: list[float] = []
    skipped = 0.0
    mass = 0.0

    for v0, block in block_schedule(V_MAX):
        w = _core.jain_weights(nx, beta, v0, block)
        vals, mbound, sk_inc, qerr_inc = provider(v0, w, val_run, gcf)
        last = float(np.sum(w))
        mass += last
        val_parts.append(math.fsum((w * vals).tolist()))
        val_run += val_parts[-1]
        qerr_parts.append(qerr_inc)
        skipped += sk_inc

        if w[-1] * mbound[-1] == 0.0:
            tail_geo = 0.0
        else:
            tail_geo = _tail_bound(nx, beta, v0 + block - 1, float(w[-1]),
                                   float(mbound[-1]), f.growth_degree)
        tail_est = tail_geo + skipped

        if tail_est <= cfg.tail_eps * (1.0 + abs(val_run)) * gcf and mass_saturated(
            mass, last, cfg.tail_eps
        ):
            return EvalResult(
                x=x_report,
                value=math.fsum(val_parts),
                v_terms_used=v0 + block,
                est_tail_bound=tail_est,
                quad_error_est=math.fsum(qerr_parts),
            )
    raise _cap_error(beta, nx)


def _cap_error(beta, nx):
    return ConvergenceError(
        f"v-series did not satisfy the tail criterion within v <= {V_MAX} "
        f"(beta={beta}, n*x={nx})"
    )


def _growth_correction(params, f, basis_x, hybrid: bool) -> float:
    """Scale factor for the stopping threshold: the operator's own moment of
    f's growth degree (1 for bounded f below unit sup)."""
    if f.bounded:
        return max(1.0, f.sup_bound)
    d = f.growth_degree
    mom = d_moment_exact(params, d, basis_x) if hybrid else jain_moment(params, d, basis_x)
    return 1.0 + abs(mom)


def _unit_provider(v0, w, _val_run, _gcf):
    # f = 1 (e0) with zero magnitude bounds: the geometric tail is 0, so
    # the series stops on the mass rule alone
    return np.ones_like(w), np.zeros_like(w), 0.0, 0.0


def basis_mass(params: OperatorParams, x: float, cfg: EvalConfig | None = None) -> float:
    """Total basis mass sum_v w_b(v, nx): the v-series of f = 1.

    It stops once the unaccounted mass drops below ``cfg.tail_eps`` (or the
    float sum saturates).  Summation is blockwise-``fsum`` exact, but the
    individual weights carry log-space rounding of order nx*eps, so the raw
    sum can overshoot 1 by a few ulps; the result is clamped to [0, 1].
    """
    check_point(x)
    cfg = cfg or EvalConfig()
    if x == 0:
        return 1.0  # only v = 0 survives
    res = _series_eval(params, x, _unit_provider, get_function("e0"), False, cfg, x)
    return min(res.value, 1.0)


def _atom_result(x, f):
    return EvalResult(
        x=x, value=float(f.fn(0.0)), v_terms_used=1, est_tail_bound=0.0, quad_error_est=0.0
    )


def eval_jain(
    params: OperatorParams,
    f: TestFunction,
    x: float,
    cfg: Optional[EvalConfig] = None,
) -> EvalResult:
    """Jain operator value sum_v w(v, nx) f(v/n); exactly f(0) at x = 0."""
    cfg = cfg or EvalConfig()
    check_point(x)
    if x == 0:
        return _atom_result(x, f)

    n = params.n
    d = f.growth_degree

    def provider(v0, w, _val_run, _gcf):
        t = np.arange(v0, v0 + len(w), dtype=np.float64) / n
        vals = np.asarray(f.fn(t), dtype=np.float64)
        mbound = np.full_like(w, f.sup_bound) if f.bounded else f.m_bound * (1.0 + t**d)
        return vals, mbound, 0.0, 0.0

    return _series_eval(params, x, provider, f, False, cfg, x_report=x)


def _eval_hybrid(params, f, x, basis_x, cfg):
    require_integrable(params, f)
    if basis_x == 0:
        return _atom_result(x, f)
    table = DEFAULT_CACHE.table(params, f, cfg)

    def provider(v0, w, val_run, gcf):
        v_arr = np.arange(v0, v0 + len(w))
        mbound = table.mag(v0, len(w))
        cutoff = cfg.tail_eps * _SKIP_FACTOR * gcf * (1.0 + abs(val_run))
        contrib_bound = w * mbound
        keep = (contrib_bound > cutoff) | (v_arr == 0)
        sk = float(np.sum(contrib_bound[~keep]))
        vals = np.zeros_like(w)
        values, errors = table.get(v_arr[keep])
        vals[keep] = values
        return vals, mbound, sk, math.fsum((w[keep] * errors).tolist())

    return _series_eval(params, basis_x, provider, f, True, cfg, x_report=x)


def eval_jain_baskakov(
    params: OperatorParams,
    f: TestFunction,
    x: float,
    cfg: Optional[EvalConfig] = None,
) -> EvalResult:
    """Jain-Baskakov operator value; exactly f(0) at x = 0."""
    cfg = cfg or EvalConfig()
    check_point(x)
    return _eval_hybrid(params, f, x, x, cfg)


def eval_king(
    params: OperatorParams,
    f: TestFunction,
    x: float,
    cfg: Optional[EvalConfig] = None,
) -> EvalResult:
    """King-type operator value: the hybrid sum with basis point r_n(x)."""
    cfg = cfg or EvalConfig()
    check_point(x)
    if not (params.n > 3 * params.c):
        raise ThresholdError(
            f"king operator needs n > 3c (n={params.n}, c={params.c})"
        )
    r = king_transform(params, x)
    return _eval_hybrid(params, f, x, r, cfg)


def eval_operator(
    kind: OperatorKind,
    params: OperatorParams,
    f: TestFunction,
    x: float,
    cfg: Optional[EvalConfig] = None,
) -> EvalResult:
    kind = OperatorKind(kind)
    if kind is OperatorKind.JAIN:
        return eval_jain(params, f, x, cfg)
    if kind is OperatorKind.JAIN_BASKAKOV:
        return eval_jain_baskakov(params, f, x, cfg)
    return eval_king(params, f, x, cfg)

