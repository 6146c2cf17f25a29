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

The v-series is summed over a window of v in blocks of one length, each
block as numpy arrays with one pairwise ``np.add.reduce``.  The window
starts at v_lo >= 0 (:func:`_plans`) and its first block runs to
about mean + k spread of the law, mean nx/(1-beta) and spread
sqrt(nx)/(1-beta)^1.5, k = sqrt(-2 log(tail_eps 2^-26)).  Summation stops
once a certified bound on the terms left out on both sides is at most
``tail_eps * gcf``, gcf the threshold scale of :func:`_growth_correction`:
one budget, on one scale, that does not depend on the value summed so far.
``v_terms_used`` counts the v of the sum's blocks, from its first point
to the last block's last, on the law's lattice; at step 1 that includes the
v the hybrid skip rule leaves out (below), whose bounds join
``est_tail_bound``.

A law whose window starts at v = 0 is summed at every v, its first block
never shorter than ``_BLOCK_START`` nor longer than ``_BLOCK_MAX`` and every
later block as long as the first.  (Longer blocks measured slower per
term.)  An interior law (v_lo > 0) is smooth and bell-shaped in v, so a
trapezoid sum of step h errs by only about e^(-2 pi^2 (spread/h)^2)
(Poisson summation; Trefethen & Weideman, SIAM Review 56, 2014, sec. 5).
With h the largest power of two <= min(spread/2, 2n) (:func:`_plans`),
the series sums g = h/2 times the terms at the multiples of g from the
first one >= v_lo, so that nearby x share their lattice points (and kernel
integrals), and forms the step-h sum from every other point, the multiples
of h: about 2k spread/g points a law, 76 to 152 where the cap at 2n does
not bind.  The step-h sum's error is the sum of the summand's Fourier
transform at the frequencies 2 pi j/h in v, j != 0; at even j these are
the step-g sum's own aliases, 2 pi j/g, so the difference S_h - S_g holds
only the odd ones.  For a bell-shaped summand the odd ones, the lowest
first, far outweigh the even ones at spread/g >= 4, and the difference
joins ``quad_error_est`` (an estimate, as the kernel rule's K/2K
difference is).  Where it exceeds ``tail_eps * gcf`` plus its own rounding
(the two sums share their terms, so the terms' rounding, for wide laws
mostly the weights', enters once, beside each sum's additions: about
``rounding_est``) -- a kink, or an oscillation at an odd alias -- the law
is summed again at every v.  No lattice sum cheaper than
the sum at every v is free of the step-g sum's aliases, so an oscillation
of f at one of them is kept out of reach instead: the cap g <= n samples
f at least once per unit of t = v/n, which puts the first alias at 2 pi/g
>= 2 pi/n in v, 2 pi n/g >= 2 pi in t.  sin, at frequency 1 in t (1/n in
v), stays at least 5/g, over 20/spread, from every alias; an f oscillating
at about 2 pi n/g or faster in t can alias unseen, and no ``TestFunction``
field declares such a frequency.  At h = 2 the lattice would be every v,
so such laws are summed at every v from the start; as every interior law
has spread above k >= 6, that needs spread below 8 (or n below 2).

The right bound is a geometric majorant of sum_{v>V} w(v) mbound(v), V the
last index of the block and mbound the a-priori bound on |f(v/n)| or
|E_v[f]|.  The weight ratio is

    r(v) = w(v+1)/w(v) = (m/(v+1)) (1 + beta/m)^v e^-beta,   m = nx + v beta,

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
inflated by the log-space rounding of its computed value.  On a lattice of
step g the points past V weigh g w(V+ig) mbound(V+ig), at most
g w(V) mbound(V) (q^g)^i: their tail is g w(V) mbound(V) q^g/(1-q^g).  The rounding
of the summed terms is reported apart, in ``rounding_est`` (below).

The left bound covers sum_{u<v_lo} w(u) mbound(u).  With g(v) = log r(v)
over real v >= 0,

    g'(v) = beta/m + log(1 + beta/m) - v beta^2/(m(m+beta)) - 1/(v+1),

and log(1+y) <= y(2+y)/(2(1+y)) for y >= 0 (the difference vanishes at 0
and has derivative (1 - 1/(1+y))^2/2), so

    g'(v) <= -(2 nx (nx - beta) - 3 beta^2 (v+1)) / (2 m (m+beta) (v+1)).

Hence r falls on 0 <= v <= v_lo - 1 whenever
3 beta^2 v_lo <= 2 nx (nx - beta) (always for beta = 0).  The exact r is
not monotone everywhere: at nx = 3, beta = 0.5 the condition allows
v <= 19, and r(20) > r(19) (past the mean 6), so it is tight there.  On
that domain every ratio below v_lo is at least r(v_lo - 1), so
w(u) <= w(v_lo) q^(v_lo-u) with q = 1/r(v_lo - 1); every mbound above does
not decrease in v (E_0[t^d] = 0 at the atom), so the left tail is at most
w(v_lo) mbound(v_lo) q/(1-q), rounded like the right one; on a lattice of
step g each point below v_lo is within w(v_lo) mbound(v_lo) q^(v_lo-u) as
well, so g times the bound covers their weight.  v_lo is the
Gaussian edge floor(mean - k spread), certified by one read of this bound;
it falls back to 0 where the edge is below 1, where the domain condition
fails, where q >= 1, or where the bound is not below the skip budget
``tail_eps * 2^-26 * gcf``.  The bound joins ``est_tail_bound``.
:func:`basis_mass` is the Jain series of f = 1.

``rounding_est`` bounds the floating-point error of ``value`` given the
computed values f(v/n) or E_v[f] (whose quadrature error is
``quad_error_est``): the rounding of the weights and of the sums.  A block's
value is ``np.add.reduce(w * f)``.  Whatever order its count terms are
added in, each passes through at most count - 1 additions and one rounding
for the product w*f, so the block value is within gamma_(count) sum|w f| of
the exact sum of the computed terms, gamma_j = j u/(1 - j u), u = 2^-53
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
sec. 4.2); two more roundings cover forming sum|w f| and the bound.  Each
computed weight is off by a factor exp(delta), |delta| at most 8 eps times
the sizes of the terms of its logarithm, as in the tail bound; over a block
those sizes are largest at its last index, but for |log m|, which is
quasi-convex in m and so largest at one of the block's ends.  That adds
expm1(|delta|) sum|w f|, and weights or products below the normal range
add at most 2^-1075 (1 + mbound) each.  A lattice block's value is g
times its sum, and so is its bound: g is a power of two.  Adding the block
to the running total rounds once more, by at most u times the new total.  The
quadrature errors are summed by ``np.add.reduce`` too; their terms are
nonnegative, so scaling the sum by 1 + 2 gamma keeps it an upper bound.

Kernel integrals are cached per (n, c, f) since they depend on neither beta
nor x; grid and parameter sweeps reuse them heavily.  A table holds E_v[f],
its error estimate and the a-priori bound on |E_v[f]| in arrays indexed by
v and answers a whole block of v, consecutive or on a lattice, in one
lookup.  The v a block finds missing are computed in one call of
:func:`kernels.kernel_expectations`, together with every other unfilled
v >= 1 of the block's lattice in the aligned chunks of
``kernels._GL_CHUNK`` (32) that hold them: a vectorised Gauss-Legendre rule,
in s for v = 1..4 and in the logit variable past them, whose reported
error is its K/2K difference plus a truncation and a rounding bound.  A v
asked for whose estimate misses ``quad_rel_tol`` goes to QUADPACK (which
loads scipy on its first call); a v not asked for is stored only where
the rule's estimate meets it, and otherwise stays unfilled until a block
asks for it.  So QUADPACK runs for the same v as if only the v asked for
were computed, and a rule row depends on no other v of its chunk, so the
stored values are the same bits too.  The cache keeps at most CACHE_TABLES
tables, dropping the least recently used.

The series reads mbound as one float per block, at V, before the block's
terms (and one at the edge in :func:`_plans`); a block bound that
is not finite raises DomainError there, before f is evaluated.  The
per-term bounds of a block are read only by the hybrid provider, as a view
of its table, for the skip rule: at step 1 it reads the table by one
slice (views) from the first v whose bound w(v) mbound(v) is above the
skip budget to the last; a v skipped inside would be summed, which no
evaluation seen has needed.  A lattice block, whose few points lie inside
the window, reads every point by one stepped slice and skips none.  The
atom at v = 0 costs no integral: it joins a run kept from v = 1, else is
a term w(0) f(0) apart.  A warm evaluation of a few hundred terms is
mostly fixed cost, about 31 us of numpy and Python calls against about
25 ns per term (Intel Xeon, 2 cores, numpy 2.4; fitted over 256 to 16,384
terms of the hybrid e2 series at n = 300, beta = 0.1), so this path makes
few calls and takes each log once; there a lattice of 83 points took
27.5 us against 34 to 37 us for the 667 terms at every v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _core
from .errors import ConvergenceError, DomainError
from .functions import TestFunction, get_function
from .kernels import (_EPS, _GL_CHUNK, kernel_expectations, magnitude_bound,
                      require_integrable)
from .moments import d_moment_exact, jain_moment, king_transform
from .params import EvalConfig, OperatorKind, OperatorParams, check_point

_DEFAULT_CONFIG = EvalConfig()

# Per-term skip threshold factor: a term whose a-priori bound is below
# tail_eps * 2^-26 * gcf is dropped without computing its integral; the
# dropped bounds are summed into the reported tail bound.
_SKIP_FACTOR = 2.0**-26


@dataclass(frozen=True)
class EvalResult:
    """One operator evaluation with accuracy accounting.

    ``est_tail_bound`` bounds the terms left out, ``quad_error_est``
    estimates the quadrature error of the kernel integrals summed, and
    ``rounding_est`` bounds the floating-point error of the summation
    (module docstring).
    """

    x: float
    value: float
    v_terms_used: int
    est_tail_bound: float
    quad_error_est: float
    rounding_est: float


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
        self.atom = float(f.fn(0.0))
        self._values = np.array([self.atom])
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

    def mag_at(self, v: int) -> float:
        """The bound on |E_v[f]|, as a float."""
        self._reserve(v + 1)
        return float(self._mag[v])

    def get(self, v: slice) -> tuple[np.ndarray, np.ndarray]:
        """(E_v[f], error estimates) for the v of the slice ``v``, consecutive
        or a lattice of one step, answered with views (do not write).

        Entries not yet in the table are computed first, all in one call
        of :func:`kernels.kernel_expectations`, together with every other
        unfilled v of the slice's lattice in the _GL_CHUNK-aligned chunks
        that hold them.  Those others are stored only where the rule's
        estimate meets the tolerance; QUADPACK runs only for the v asked
        for.
        """
        self._reserve(v.stop)
        filled = self._filled[v]
        if np.count_nonzero(filled) < len(filled):
            step = v.step or 1
            missing = np.arange(v.start, v.stop, step)[~filled]
            chunks = np.unique(missing // _GL_CHUNK)
            span = (chunks[:, None] * _GL_CHUNK + np.arange(_GL_CHUNK)).ravel()
            span = span[(span - v.start) % step == 0]
            self._reserve(int(span[-1]) + 1)
            span = span[~self._filled[span]]
            asked = (span >= v.start) & (span < v.stop)
            values, errors = kernel_expectations(self.params, self.f, span, self.cfg,
                                                 needed=asked)
            keep = asked | (errors < np.inf)
            new = span[keep]
            self._values[new], self._errors[new] = values[keep], errors[keep]
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
        key = (params.n, params.c, cfg.quad_rel_tol, id(f))
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

# Every block of a step-1 v-series is as long as its first, which runs to
# about mean + k spread: 256 to 8192 terms.
_BLOCK_START = 256
_BLOCK_MAX = 8192

def _ratio_sup(nx, beta, v, d):
    """An upper bound, rounded up, on the term ratio b(u+1)/b(u) over u >= v.

    b(u) = w(u) mbound(u) with mbound growing by at most (1 + 1/u)^d per
    step; the weight ratio is bounded as in the module docstring.
    """
    m = nx + v * beta
    head = m / (v + 1.0)
    # a quotient below the normal range has lost digits, or is 0 (n*x near
    # the least subnormal): take the logs apart there
    head = math.log(head) if head >= 2.0**-1022 else math.log(m) - math.log(v + 1.0)
    log_ratio = head + v * beta / m - beta  # log rho(v)
    if beta > 0.0:
        log_ratio = max(log_ratio, math.log(beta) + 1.0 - beta)  # its limit
    # log_ratio is computed to within 16 eps (1 + |log_ratio|) of its value
    return math.exp(log_ratio + d * math.log1p(1.0 / v) + 16.0 * _EPS * (1.0 + abs(log_ratio)))


def _sum_gamma(count):
    """gamma_(count+2) for a sum of ``count`` products w*f in any order
    (module docstring): count - 1 additions, one rounding for the product
    and two more for forming sum|w f| and the bound in floats."""
    ku = (count + 2) * _EPS / 2.0
    return ku / (1.0 - ku)


def _sum_up(a):
    """An upper bound on the sum of the nonnegative array ``a``: its
    np.add.reduce times 1 + 2 gamma_k, which undoes the sum's rounding
    down."""
    return float(np.add.reduce(a)) * (1.0 + 2.0 * _sum_gamma(len(a)))


def _log_weight_rounding(abs_log_nx, v_last, abs_log_m, m, log_fact, d):
    """8 eps times the sizes of the terms of the computed log w(v), and of
    d + 4 more roundings, for every v of a run ending at v_last, from the
    sizes of its terms: |log nx|, m = nx + v_last beta, log_fact =
    log v_last! and abs_log_m the largest |log m| over the run.  The sizes
    rise with v, but for |log m|, quasi-convex in m and so largest at one
    of the run's ends."""
    return 8.0 * _EPS * (abs_log_nx + v_last * (1.0 + abs_log_m) + m + log_fact + d + 4.0)


def _block_roundings(nx, beta, abs_log_nx, v0, big_v, d):
    """:func:`_log_weight_rounding` over the block v0 .. big_v and at big_v
    alone, abs_log_nx = |log nx|: one log m and one log V! at V serve
    both."""
    m = nx + big_v * beta
    abs_log_m, log_fact = abs(math.log(m)), math.lgamma(big_v + 1.0)
    over = max(abs(math.log(nx + v0 * beta)), abs_log_m)
    return (_log_weight_rounding(abs_log_nx, big_v, over, m, log_fact, d),
            _log_weight_rounding(abs_log_nx, big_v, abs_log_m, m, log_fact, d))


def _tail_bound(w_v, mb_v, q, rounding):
    """Certified bound on the geometric majorant w(v) mbound(v) q/(1-q).

    ``q`` is a ratio bound, rounded up, on the terms walking away from v:
    :func:`_ratio_sup` for the right tail, 1/r(v-1) for the left one.  The
    bound is inf when q is not below 1.  The computed w(v) is inflated by
    ``rounding``, :func:`_log_weight_rounding` at v alone, and by the least
    subnormal in case exp rounded it below the normal range.
    """
    if q >= 1.0:
        return math.inf
    # the computed log w(v) is within a few eps of the sizes of its terms,
    # mbound and the products here within d + 4 roundings: 8 eps of both is
    # about twice that
    scale = mb_v * math.exp(rounding) * q / (1.0 - q)
    # one step up covers the rounding of the last product, subnormal or not
    return math.nextafter((w_v + 2.0**-1074) * scale, math.inf)


def _left_bound(nx, beta, v_lo, d, mb_lo):
    """A bound on sum_{u<v_lo} w(u) mbound(u), mbound(v_lo) = ``mb_lo``, by
    the module docstring's left certificate; inf outside its domain or past
    the mode."""
    if not 3.0 * beta * beta * v_lo <= 2.0 * nx * (nx - beta) * (1.0 - 16.0 * _EPS):
        return math.inf
    # log r(v_lo - 1) = log(m/v_lo) + (v_lo - 1) log1p(beta/m) - beta,
    # m = nx + (v_lo - 1) beta, rounded down: each of its three terms is
    # within 4 eps of its size, and (v_lo - 1) log1p(beta/m) < 1
    m = nx + (v_lo - 1.0) * beta
    head = math.log(m / v_lo)
    log_r = head + (v_lo - 1.0) * math.log1p(beta / m) - beta - 16.0 * _EPS * (2.0 + abs(head))
    if not log_r > 0.0:
        return math.inf
    q = math.nextafter(math.exp(-log_r), math.inf)
    # log w(v_lo) = log nx + (v_lo - 1) log m - m - log v_lo!, m = nx + v_lo beta
    log_nx, m = math.log(nx), nx + v_lo * beta
    log_m, log_fact = math.log(m), math.lgamma(v_lo + 1.0)
    log_w = log_nx + (v_lo - 1.0) * log_m - m - log_fact
    rounding = _log_weight_rounding(abs(log_nx), v_lo, abs(log_m), m, log_fact, d)
    return _tail_bound(math.exp(log_w), mb_lo, q, rounding)


def _plans(nx, beta, d, n, tail_eps, skip, mag_at):
    """The ways to sum a law, in order, as (v_first, step, count, skipped):
    blocks of ``count`` points on the multiples of ``step`` from v_first,
    the skipped tail starting at ``skipped``.  Every law can be summed at
    step 1 from v_lo, the Gaussian edge floor(mean - k spread), with its
    :func:`_left_bound` (mbound(v) = mag_at(v)) as the skipped tail, or
    from v_lo = 0 with a tail of 0 where the edge is below 1 or its bound is
    not below the skip budget ``skip``, in blocks of v_end - v_lo clamped to
    [_BLOCK_START, _BLOCK_MAX], v_end = ceil(mean + k spread).  An interior
    law (v_lo > 0) whose h, the largest power of two <= min(spread/2, 2n),
    is at least 4 is summed first on the multiples of g = h/2 <= n from the
    first one >= v_lo, each block running to about v_end, with g times the
    left bound as its skipped tail (module docstring)."""
    mean = nx / (1.0 - beta)
    spread = math.sqrt(nx) / (1.0 - beta) ** 1.5
    # in logs, as skip may underflow to 0
    k = math.sqrt(-2.0 * (math.log(tail_eps) + math.log(_SKIP_FACTOR)))
    v_lo, v_end = math.floor(mean - k * spread), math.ceil(mean + k * spread)
    left_tail = _left_bound(nx, beta, v_lo, d, mag_at(v_lo)) if v_lo > 0 else math.inf
    if not left_tail < skip:
        v_lo, left_tail = 0, 0.0
    unit = (v_lo, 1, min(max(v_end - v_lo, _BLOCK_START), _BLOCK_MAX), left_tail)
    h = 1 << max(math.frexp(min(0.5 * spread, 2.0 * n))[1] - 1, 0)
    if not v_lo or h < 4:  # at h = 2 the lattice would be every v
        return (unit,)
    g = h // 2
    first = -(-v_lo // g) * g
    return (first, g, (v_end - first) // g + 1, g * left_tail), unit


def _series_eval(params, basis_x, provider, mag_at, f, hybrid, cfg, x_report):
    """Adaptive blockwise summation over a window of the basis index v.

    ``mag_at(v)`` gives the a-priori bound mbound(v) on the term's value as
    a float; it does not decrease in v and grows by at most (1 + 1/v)^d
    from v to v + 1, d the growth degree of ``f``.  The series reads it once
    per block, at the block's last index V, before the block's terms; a
    bound there that is not finite raises DomainError, as no later block
    could then stop the series.  ``provider(v, w, skip)``, v the block's
    slice of indices (its step the law's step g), w their weights and skip
    the skip budget ``tail_eps * 2^-26 * gcf``, gcf the threshold scale of
    :func:`_growth_correction`, returns per-block
    (terms w f in an array of its own, skipped_tail_increment,
    quad_error_increment); a provider that skips terms reads their bounds
    itself.  The series scales all three by g, the weight of a lattice
    point, and each block adds its rounding bound to ``rounding_est``
    (module docstring).  Summation follows :func:`_plans`: from its v_lo,
    or from the first multiple of g above it, whose left bound joins the
    skipped tail, in blocks of one length.
    After each block, the points past V are bounded by :func:`_tail_bound`
    with q^g, q = :func:`_ratio_sup`: every weight ratio past V is at most
    the larger of rho(V) = (m/(V+1)) exp(V beta/m - beta) and its limit
    beta e^(1-beta) (log rho is quasi-convex in v; module docstring), so
    with the growth factor (1 + 1/V)^d the tail is a geometric series.  The
    series stops at the first block after which the skipped terms, the left
    bound and this tail add up to at most ``tail_eps * gcf``.  The tail is
    taken as 0 where w(V) mbound(V) underflows to 0 and q < 1, that is past
    the mode; before the mode the bound is inf, so an underflowed block
    below the bulk never stops it.  A lattice sum then checks its step-h
    sum: where the two differ by more than ``tail_eps * gcf`` and the
    difference's own rounding the law is summed again at step 1; otherwise
    the difference joins ``quad_error_est``.

    A law whose mean nx/(1 - beta) is not below V_MAX (or is not finite)
    keeps about half its mass past the cap, more than any useful tail_eps
    allows, so it raises before summing, and before the growth correction,
    whose moment can overflow at such points.  An nx that underflows to 0
    (basis_x > 0) raises DomainError there too.
    """
    nx = params.n * basis_x
    beta = params.beta
    if not nx / (1.0 - beta) < V_MAX:
        raise _cap_error(beta, nx)
    check_point(nx, "n*x", zero_ok=False)
    gcf = _growth_correction(params, f, basis_x, hybrid)
    d = f.growth_degree
    budget = cfg.tail_eps * gcf
    skip = cfg.tail_eps * _SKIP_FACTOR * gcf
    abs_log_nx = abs(math.log(nx))

    for v_first, step, count, skipped in _plans(nx, beta, d, params.n, cfg.tail_eps, skip,
                                                mag_at):
        val_run = quad_err = rounding = coarse = coarse_rounding = 0.0
        for v0 in range(v_first, V_MAX, step * count):
            w = _core.jain_weights(nx, beta, v0, count, step)
            big_v = v0 + step * (count - 1)
            w_last, mb_last = float(w[-1]), mag_at(big_v)
            if not math.isfinite(mb_last):
                raise DomainError(f"v-series term bound not finite at v={big_v}, n={params.n}")
            terms, sk_inc, qerr_inc = provider(slice(v0, big_v + 1, step), w, skip)
            if step > 1:  # the step-h sum: the multiples of h = 2g
                coarse += 2 * step * float(np.add.reduce(terms[(v0 // step) & 1 :: 2]))
            val_run += step * float(np.add.reduce(terms))
            quad_err += step * qerr_inc
            skipped += step * sk_inc

            over_block, at_last = _block_roundings(nx, beta, abs_log_nx, v0, big_v, d)
            factor = _sum_gamma(count) + math.expm1(over_block)
            abs_sum = float(np.add.reduce(np.abs(terms, out=terms)))
            rounding += (step * (factor * abs_sum + count * 2.0**-1074 * max(1.0, mb_last))
                         + _EPS / 2.0 * abs(val_run))
            # the step-h sum's additions: 2g gamma_(count/2) over at most
            # every term
            coarse_rounding += step * _sum_gamma(count) * abs_sum + _EPS / 2.0 * abs(coarse)
            q = _ratio_sup(nx, beta, big_v, d)
            # a last term that underflows ends the series only past the mode:
            # before it, the bulk of the law still lies ahead
            if q < 1.0 and w_last * mb_last == 0.0:
                tail_geo = 0.0
            else:
                if step > 1:  # from lattice point to lattice point
                    q = math.nextafter(q**step, math.inf)
                tail_geo = step * _tail_bound(w_last, mb_last, q, at_last)
            tail_est = tail_geo + skipped

            if tail_est <= budget:
                if step > 1:
                    # the difference's own rounding stays out of the test,
                    # a kink does not: it is summed again at step 1.  The
                    # two sums share their terms, so the terms' rounding
                    # enters once, with each sum's additions
                    stride_err = abs(coarse - val_run)
                    if not stride_err <= budget + rounding + coarse_rounding:
                        break
                    quad_err += stride_err
                return EvalResult(
                    x=x_report,
                    value=val_run,
                    v_terms_used=(big_v - v_first) // step + 1,
                    est_tail_bound=tail_est,
                    quad_error_est=quad_err,
                    rounding_est=rounding,
                )
        else:
            break  # the cap, which no step gets past
    raise _cap_error(beta, nx)


def _cap_error(beta, nx):
    return ConvergenceError(
        f"v-series did not satisfy the tail criterion within v <= {V_MAX} "
        f"(beta={beta}, n*x={nx})"
    )


def _growth_correction(params, f, basis_x, hybrid: bool) -> float:
    """Scale factor for the stopping threshold: the operator's own moment of
    f's growth degree, or max(1, M) for d = 0, M the envelope's bound on
    |f| (:class:`~jainbaskakov.functions.TestFunction`)."""
    d = f.growth_degree
    if not d:
        return max(1.0, f.m_bound)
    mom = d_moment_exact(params, d, basis_x) if hybrid else jain_moment(params, d, basis_x)
    return 1.0 + abs(mom)


def basis_mass(params: OperatorParams, x: float, cfg: EvalConfig | None = None) -> float:
    """Total basis mass sum_v w_b(v, nx): the Jain series of f = 1.

    Each weight carries log-space rounding of about eps v log m relative
    (m = nx + v beta), and each block sum of count terms up to
    gamma_(count+2) of its size more, so the raw sum can overshoot 1 by a
    few ulps; the result is clamped to [0, 1].
    Raises DomainError where n*x underflows to 0 for x > 0.
    """
    return min(eval_jain(params, get_function("e0"), x, cfg).value, 1.0)


def _atom_result(x, f):
    return EvalResult(
        x=x, value=float(f.fn(0.0)), v_terms_used=1, est_tail_bound=0.0, quad_error_est=0.0,
        rounding_est=0.0,
    )


def _jain_mag(f, n):
    """mbound(v) of the Jain series as a float, by a one-element numpy
    power: M for growth degree d = 0, else M(1 + (v/n)^d), inf where (v/n)^d
    overflows."""
    d = f.growth_degree

    def mag_at(v):
        if not d:
            return float(f.m_bound)
        with np.errstate(over="ignore"):
            return float(f.m_bound * (1.0 + (np.array([v], dtype=np.float64) / n) ** d)[0])

    return mag_at


def eval_jain(
    params: OperatorParams,
    f: TestFunction,
    x: float,
    cfg: Optional[EvalConfig] = None,
) -> EvalResult:
    """Jain operator value sum_v w(v, nx) f(v/n); exactly f(0) at x = 0."""
    cfg = cfg or _DEFAULT_CONFIG
    check_point(x)
    if x == 0:
        return _atom_result(x, f)

    n = params.n

    def provider(v, w, _skip):
        t = np.arange(v.start, v.stop, v.step, dtype=np.float64) / n
        return w * np.asarray(f.fn(t), dtype=np.float64), 0.0, 0.0

    return _series_eval(params, x, provider, _jain_mag(f, n), f, False, cfg, x_report=x)


def _eval_hybrid(params, f, x, basis_x, cfg):
    require_integrable(params, f)
    if basis_x == 0:
        return _atom_result(x, f)
    table = DEFAULT_CACHE.table(params, f, cfg)

    def provider(v, w, skip):
        if v.step > 1:  # a lattice block reads every point
            values, errors = table.get(v)
            return w * values, 0.0, _sum_up(w * errors)
        v0 = v.start
        bound = w * table.mag(v0, len(w))
        keep = bound > skip
        if v0 == 0:  # the atom joins a run kept from v = 1, else stands apart
            keep[0] = keep[1]
        atom = v0 == 0 and not keep[0]
        kept = keep.nonzero()[0]
        lo, hi = (int(kept[0]), int(kept[-1]) + 1) if kept.size else (len(w), len(w))
        values, errors = table.get(slice(v0 + lo, v0 + hi))
        terms, w_kept = np.zeros(len(w)), w[lo:hi]
        terms[lo:hi] = w_kept * values
        if atom:
            terms[0] = w[0] * table.atom
        qerr = _sum_up(w_kept * errors)
        # the skipped bounds, in order
        skipped = np.concatenate((bound[atom:lo], bound[hi:]))
        return terms, float(np.add.reduce(skipped)), qerr

    return _series_eval(params, basis_x, provider, table.mag_at, f, True, cfg, x_report=x)


def eval_jain_baskakov(
    params: OperatorParams,
    f: TestFunction,
    x: float,
    cfg: Optional[EvalConfig] = None,
) -> EvalResult:
    """Jain-Baskakov operator value; exactly f(0) at x = 0."""
    cfg = cfg or _DEFAULT_CONFIG
    check_point(x)
    return _eval_hybrid(params, f, x, x, cfg)


def eval_king(
    params: OperatorParams,
    f: TestFunction,
    x: float,
    cfg: Optional[EvalConfig] = None,
) -> EvalResult:
    """King-type operator value: the hybrid sum with basis point r_n(x)."""
    cfg = cfg or _DEFAULT_CONFIG
    check_point(x)
    params.require_order(2)
    r = king_transform(params, x)
    if x > 0:
        # before the atom shortcut, which r = 0 would take
        check_point(r, "r_n(x)", zero_ok=False)
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

