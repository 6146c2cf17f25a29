"""Hot basis-weight kernels: vectorized generalized-Poisson weight blocks,
at consecutive v or on a lattice of one step, and the log-gamma function
they share with the kernel rules.

These two block fills sit under every operator evaluation.  They are
numpy-vectorized; a Cython variant (scalar libm loop with an
incremental compensated log-factorial) was benchmarked at 0.9-1.0x of this
implementation on representative workloads, so no compiled path is shipped.
"""

from __future__ import annotations

import math

import numpy as np

# Cephes' lgam (S. L. Moshier, Cephes Math Library, gamma.c), which
# scipy.special.gammaln runs: a rational form on [2, 3] (B over C, C monic)
# and Stirling's series (A), with its coefficients and its order of
# operations, so that with libm's log it returns gammaln's bits.
# math.lgamma differs from it in 35,436 of the 65,536 entries of the
# log v! table below.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6, -2.53252307177582951285e6,
           -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log sqrt(2 pi)
_MAXLGM = 2.556348e305  # log Gamma overflows past this


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule, as Cephes' polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam_stirling(x, log_x):
    """Cephes' lgam for x >= 13 (scalar or array), from log x."""
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    near = _polevl(p, _LGAM_A) / x
    far = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
           + 0.0833333333333333333333) / x
    return np.where(x > 1.0e8, q, q + np.where(x < 1000.0, near, far))


def lgam(x: float) -> float:
    """log Gamma(x) for x > 0, bit for bit as scipy.special.gammaln."""
    if not math.isfinite(x):
        return x
    if x < 13.0:
        # into [2, 3) by the recurrence, then the rational form there
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    return float(_lgam_stirling(x, math.log(x)))


def log_gamma(x: np.ndarray) -> np.ndarray:
    """:func:`lgam` over a 1-d array of 0 < x <= 1e305: its Stirling branch
    as one numpy pass on libm's logs, so every element has gammaln's bits."""
    out = np.empty_like(x)
    small = x < 13.0
    out[small] = [lgam(y) for y in x[small].tolist()]
    large = x[~small]
    out[~small] = _lgam_stirling(large, np.fromiter(map(math.log, large.tolist()), np.float64,
                                                    len(large)))
    return out


# log v! and v as floats, for v below the cap, shared by every block fill.
# Series that run past it (heavy tails near beta = 1) take numpy's log in
# the Stirling branch, one ulp off gammaln at 13 of 334,464 v above the cap.
# The cap bounds each table at 512 KiB.
_LOG_FACT_CAP = 1 << 16
_V = np.arange(_LOG_FACT_CAP, dtype=np.float64)
_LOG_FACT = log_gamma(_V + 1.0)


def jain_log_weights(nx: float, beta: float, v0: int, count: int, step: int = 1) -> np.ndarray:
    """Log generalized-Poisson weights log w(v) for v = v0, v0 + step, ...,
    ``count`` of them.

    w(v) = nx * (nx + v*beta)^(v-1) * exp(-(nx + v*beta)) / v!,  nx > 0.
    Built in one output array, each operation in the order of
    log nx + (v-1) log m - m - log v!, m = nx + v*beta; a weight's bits do
    not depend on the step or the other v of the call.
    """
    stop = v0 + step * count
    if stop <= _LOG_FACT_CAP:
        v = _V[v0:stop:step]
        log_fact = _LOG_FACT[v0:stop:step]
        # v - 1 as a view of the same table (exact); v0 = 0 has no view
        v_less = _V[v0 - 1 : stop - 1 : step] if v0 else v - 1.0
    else:
        v = np.arange(v0, stop, step, dtype=np.float64)
        below = _LOG_FACT[v0:_LOG_FACT_CAP:step]
        x = v[len(below):] + 1.0
        log_fact = np.concatenate((below, _lgam_stirling(x, np.log(x))))
        v_less = v - 1.0
    m = v * beta
    m += nx
    out = np.log(m)
    out *= v_less
    out += np.log(nx)
    out -= m
    out -= log_fact
    return out


def jain_weights(nx: float, beta: float, v0: int, count: int, step: int = 1) -> np.ndarray:
    """exp of :func:`jain_log_weights`, in place."""
    out = jain_log_weights(nx, beta, v0, count, step)
    return np.exp(out, out=out)
