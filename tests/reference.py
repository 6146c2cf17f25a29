"""Exact references for the Jain operator, from the basis's generating
function.

The Jain basis w_beta(v, nx) is the generalized Poisson law (Consul & Jain,
Technometrics 15, 1973).  Its probability generating function is

    G(s) = sum_v w(v) s^v = exp(nx (z - 1)),   z = s e^(beta (z - 1)),

that is z = -W0(-beta s e^-beta) / beta (z = s at beta = 0), W0 the
principal branch of Lambert's W; |beta s e^-beta| <= 1/e for |s| <= 1 and
beta < 1, so the principal branch is the one the series takes.  Hence

    P_n(e^(-a t), x) = G(e^(-a/n))    and    P_n(sin t, x) = Im G(e^(i/n)),

to any precision, with no series and no window: an end-to-end check of the
v-series, its stride, its tails and its rounding alike.
"""

import mpmath

DPS = 40


def jain_pgf(n, beta, x, s):
    """G(s) of the Jain basis at (n, beta, x), at DPS digits; ``s`` is a
    real or complex mpmath number with |s| <= 1."""
    with mpmath.workdps(DPS):
        n, beta, x = mpmath.mpf(n), mpmath.mpf(beta), mpmath.mpf(x)
        z = s if beta == 0 else -mpmath.lambertw(-beta * s * mpmath.exp(-beta)) / beta
        return mpmath.exp(n * x * (z - 1))


def jain_exp_neg(n, beta, x, a=1):
    """P_n(e^(-a t), x) as a float."""
    with mpmath.workdps(DPS):
        return float(mpmath.re(jain_pgf(n, beta, x, mpmath.exp(-mpmath.mpf(a) / n))))


def jain_sin(n, beta, x):
    """P_n(sin t, x) as a float."""
    with mpmath.workdps(DPS):
        return float(mpmath.im(jain_pgf(n, beta, x, mpmath.expj(1 / mpmath.mpf(n)))))
