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

Under the Jain-Baskakov kernel of order v, c t is a BetaPrime(v, n/c - 1)
variable: given g ~ Gamma(n/c - 1), t is Gamma(v) of rate c g.  So
E_v[e^(-a t)] = E_g[(1 + a/(c g))^-v] (the atom at v = 0 included, as
s^0 = 1), and summing over the basis,

    D_n(e^(-a t), x) = E_g[G(1/(1 + a/(c g)))],

one integral over g of the generating function; the King operator is the
same at the basis point r_n(x) = (n - 2c)(1 - beta) x/n.
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


def hybrid_exp_neg(n, c, beta, x, a=1):
    """D_n(e^(-a t), x) of the Jain-Baskakov operator as a float, x the
    basis point (r_n(x) for the King operator): the integral over
    g ~ Gamma(B), B = n/c - 1, split at B -+ 12 sqrt(B), where its mass
    lies."""
    with mpmath.workdps(DPS):
        n, c, a = mpmath.mpf(n), mpmath.mpf(c), mpmath.mpf(a)
        shape = n / c - 1
        log_norm = mpmath.loggamma(shape)

        def integrand(g):
            density = mpmath.exp((shape - 1) * mpmath.log(g) - g - log_norm)
            return density * mpmath.re(jain_pgf(n, beta, x, 1 / (1 + a / (c * g))))

        width = 12 * mpmath.sqrt(shape)
        points = [0, shape + width, mpmath.inf]
        if shape > width:
            points.insert(1, shape - width)
        return float(mpmath.quad(integrand, points))
