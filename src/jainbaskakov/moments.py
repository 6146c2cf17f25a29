"""Closed-form moments of the three operator families.

Raw moments of the Jain operator come from the cumulants of the
generalized-Poisson law (pgf G(u) = exp(theta (z-1)) with z = u e^{beta (z-1)},
theta = nx), which gives, with a = 1/(1-beta):

    P(t^0) = 1
    P(t^1) = a x
    P(t^2) = a^2 x^2 + a^3 x / n
    P(t^3) = a^3 x^3 + 3 a^4 x^2 / n + (1+2b) a^5 x / n^2
    P(t^4) = a^4 x^4 + 6 a^5 x^3 / n + (7+8b) a^6 x^2 / n^2
             + (1+8b+6b^2) a^7 x / n^3

These are exact (verified against 60-digit summation) and serve as the
authoritative oracle.  The historically printed third/fourth-moment
coefficient polynomials (see :func:`jain_moment_display`) disagree with the
exact values for beta > 0; they are kept verbatim so the gap is measurable,
in the same exact-vs-display split used for the hybrid operator below.

Raw moments of the hybrid (Jain-Baskakov) operator follow from the exact
recombination of kernel monomial integrals,

    D(t^m, x) = n^m / ((n-2c)...(n-(m+1)c)) *
                sum_k coef(m,k) P(t^k, x) / n^(m-k),

where coef are the rising-factorial expansion coefficients
(v(v+1)...(v+m-1) = sum_k coef(m,k) v^k); this requires n > (m+1)c.

King-type moments are the hybrid moments evaluated at the transformed point
r_n(x) = (n-2c)(1-beta)x/n, which preserves constants and the identity.

Every public closed form here is :func:`_finite`: a value that overflows the
float range, as inf, nan or a Python OverflowError, raises DomainError naming
the function and its arguments.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from .errors import DomainError
from .params import OperatorKind, OperatorParams, check_integer, check_point

# v(v+1)...(v+m-1) = sum_k RISING_COEF[m][k] * v^k  (k = 1..m)
RISING_COEF = {
    1: {1: 1.0},
    2: {1: 1.0, 2: 1.0},
    3: {1: 2.0, 2: 3.0, 3: 1.0},
    4: {1: 6.0, 2: 11.0, 3: 6.0, 4: 1.0},
}


def _scaled(n: float) -> tuple[int, float]:
    """(e, n 2^-e), exact: within [2^-255, 2^255), where n^4 is finite and
    normal, e is 0; above it the least e that brings n below 2^255, below
    it the e that brings n into [1/2, 1), far from where a product of the
    n - ic, scaled alike, underflows."""
    top = math.frexp(n)[1]
    e = top - 255 if top > 255 else top if top < -254 else 0
    return e, math.ldexp(n, -e)


def _finite(formula):
    """A closed form that raises DomainError where it is not finite: x^4 in
    a raw moment overflows at a huge x (x = 1e80), the powers of n in a
    display overflow first (n = 1e200, x = 1), and a King or central moment
    at a tiny n overflows (n = 1e-300, x = 1e10)."""

    @functools.wraps(formula)
    def checked(params, *args):
        try:
            value = formula(params, *args)
        except OverflowError:  # float ** raises where * and / give inf
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"{formula.__name__}({', '.join(map(str, args))}) overflows at "
                              f"n={params.n}, c={params.c}, beta={params.beta}")
        return value

    return checked


@_finite
def jain_moment(params: OperatorParams, m: int, x: float) -> float:
    """Exact raw moment P(t^m, x) of the Jain operator, m = 0..4."""
    m = check_integer(m, "moment order", 0, 4)
    check_point(x)
    return _jain_moment(params.beta, m, x, *_scaled(params.n))


def _jain_moment(b, m, x, e, ns):
    """:func:`jain_moment` past its checks, (e, ns) = _scaled(n): t / n^k is
    ldexp(t / ns^k, -e k), as n^k may overflow where the moment does not.
    Unchecked: it may return inf or raise OverflowError."""
    a = 1.0 / (1.0 - b)
    if m == 0:
        return 1.0
    if m == 1:
        return a * x
    if m == 2:
        return a * a * x * x + math.ldexp(a**3 * x / ns, -e)
    if m == 3:
        return (a**3 * x**3 + math.ldexp(3 * a**4 * x**2 / ns, -e)
                + math.ldexp((1 + 2 * b) * a**5 * x / ns**2, -e * 2))
    return (
        a**4 * x**4
        + math.ldexp(6 * a**5 * x**3 / ns, -e)
        + math.ldexp((7 + 8 * b) * a**6 * x**2 / ns**2, -e * 2)
        + math.ldexp((1 + 8 * b + 6 * b * b) * a**7 * x / ns**3, -e * 3)
    )


@_finite
def jain_moment_display(params: OperatorParams, m: int, x: float) -> float:
    """The printed third/fourth Jain moment formulas, verbatim (reference only).

    They agree with :func:`jain_moment` at beta = 0 but not for beta > 0;
    tests measure the gap rather than asserting equality.
    """
    m = check_integer(m, "display order", 3, 4)
    check_point(x)
    n, b = params.n, params.beta
    a = 1.0 / (1.0 - b)
    if m == 3:
        c3 = 6 * b**4 - 6 * b**3 - 2 * b - 1
        return a**3 * x**3 + 3 * a**4 * x**2 / n - c3 * a**5 * x / n**2
    c2 = 36 * b**4 - 72 * b**3 + 36 * b**2 - 8 * b - 7
    c1 = 105 * b**5 - 14 * b**4 - 2 * b**3 + 12 * b**2 + 8 * b + 1
    return (
        a**4 * x**4
        + 6 * a**5 * x**3 / n
        - c2 * a**6 * x**2 / n**2
        + c1 * a**7 * x / n**3
    )


@_finite
def d_moment_exact(params: OperatorParams, m: int, x: float) -> float:
    """Exact raw moment D(t^m, x) of the hybrid operator via recombination.

    Authoritative oracle for the operator's monomial values; needs
    n > (m+1)c.
    """
    m = check_integer(m, "moment order", 0, 4)
    check_point(x)
    if m == 0:
        return 1.0
    params.require_order(m)
    e, ns, ns_m, denom, steps = _hybrid_plan(params.n, params.c, m)
    terms = [coef * math.ldexp(_jain_moment(params.beta, k, x, e, ns), shift) / power
             for k, coef, shift, power in steps]
    return ns_m / denom * math.fsum(terms)


# Plans of d_moment_exact kept; each is a few floats.
_PLANS = 256


@functools.lru_cache(maxsize=_PLANS, typed=True)
def _hybrid_plan(n, c, m):
    """What :func:`d_moment_exact` needs of (n, c, m) alone: (e, ns) =
    _scaled(n), ns^m, denom = prod (n - ic) 2^-e over i = 2..m+1, and per
    order k of :data:`RISING_COEF` (k, coef, -e (m-k), ns^(m-k)).

    n and every n - ic are scaled alike, as n^m may overflow where the
    moment does not (n = 1e80, x = 1).  The quotient ns^m / denom is left
    to the caller, after the terms, so that a denominator that underflows
    to 0 raises where it did.  Keyed by type too, as an integer n - ic is
    exact where a float one rounds.
    """
    e, ns = _scaled(n)
    denom = 1.0
    for i in range(2, m + 2):
        denom *= math.ldexp(n - i * c, -e)
    steps = tuple((k, coef, -e * (m - k), ns ** (m - k)) for k, coef in RISING_COEF[m].items())
    return e, ns, ns**m, denom, steps


@_finite
def d_moment_display(params: OperatorParams, m: int, x: float) -> float:
    """The printed asymptotic main terms for D(t^3) and D(t^4), verbatim.

    Reference only: the t^3 display carries a leading-sign defect (its
    x^3 n^3 term enters negatively where the exact recombination is
    positive), so its gap to :func:`d_moment_exact` does not vanish.
    """
    m = check_integer(m, "display order", 3, 4)
    check_point(x)
    params.require_order(m)
    n, c, b = params.n, params.c, params.beta
    q = b * b - 2 * b + 2
    if m == 3:
        num = n**2 * x**2 * (-(1 - b) * x * n + 3 * q)
        return num / ((1 - b) ** 4 * (n - 2 * c) * (n - 3 * c) * (n - 4 * c))
    num = n**3 * x**3 * ((1 - b) * x * n + 6 * q)
    return num / (
        (1 - b) ** 5 * (n - 2 * c) * (n - 3 * c) * (n - 4 * c) * (n - 5 * c)
    )


@_finite
def d_central_moment(params: OperatorParams, k: int, x: float) -> float:
    """Exact central moment of the hybrid operator, k in {1, 2, 4}.

    mu1 and mu2 are closed-form (they are exact displays); mu4 is the
    binomial expansion over exact raw moments, fsum-compensated against the
    near-cancellation of the (t-x)^4 terms.
    """
    check_point(x)
    n, c, b = params.n, params.c, params.beta
    if k == 1:
        params.require_order(1)
        return x * (n * b + 2 * c * (1 - b)) / ((n - 2 * c) * (1 - b))
    if k == 2:
        params.require_order(2)
        # n and c scaled alike by 2^-e, as n^2 or c^2 may overflow or
        # underflow where mu2 does not (n = 1e200 or 1e-200, x = 1)
        e, ns = _scaled(n)
        cs = math.ldexp(c, -e)
        num_x2 = (
            ns**2 * b**2
            + ns * (cs + 4 * cs * b - 5 * cs * b**2)
            + 6 * cs**2 - 12 * cs**2 * b + 6 * cs**2 * b**2
        )
        denom = (ns - 2 * cs) * (ns - 3 * cs)
        return (
            x * x * num_x2 / (denom * (1 - b) ** 2)
            + math.ldexp(ns * x * (2 - 2 * b + b * b), -e) / (denom * (1 - b) ** 3)
        )
    if k == 4:
        return _central4(d_moment_exact, params, x)
    raise DomainError(f"central moments implemented for k in {{1, 2, 4}}, got {k}")


@_finite
def d_central_moment4_display(params: OperatorParams, x: float) -> float:
    """The printed asymptotic mu4 main term, verbatim (reference only)."""
    check_point(x)
    params.require_order(4)
    n, c, b = params.n, params.c, params.beta
    num = (1 - b) * n**3 * b**2 * x**4 * (2 * c * (3 + 4 * b - 7 * b**2) + b**2 * n) + (
        6 * n**3 * b**2 * x**2 * (b * b - 2 * b + 2)
    )
    return num / (
        (n - 2 * c) * (n - 3 * c) * (n - 4 * c) * (n - 5 * c) * (1 - b) ** 5
    )


def king_transform(params: OperatorParams, x: float) -> float:
    """r_n(x) = (n-2c)(1-beta) x / n: the point transform that makes the
    King-type operator reproduce constants and the identity exactly."""
    check_point(x)
    params.require_order(1)
    return (params.n - 2 * params.c) * (1.0 - params.beta) * x / params.n


@_finite
def king_moment(params: OperatorParams, m: int, x: float) -> float:
    """Exact raw moment of the King-type operator.

    m = 0, 1 are algebraic identities (1 and x); higher orders compose the
    exact hybrid recombination with the point transform.
    """
    m = check_integer(m, "moment order", 0, 4)
    check_point(x)
    params.require_order(max(m, 2))
    if m == 0:
        return 1.0
    if m == 1:
        return float(x)
    if m == 2:
        n, c, b = params.n, params.c, params.beta
        return (n - 2 * c) * x * x / (n - 3 * c) + (2 - 2 * b + b * b) * x / (
            (n - 3 * c) * (1 - b) ** 2
        )
    return d_moment_exact(params, m, king_transform(params, x))


@_finite
def king_moment_display(params: OperatorParams, m: int, x: float) -> float:
    """The printed asymptotic King t^3/t^4 main terms, verbatim (reference only)."""
    m = check_integer(m, "display order", 3, 4)
    check_point(x)
    params.require_order(m)
    n, c, b = params.n, params.c, params.beta
    q = b * b - 2 * b + 2
    if m == 3:
        num = x**2 * n * ((1 - b * b) * (n - 4 * c) * x + 3 * q)
        return num / ((1 - b) ** 2 * (n - 3 * c) * (n - 4 * c))
    num = n**2 * x**3 * ((1 - b) ** 2 * (n - 6 * c) * x + 6 * q)
    return num / ((1 - b) ** 2 * (n - 3 * c) * (n - 4 * c) * (n - 5 * c))


@_finite
def king_central_moment(params: OperatorParams, k: int, x: float) -> float:
    """Exact King central moments: mu*1 = 0, mu*2 closed form, mu*4 binomial."""
    check_point(x)
    if k == 1:
        params.require_order(2)
        return 0.0
    if k == 2:
        params.require_order(2)
        n, c, b = params.n, params.c, params.beta
        return c * x * x / (n - 3 * c) + (2 - 2 * b + b * b) * x / (
            (n - 3 * c) * (1 - b) ** 2
        )
    if k == 4:
        return _central4(king_moment, params, x)
    raise DomainError(f"central moments implemented for k in {{1, 2, 4}}, got {k}")


def _central4(raw, params: OperatorParams, x: float) -> float:
    """mu4 as the binomial expansion over the raw moments ``raw``,
    fsum-compensated against the near-cancellation of its terms."""
    params.require_order(4)
    return math.fsum(math.comb(4, j) * (-x) ** (4 - j) * raw(params, j, x) for j in range(5))


def closed_moment(kind: OperatorKind, params: OperatorParams, m: int, x: float) -> float:
    """Dispatch the exact raw moment for any operator kind."""
    kind = OperatorKind(kind)
    if kind is OperatorKind.JAIN:
        return jain_moment(params, m, x)
    if kind is OperatorKind.JAIN_BASKAKOV:
        return d_moment_exact(params, m, x)
    return king_moment(params, m, x)


def display_moment(
    kind: OperatorKind, params: OperatorParams, m: int, x: float
) -> Optional[float]:
    """Dispatch the verbatim displayed t^3/t^4 formula, or None if not defined."""
    kind = OperatorKind(kind)
    if m not in (3, 4):
        return None
    if kind is OperatorKind.JAIN:
        return jain_moment_display(params, m, x)
    if kind is OperatorKind.JAIN_BASKAKOV:
        return d_moment_display(params, m, x)
    return king_moment_display(params, m, x)
