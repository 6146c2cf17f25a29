"""Named test functions on [0, inf) with growth/derivative metadata.

The registry carries the fixed set used throughout the analysis harnesses
and the CLI.  Each function declares one growth envelope (see
:class:`TestFunction`).  Declared derivatives are validated against central
finite differences at registration, and the envelope is spot-checked on a
sample grid, so a bad registration fails fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TestFunction:
    """A function on [0, inf) with its growth envelope and derivatives.

    The envelope is |f(t)| <= m_bound for growth_degree 0 (m_bound is a sup
    of |f|: f is bounded), and |f(t)| <= m_bound (1 + t^growth_degree) for
    growth_degree >= 1 (polynomial growth).  Every bound of the package
    reads f's size from this pair alone.
    """

    __test__ = False  # not a pytest class, despite the name

    name: str
    fn: Callable
    deriv1: Optional[Callable] = None
    deriv2: Optional[Callable] = None
    growth_degree: int = 0
    m_bound: float = 1.0


def _check_growth(f: TestFunction, cap: float = 50.0) -> None:
    t = np.linspace(0.0, cap, 401)
    vals = np.abs(np.asarray(f.fn(t), dtype=float))
    d = f.growth_degree
    bound = f.m_bound * (1.0 + t**d) if d else np.full_like(t, f.m_bound)
    if np.any(vals > bound * (1.0 + 1e-12)):
        i = int(np.argmax(vals - bound))
        envelope = f"M(1+t^{d})" if d else "M"
        raise DomainError(
            f"{f.name}: growth bound {envelope} violated at "
            f"t={t[i]:.3f}: |f|={vals[i]:.6g} > {bound[i]:.6g}"
        )


def _check_derivatives(f: TestFunction) -> None:
    t = np.linspace(0.05, 20.0, 57)
    if f.deriv1 is not None:
        h = 1e-6 * np.maximum(1.0, t)
        fd = (np.asarray(f.fn(t + h)) - np.asarray(f.fn(t - h))) / (2 * h)
        d1 = np.asarray(f.deriv1(t), dtype=float)
        if np.any(np.abs(fd - d1) > 1e-5 * np.maximum(1.0, np.abs(d1))):
            raise DomainError(f"{f.name}: deriv1 disagrees with finite differences")
    if f.deriv2 is not None:
        h = 1e-4 * np.maximum(1.0, t)
        fd = (
            np.asarray(f.fn(t + h)) - 2 * np.asarray(f.fn(t)) + np.asarray(f.fn(t - h))
        ) / h**2
        d2 = np.asarray(f.deriv2(t), dtype=float)
        if np.any(np.abs(fd - d2) > 1e-5 * np.maximum(1.0, np.abs(d2)) + 1e-6):
            raise DomainError(f"{f.name}: deriv2 disagrees with finite differences")


REGISTRY: dict[str, TestFunction] = {}


def register(f: TestFunction) -> TestFunction:
    _check_growth(f)
    _check_derivatives(f)
    REGISTRY[f.name] = f
    return f


def _const_like(value):
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, value) if t.ndim else float(value)

    return g


def _power(m):
    def g(t):
        return np.asarray(t, dtype=float) ** m

    return g


def _monomial(m: int) -> TestFunction:
    if m == 0:
        return TestFunction(
            "e0",
            fn=_const_like(1.0),
            deriv1=_const_like(0.0),
            deriv2=_const_like(0.0),
            growth_degree=0,
            m_bound=1.0,
        )
    d2 = _const_like(0.0) if m == 1 else (lambda t, m=m: m * (m - 1) * np.asarray(t, dtype=float) ** (m - 2))
    return TestFunction(
        f"e{m}",
        fn=_power(m),
        deriv1=lambda t, m=m: m * np.asarray(t, dtype=float) ** (m - 1),
        deriv2=d2,
        growth_degree=m,
        m_bound=1.0,
    )


for _m in range(5):
    register(_monomial(_m))


def _exp_neg(t):
    return np.exp(-np.asarray(t, dtype=float))


register(
    TestFunction(
        "exp-neg",
        fn=_exp_neg,
        deriv1=lambda t: -_exp_neg(t),
        deriv2=_exp_neg,
        growth_degree=0,
        m_bound=1.0,
    )
)

register(
    TestFunction(
        "sin",
        fn=lambda t: np.sin(np.asarray(t, dtype=float)),
        deriv1=lambda t: np.cos(np.asarray(t, dtype=float)),
        deriv2=lambda t: -np.sin(np.asarray(t, dtype=float)),
        growth_degree=0,
        m_bound=1.0,
    )
)


def _recip_sq(t):
    with np.errstate(over="ignore"):  # t^2 = inf past t = 1.3e154, where f is 0
        return 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2)


register(
    TestFunction(
        "recip-sq",
        fn=_recip_sq,
        deriv1=lambda t: -2.0 * np.asarray(t, dtype=float) * _recip_sq(t) ** 2,
        deriv2=lambda t: (6.0 * np.asarray(t, dtype=float) ** 2 - 2.0) * _recip_sq(t) ** 3,
        growth_degree=0,
        m_bound=1.0,
    )
)

# Kink at t = 1: no derivatives declared; modulus-of-continuity stress case.
register(
    TestFunction(
        "abs-shift",
        fn=lambda t: np.abs(np.asarray(t, dtype=float) - 1.0),
        growth_degree=1,
        m_bound=1.0,
    )
)

register(
    TestFunction(
        "t-exp-neg",
        fn=lambda t: np.asarray(t, dtype=float) * _exp_neg(t),
        deriv1=lambda t: (1.0 - np.asarray(t, dtype=float)) * _exp_neg(t),
        deriv2=lambda t: (np.asarray(t, dtype=float) - 2.0) * _exp_neg(t),
        growth_degree=0,
        m_bound=math.exp(-1.0),
    )
)

# CLI-facing aliases.
ALIASES = {"sq": "e2", "cube": "e3"}


def get_function(name: str) -> TestFunction:
    """Look up a registry function by its stable name (or alias)."""
    key = ALIASES.get(name, name)
    try:
        return REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown function {name!r}; registry: {known}") from None


def shifted_power(k: int, x0: float) -> TestFunction:
    """(t - x0)^k, used for direct central-moment evaluation."""
    m = 2.0 ** max(k - 1, 0) * (1.0 + x0) ** k
    return TestFunction(
        f"shift{k}@{x0!r}",
        fn=lambda t: (np.asarray(t, dtype=float) - x0) ** k,
        growth_degree=k,
        m_bound=m,
    )
