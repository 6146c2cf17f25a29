"""Test-only helpers shared by several test modules."""

import math

import numpy as np

from jainbaskakov._core import jain_weights
from jainbaskakov.functions import TestFunction


def prefix_sum(nx: float, beta: float, stop: int, values, step: int = 1) -> float:
    """step times math.fsum of w(v) values(v) over the multiples v of
    ``step`` below ``stop``, in one block.

    The reference for the windowed v-series, which leaves out v < v_lo, or
    for its lattice sum on the multiples of ``step``: ``values`` maps an
    index array to f(v/n) or E_v[f].
    """
    v = np.arange(0, stop, step)
    w = jain_weights(nx, beta, 0, len(v), step)
    return step * math.fsum((w * values(v)).tolist())


def combine(
    name: str, alpha: float, f: TestFunction, beta: float, g: TestFunction
) -> TestFunction:
    """alpha*f + beta*g with conservatively merged metadata (for property tests):
    the larger growth degree, and M the |alpha|, |beta| combination of both."""

    def lin(t):
        return alpha * np.asarray(f.fn(t), dtype=float) + beta * np.asarray(g.fn(t), dtype=float)

    d1 = d2 = None
    if f.deriv1 is not None and g.deriv1 is not None:
        d1 = lambda t: alpha * np.asarray(f.deriv1(t), dtype=float) + beta * np.asarray(g.deriv1(t), dtype=float)
    if f.deriv2 is not None and g.deriv2 is not None:
        d2 = lambda t: alpha * np.asarray(f.deriv2(t), dtype=float) + beta * np.asarray(g.deriv2(t), dtype=float)

    return TestFunction(
        name,
        fn=lin,
        deriv1=d1,
        deriv2=d2,
        growth_degree=max(f.growth_degree, g.growth_degree),
        m_bound=abs(alpha) * f.m_bound + abs(beta) * g.m_bound,
    )
