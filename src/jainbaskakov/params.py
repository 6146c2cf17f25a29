"""Parameter and configuration records.

The operator family is indexed by a triple (n, c, beta):

* ``n > 0`` -- the approximation index.  All formulas are analytic in n, so
  it is stored as a real; convergence sweeps use integers.
* ``c > 0`` -- the Baskakov-kernel shape parameter.
* ``beta in [0, 1)`` -- the generalized-Poisson (Jain) basis parameter.
  beta = 0 reduces the basis to Poisson weights.

Moment formulas of order j are only finite for ``n > (j+1)c``, which
:meth:`OperatorParams.require_order` alone checks (``kernels.require_integrable``
checks it for the growth degree of a function).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import DomainError, ThresholdError


class OperatorKind(str, enum.Enum):
    """The three operator families."""

    JAIN = "jain"
    JAIN_BASKAKOV = "jain-baskakov"
    KING = "king"

# Values of beta this close to 1 make the (1-beta)^-7 factors in the moment
# formulas amplify rounding catastrophically, so the public API rejects them
# by default.  Pass a larger beta_guard explicitly to lift the guard.
DEFAULT_BETA_GUARD = 0.95


def check_point(x: float, name: str = "x", zero_ok: bool = True) -> None:
    """Reject an argument ``name`` outside [0, inf), or outside (0, inf)
    unless ``zero_ok``: negative, infinite or NaN."""
    if not ((0.0 <= x if zero_ok else 0.0 < x) and x < math.inf):
        sign = "nonnegative" if zero_ok else "positive"
        raise DomainError(f"{name} must be {sign} and finite, got {x}")


def check_integer(value, name: str, least: int, most: float = math.inf) -> int:
    """``value`` as an int (4.0 as 4); DomainError unless it is an integral
    value in [``least``, ``most``]."""
    if not (least <= value <= most and value % 1 == 0):  # inf % 1 is nan
        within = f"in [{least}, {most}]" if most < math.inf else f">= {least}"
        raise DomainError(f"{name} must be an integer {within}, got {value}")
    return int(value)


@dataclass(frozen=True)
class OperatorParams:
    """The (n, c, beta) triple with validation."""

    n: float
    c: float
    beta: float
    beta_guard: float = field(default=DEFAULT_BETA_GUARD, compare=False)

    def __post_init__(self):
        if not (0 < self.n < math.inf):
            raise DomainError(f"n must be positive and finite, got {self.n}")
        if not (0 < self.c < math.inf):
            raise DomainError(f"c must be positive and finite, got {self.c}")
        if not (0.0 <= self.beta < 1.0):
            raise DomainError(f"beta must lie in [0, 1), got {self.beta}")
        if self.beta > self.beta_guard:
            raise DomainError(
                f"beta={self.beta} exceeds the numerical guard {self.beta_guard}; "
                "construct OperatorParams(..., beta_guard=...) to override"
            )

    def require_order(self, j: int) -> None:
        """Check n > (j+1)c, where the Baskakov kernel's moments of order
        up to j exist: j = 0 for the kernel itself, 1 for the King
        transform, 2 for the King operator, j for an order-j moment."""
        if not (self.n > (j + 1) * self.c):
            raise ThresholdError(
                f"order-{j} moments need n > {j + 1}c, got n={self.n}, c={self.c}"
            )


@dataclass(frozen=True)
class EvalConfig:
    """Numerical tolerances for series truncation, quadrature and grids.

    tail_eps        the v-series stops once its certified tail is <= tail_eps * gcf
    quad_rel_tol    target relative error of each kernel integral
    grid_points     base grid resolution for moduli / sup computations
    domain_cap      right endpoint standing in for +inf in sup computations
    """

    tail_eps: float = 1e-12
    quad_rel_tol: float = 1e-10
    grid_points: int = 257
    domain_cap: float = 40.0

    def __post_init__(self):
        if not (0.0 < self.tail_eps < 1.0):
            raise DomainError(f"tail_eps must be in (0,1), got {self.tail_eps}")
        if not (0.0 < self.quad_rel_tol < 1.0):
            raise DomainError(f"quad_rel_tol must be in (0,1), got {self.quad_rel_tol}")
        # np.linspace takes an int count: 33.0 is kept as 33
        object.__setattr__(self, "grid_points", check_integer(self.grid_points, "grid_points", 2))
        if not (0 < self.domain_cap < math.inf):
            raise DomainError(f"domain_cap must be positive and finite, got {self.domain_cap}")
