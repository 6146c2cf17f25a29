"""Exception types shared across the package, under two roots: DomainError
(input outside the domain) and ConvergenceError (a tolerance missed within
its budget)."""


class DomainError(ValueError):
    """Input outside the mathematical domain (x < 0, invalid parameters, ...)."""


class ThresholdError(DomainError):
    """A moment/operator formula was requested below its n > (j+1)c threshold."""


class IntegrabilityError(ThresholdError):
    """Kernel integral of a growth-degree-d function needs n > (d+1)c."""


class ConvergenceError(RuntimeError):
    """Adaptive series or quadrature failed to reach its tolerance in budget."""


class UnboundedFunctionError(DomainError):
    """A sup-norm computation was requested for a function without a bound."""

