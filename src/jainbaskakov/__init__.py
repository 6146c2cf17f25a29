"""Jain, Jain-Baskakov and King-type positive linear operators.

Numerically stable evaluation of the three operator families, closed-form
moment oracles (raw and central, exact and displayed-asymptotic), and an
analysis harness for moduli of continuity, error bounds, weighted-norm
convergence and Voronovskaja-type asymptotics.
"""

from .analysis import (
    BoundCheck,
    VoronovskajaRecord,
    WeightedNormEstimate,
    check_direct_bound,
    modulus1,
    modulus2,
    voronovskaja_sweep,
    weighted_norm_error,
)
from .errors import (
    ConvergenceError,
    DomainError,
    IntegrabilityError,
    ThresholdError,
    UnboundedFunctionError,
)
from .functions import REGISTRY, TestFunction, get_function
from .kernels import (
    baskakov_kernel_log,
    jain_basis_log,
    kernel_integral,
    kernel_moment_exact,
)
from .moments import (
    d_central_moment,
    d_moment_display,
    d_moment_exact,
    jain_moment,
    jain_moment_display,
    king_central_moment,
    king_moment,
    king_moment_display,
    king_transform,
)
from .operators import (
    EvalResult,
    basis_mass,
    eval_jain,
    eval_jain_baskakov,
    eval_king,
    eval_operator,
)
from .params import EvalConfig, OperatorKind, OperatorParams

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "ConvergenceError",
    "DomainError",
    "EvalConfig",
    "EvalResult",
    "IntegrabilityError",
    "OperatorKind",
    "OperatorParams",
    "REGISTRY",
    "TestFunction",
    "ThresholdError",
    "UnboundedFunctionError",
    "VoronovskajaRecord",
    "WeightedNormEstimate",
    "basis_mass",
    "baskakov_kernel_log",
    "check_direct_bound",
    "d_central_moment",
    "d_moment_display",
    "d_moment_exact",
    "eval_jain",
    "eval_jain_baskakov",
    "eval_king",
    "eval_operator",
    "get_function",
    "jain_basis_log",
    "jain_moment",
    "jain_moment_display",
    "kernel_integral",
    "kernel_moment_exact",
    "king_central_moment",
    "king_moment",
    "king_moment_display",
    "king_transform",
    "modulus1",
    "modulus2",
    "voronovskaja_sweep",
    "weighted_norm_error",
    "__version__",
]
