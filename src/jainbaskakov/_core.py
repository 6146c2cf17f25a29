"""Hot basis-weight kernels: vectorized generalized-Poisson weight blocks.

These two block fills sit under every operator evaluation.  They are
numpy/scipy-vectorized; a Cython variant (scalar libm loop with an
incremental compensated log-factorial) was benchmarked at 0.9-1.0x of this
implementation on representative workloads, so no compiled path is shipped.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

# log v! and v as floats, for v below the cap, shared by every block fill;
# series that run past it (heavy tails near beta = 1) take gammaln and
# arange directly.  The cap bounds each table at 512 KiB.
_LOG_FACT_CAP = 1 << 16
_V = np.arange(_LOG_FACT_CAP, dtype=np.float64)
_LOG_FACT = gammaln(_V + 1.0)


def jain_log_weights(nx: float, beta: float, v0: int, count: int) -> np.ndarray:
    """Log generalized-Poisson weights log w(v) for v = v0 .. v0+count-1.

    w(v) = nx * (nx + v*beta)^(v-1) * exp(-(nx + v*beta)) / v!,  nx > 0.
    Built in one output array, each operation in the order of
    log nx + (v-1) log m - m - log v!, m = nx + v*beta.
    """
    if v0 + count <= _LOG_FACT_CAP:
        v = _V[v0 : v0 + count]
        log_fact = _LOG_FACT[v0 : v0 + count]
        # v - 1 as a view of the same table (exact); v0 = 0 has no view
        v_less = _V[v0 - 1 : v0 - 1 + count] if v0 else v - 1.0
    else:
        v = np.arange(v0, v0 + count, dtype=np.float64)
        log_fact = gammaln(v + 1.0)
        v_less = v - 1.0
    m = v * beta
    m += nx
    out = np.log(m)
    out *= v_less
    out += np.log(nx)
    out -= m
    out -= log_fact
    return out


def jain_weights(nx: float, beta: float, v0: int, count: int) -> np.ndarray:
    """exp of :func:`jain_log_weights`, in place."""
    out = jain_log_weights(nx, beta, v0, count)
    return np.exp(out, out=out)
