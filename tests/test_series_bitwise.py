"""Bit-for-bit regression of the v-series engine.

``tests/golden/series_bitwise.json`` holds ``float.hex`` of every result
field for hybrid, King and Jain evaluations and for the adaptive basis mass.
The Jain and basis-mass rows were recorded with the scalar (per-v) series
code that the array-backed one replaced; the hybrid and King rows were
re-recorded when the integral tables moved to the Gauss-Legendre rule, which
moved their values in the last digits.  All rows were re-recorded when the
series began to stop on a certified geometric tail bound: the two Jain rows
at beta = 0.95, which had been summed until the weights underflow, now stop
at 40,704 and 155,392 terms instead of 589,568 and 761,600, and moved by
less than their new ``est_tail_bound``; elsewhere only ``est_tail_bound``
moved.  A truncated sum can land farther from the exact value than one run
to underflow: at x = 2 the new value is 3.5e-5 from the 40-digit closed
form, the old one 1.6e-5 (both within the bound of 5.2e-5).

The evaluation rows were re-recorded again when the series began to sum
over a certified window [v_lo, ...) instead of from v = 0: ``v_terms_used``
now counts the terms summed, and ``est_tail_bound`` holds the left bound
too.  The basis-mass rows and the rows at x = 0 and 0.013 (v_lo = 0, one
block of 256) did not change.  The values that moved, against the previous
recording (parent) and the 40-digit value (exact: the closed-form moment,
or for exp-neg the series of Tricomi-U kernel expectations), with the new
``est_tail_bound + quad_error_est`` (bound):

    row                      |new - parent|  |new - exact|  |parent - exact|  bound
    jain-baskakov e2 1.7         3.4e-12        6.6e-13        2.7e-12       1.1e-13
    jain-baskakov e2 2.95        1.8e-15        4.3e-12        4.3e-12       3.5e-13
    jain-baskakov exp-neg 1.7    3.8e-14        2.8e-14        1.0e-14       4.6e-15
    king e2 2.95                 1.8e-15        1.5e-12        1.5e-12       2.8e-13
    king exp-neg 0.5             1.1e-16        3.5e-14        3.5e-14       1.9e-14
    jain e4 beta 0.95 x 2        4.8e-5         1.3e-5         3.5e-5        2.7e-6
    jain e4 beta 0.95 x 16.7     0.10           0.69           0.79          0.15

The two moves larger than their new bound (jain-baskakov at x = 1.7, jain
at x = 2) are within the parent's own bound (4.1e-12, 5.2e-5), which was
larger because the parent stopped on a wider tail.  The distance to the
exact value beyond the bound is the log-space rounding of the weights,
about eps nx log(nx) |value|, which no reported bound holds (CHANGES.md).
All rows were re-recorded when each block's value moved from an exactly
rounded ``math.fsum`` to numpy's pairwise ``np.sum`` and the results gained
``rounding_est``, the certified bound on the rounding of the weights and of
the sums.  ``v_terms_used`` and ``est_tail_bound`` did not change; the
hybrid and King ``quad_error_est`` moved in its last bits away from x = 0
(its sum is now rounded up).  The values that moved, against the previous recording
(parent) and, where a closed form exists, the 40-digit value (exact), with
the new ``rounding_est`` and the new ``est_tail_bound + quad_error_est +
rounding_est`` (bound):

    row                      |new - parent|  rounding_est  |new - exact|  |parent - exact|  bound
    jain-baskakov e2 0.5         5.6e-17        2.0e-12        1.8e-14        1.8e-14       2.0e-12
    jain-baskakov exp-neg 0.013  1.1e-16        4.1e-12
    king e2 1.7                  4.4e-16        5.3e-11        4.3e-13        4.3e-13       5.3e-11
    king exp-neg 2.95            6.9e-18        1.7e-12
    jain e4 beta 0.95 x 16.7     3.8e-6         57             0.69           0.69          57
    jain e4 beta 0.95 x 2        4.7e-10        2.1e-3         1.3e-5         1.3e-5        2.1e-3
    basis mass (1000, 0, 3)      2 ulp                                   (0x1.fffffffffe704p-1)

Every move lies within the new ``rounding_est``, and the distance to the
exact value did not change at two digits.

The evaluation rows were re-recorded when the rounding of a block sum of
count terms became gamma_(count+2), which holds for any summation order,
in place of a bound on the depth of numpy's pairwise scheme.  ``value``,
``v_terms_used``, ``est_tail_bound`` and the basis-mass rows did not
change.  ``rounding_est`` rose in 19 of the 23 rows, by 0.02 % (jain e4
at x = 16.7) to 0.62 % (the hybrid and King rows at x = 0.013), and
``quad_error_est`` in the 16 hybrid and King rows away from x = 0, by
5e-15 to 1.4e-13 relative (its 1 + 2 gamma scaling).

One row was re-recorded when the series began to stop on one rule, its
certified tail against ``tail_eps * gcf``, in place of the tail against
``tail_eps * (1 + |value|) * gcf`` together with a basis-mass rule.  Only
jain e4 at beta = 0.95, x = 5000/300 moved, for which gcf is about the
value, so the old threshold was about tail_eps value^2:

    row                      v_terms_used     est_tail_bound  |new - exact|  |parent - exact|  rounding_est
    jain e4 beta 0.95 x 16.7 98,304 -> 106,496  0.15 -> 3.1e-4     0.83           0.69             57

The truncation tail shrank; the distance to the exact value grew within
``rounding_est``, which the log-space rounding of the weights dominates.
Every other row, and every basis-mass row, kept its bits.

Any change to summation order, stopping rule, quadrature or cache layout
that moves a single bit fails here.  The golden file records the numpy and
scipy versions it was made with (the rows hold the bits of their ``exp``
and ``log``), and a failing comparison names them next to the running ones.

Re-record only when a change is meant to move results:

    PYTHONPATH=src python tests/test_series_bitwise.py --record
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import jainbaskakov.operators as ops
from jainbaskakov import (
    OperatorParams,
    basis_mass,
    eval_jain,
    eval_jain_baskakov,
    eval_king,
    get_function,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "series_bitwise.json"

HYBRID_PARAMS = (300.0, 1.0, 0.1)
HYBRID_X = (0.0, 0.013, 0.5, 1.7, 2.95)
JAIN_CASES = ((0.95, 5000.0 / 300.0), (0.95, 2.0), (0.5, 9.0))
MASS_CASES = ((300.0, 0.95, 5000.0 / 300.0), (50.0, 0.3, 1.0), (1000.0, 0.0, 3.0),
              (7.0, 0.6, 0.01))


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _fields(res):
    return {
        "x": float.hex(res.x),
        "value": float.hex(res.value),
        "v_terms_used": res.v_terms_used,
        "est_tail_bound": float.hex(res.est_tail_bound),
        "quad_error_est": float.hex(res.quad_error_est),
        "rounding_est": float.hex(res.rounding_est),
    }


def compute_rows() -> dict:
    ops.DEFAULT_CACHE.clear()
    p = OperatorParams(*HYBRID_PARAMS)
    rows = []
    for op, ev in (("jain-baskakov", eval_jain_baskakov), ("king", eval_king)):
        for fname in ("e2", "exp-neg"):
            f = get_function(fname)
            for x in HYBRID_X:
                rows.append({"operator": op, "function": fname, "n": p.n, "beta": p.beta,
                             **_fields(ev(p, f, x))})
    e4 = get_function("e4")
    for beta, x in JAIN_CASES:
        pj = OperatorParams(300.0, 1.0, beta)
        rows.append({"operator": "jain", "function": "e4", "n": pj.n, "beta": beta,
                     **_fields(eval_jain(pj, e4, x))})
    masses = [
        {"n": n, "beta": beta, "x": float.hex(x),
         "mass": float.hex(basis_mass(OperatorParams(n, 1.0, beta), x))}
        for n, beta, x in MASS_CASES
    ]
    return {"evaluations": rows, "basis_mass": masses}


@pytest.fixture(scope="module")
def rows():
    return compute_rows()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _versions_note(golden) -> str:
    return f"recorded with {golden['versions']}, running {_versions()}"


def test_evaluations_bitwise(rows, golden):
    assert len(rows["evaluations"]) == len(golden["evaluations"]), _versions_note(golden)
    for got, want in zip(rows["evaluations"], golden["evaluations"]):
        assert got == want, _versions_note(golden)


def test_basis_mass_bitwise(rows, golden):
    assert rows["basis_mass"] == golden["basis_mass"], _versions_note(golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_series_bitwise.py --record")
    GOLDEN.write_text(json.dumps({"versions": _versions(), **compute_rows()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
