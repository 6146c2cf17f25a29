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
form, the old one 1.6e-5 (both within the bound of 5.2e-5).  Any change to
summation order, stopping rule, quadrature or cache layout that moves a
single bit fails here.

Re-record only when a change is meant to move results:

    PYTHONPATH=src python tests/test_series_bitwise.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from jainbaskakov import (
    KernelIntegralCache,
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


def _fields(res):
    return {
        "x": float.hex(res.x),
        "value": float.hex(res.value),
        "v_terms_used": res.v_terms_used,
        "est_tail_bound": float.hex(res.est_tail_bound),
        "quad_error_est": float.hex(res.quad_error_est),
    }


def compute_rows() -> dict:
    cache = KernelIntegralCache()
    p = OperatorParams(*HYBRID_PARAMS)
    rows = []
    for op, ev in (("jain-baskakov", eval_jain_baskakov), ("king", eval_king)):
        for fname in ("e2", "exp-neg"):
            f = get_function(fname)
            for x in HYBRID_X:
                rows.append({"operator": op, "function": fname, "n": p.n, "beta": p.beta,
                             **_fields(ev(p, f, x, cache=cache))})
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


def test_evaluations_bitwise(rows, golden):
    assert len(rows["evaluations"]) == len(golden["evaluations"])
    for got, want in zip(rows["evaluations"], golden["evaluations"]):
        assert got == want


def test_basis_mass_bitwise(rows, golden):
    assert rows["basis_mass"] == golden["basis_mass"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_series_bitwise.py --record")
    GOLDEN.write_text(json.dumps(compute_rows(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
