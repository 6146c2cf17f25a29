"""Bit-for-bit regression of the v-series engine.

``tests/golden/series_bitwise.json`` holds ``float.hex`` of every result
field (value, v_terms_used, est_tail_bound, quad_error_est, rounding_est)
for hybrid, King and Jain evaluations and for the adaptive basis mass: the
grid parameters (300, 1, 0.1) at five points (x = 0.5, 1.7 and 2.95 are
interior laws, summed on a lattice of v), windows from v = 0 wider than one
block (beta = 0.9, x = 3), the atom kept beside a skipped tail (n = 16),
the grid point x = 1.7 at a loose and a tight tail_eps, and the heavy Jain
e4 laws at beta = 0.5 and 0.95 (from v = 0 at beta = 0.95, x = 2).  Any
change to summation order, window, stride, stopping rule, quadrature or
cache layout that moves a single bit fails here.  The
golden file records the numpy and scipy versions it was made with, and
numpy's SIMD dispatch targets active on the CPU (the rows hold the bits of
numpy's ``exp``, ``log`` and power, which take a path by them), and a
failing comparison names them next to the running ones.

Re-record only when a change is meant to move results:

    PYTHONPATH=src python tests/test_series_bitwise.py --record

It prints, for each row that moved, the fields that moved and
|new - parent| of the value next to the new ``rounding_est``.  A re-record
holds only where every moved value lies within its new
``est_tail_bound + quad_error_est + rounding_est`` of the value before, and
CHANGES.md lists each moved row with that distance (and, where a closed
form exists, its distance to the 40-digit value).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import jainbaskakov.operators as ops
from jainbaskakov import (
    EvalConfig,
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
# (n, c, beta, function, x, tail_eps): more than one block (beta = 0.9,
# x = 3), the atom kept beside a skipped tail (n = 16, x = 0.02), and the
# grid parameters at a loose and a tight tail_eps
EXTRA_CASES = ((300.0, 1.0, 0.9, "e2", 3.0, 1e-12), (300.0, 1.0, 0.9, "exp-neg", 3.0, 1e-12),
               (16.0, 1.0, 0.1, "e4", 0.02, 1e-12),
               (300.0, 1.0, 0.1, "e2", 1.7, 1e-6), (300.0, 1.0, 0.1, "exp-neg", 1.7, 1e-6),
               (300.0, 1.0, 0.1, "e2", 1.7, 1e-15), (300.0, 1.0, 0.1, "exp-neg", 1.7, 1e-15))


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _simd_dispatch() -> list:
    """numpy's SIMD dispatch targets active on this CPU.  The rows depend on
    them as well as on the versions: on an AVX-512 host 0-d ``np.exp``,
    ``np ** 3`` and ``np.log1p`` differ from ``math`` in the last bit in
    4.5 %, 5.3 % and 6.6 % of random arguments."""
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


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
    for n, c, beta, fname, x, tail_eps in EXTRA_CASES:
        pe, f = OperatorParams(n, c, beta), get_function(fname)
        for op, ev in (("jain-baskakov", eval_jain_baskakov), ("king", eval_king)):
            rows.append({"operator": op, "function": fname, "n": n, "beta": beta,
                         "tail_eps": tail_eps, **_fields(ev(pe, f, x, EvalConfig(tail_eps)))})
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
    return (f"recorded with {golden['versions']} on SIMD targets {golden['simd_dispatch']}, "
            f"running {_versions()} on {_simd_dispatch()}")


def test_evaluations_bitwise(rows, golden):
    assert len(rows["evaluations"]) == len(golden["evaluations"]), _versions_note(golden)
    for got, want in zip(rows["evaluations"], golden["evaluations"]):
        assert got == want, _versions_note(golden)


def test_basis_mass_bitwise(rows, golden):
    assert rows["basis_mass"] == golden["basis_mass"], _versions_note(golden)


def test_record_reports_the_moved_rows(golden):
    parent = {key: golden[key] for key in ("evaluations", "basis_mass")}
    new = json.loads(json.dumps(parent))
    assert moved_rows(parent, new) == []
    row = new["evaluations"][3]
    row["value"] = float.hex(float.fromhex(row["value"]) + 2.0**-30)
    row["v_terms_used"] += 1
    new["basis_mass"][1]["mass"] = float.hex(0.5)
    lines = moved_rows(parent, new)
    assert len(lines) == 2
    assert lines[0].startswith("jain-baskakov e2 n 300 beta 0.1 x 1.7: value, v_terms_used ")
    assert "|new - parent| 9.3e-10, rounding_est " in lines[0]
    assert lines[1].startswith("basis mass (50, 0.3, 1): mass; |new - parent| 0.5")


def _label(row) -> str:
    """A row's operator, function, parameters and point, as a re-record
    lists them."""
    if "mass" in row:
        return f"basis mass ({row['n']:g}, {row['beta']:g}, {float.fromhex(row['x']):g})"
    eps = f" ({row['tail_eps']:g})" if "tail_eps" in row else ""
    return (f"{row['operator']} {row['function']} n {row['n']:g} beta {row['beta']:g} "
            f"x {float.fromhex(row['x']):.4g}{eps}")


def moved_rows(parent: dict, new: dict) -> list:
    """One line per row of ``new`` that differs from ``parent``: the fields
    that moved and |new - parent| of the value, next to the new
    ``rounding_est``."""
    lines = []
    pairs = [(a, b, "value") for a, b in zip(new["evaluations"], parent["evaluations"])]
    pairs += [(a, b, "mass") for a, b in zip(new["basis_mass"], parent["basis_mass"])]
    for got, was, key in pairs:
        if got == was:
            continue
        fields = [k for k in got if got[k] != was.get(k)]
        if "v_terms_used" in fields:
            fields[fields.index("v_terms_used")] += f" {was['v_terms_used']} -> {got['v_terms_used']}"
        line = f"{_label(got)}: {', '.join(fields)}; |new - parent| " + format(
            abs(float.fromhex(got[key]) - float.fromhex(was[key])), ".2g")
        if key == "value":
            line += f", rounding_est {float.fromhex(got['rounding_est']):.2g}"
        lines.append(line)
    for key in ("evaluations", "basis_mass"):
        lines += [f"{_label(row)}: added" for row in new[key][len(parent[key]):]]
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_series_bitwise.py --record")
    recorded = compute_rows()
    if GOLDEN.exists():
        print("\n".join(moved_rows(json.loads(GOLDEN.read_text()), recorded))
              or "no row moved")
    GOLDEN.write_text(json.dumps({"versions": _versions(), "simd_dispatch": _simd_dispatch(),
                                  **recorded}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
