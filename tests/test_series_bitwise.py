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

Fourteen rows were added, with the code unchanged, before the warm scalar
path began to read the integral table by slices: the hybrid and King
operators at beta = 0.9, x = 3 (windows wider than one block), at n = 16,
x = 0.02 with e4 (the atom kept beside a skipped tail), and at the grid
parameters with tail_eps 1e-6 and 1e-15.

Twenty rows and two basis-mass rows were re-recorded when a v-series on a
narrow law (one whose search for the window's start could lift it by no
more than the search costs) began to start at the certified Gaussian edge
floor(mean - k spread) in place of that search: the hybrid and King rows
at n = 300, beta = 0.1, x = 0.5, 1.7 and 2.95, and at x = 1.7 with
tail_eps 1e-6 and 1e-15.  Each sums 4 to 32 more terms, and its
``est_tail_bound`` and ``rounding_est`` moved with the window.  The rows at
x = 0 and 0.013 and at n = 16 (v_lo = 0), and all wide-law rows (jain,
beta = 0.9, basis mass at beta = 0.95) kept their bits.  The values that
moved, against the previous recording (parent) and, for e2, the 40-digit
closed form (exact), with the new ``rounding_est`` and ``est_tail_bound +
quad_error_est + rounding_est`` (bound):

    row                          |new - parent|  |new - exact|  |parent - exact|  rounding_est  bound
    jain-baskakov e2 0.5             5.6e-17        1.78e-14       1.78e-14        2.0e-12     2.0e-12
    jain-baskakov e2 1.7             4.4e-16        6.63e-13       6.62e-13        7.4e-11     7.4e-11
    jain-baskakov exp-neg 1.7        2.8e-17                                       3.1e-12     3.1e-12
    king e2 1.7                      4.4e-16        4.34e-13       4.34e-13        5.3e-11     5.3e-11
    king e2 2.95                     1.8e-15        1.53e-12       1.54e-12        2.7e-10     2.7e-10
    king exp-neg 0.5                 1.1e-16                                       3.4e-12     3.4e-12
    king exp-neg 1.7                 2.8e-17                                       3.3e-12     3.3e-12
    jain-baskakov e2 1.7 (1e-6)      4.4e-16        2.51e-13       2.51e-13        7.0e-11     7.0e-11
    king e2 1.7 (1e-6)               4.4e-16        7.92e-13       7.91e-13        5.0e-11     5.0e-11
    king e2 1.7 (1e-15)              4.4e-16        4.34e-13       4.34e-13        5.4e-11     5.4e-11
    jain-baskakov exp-neg 1.7 (1e-15) 2.8e-17                                      3.1e-12     3.1e-12
    basis mass (50, 0.3, 1)          1 ulp, towards 1                          (0x1.fffffffffff6ep-1)
    basis mass (1000, 0, 3)          2 ulp, away from 1                        (0x1.fffffffffe702p-1)

The other nine moved rows kept their value.  Every move lies within the
new ``rounding_est``, and the distance to the exact value did not change at
two digits: these are moves of the rounding of the sums, five of them
farther from the exact value and two closer.

Six rows were re-recorded when every block of a series became as long as
its first, in place of doubling, and the search for the window's start
began to target its certified left condition, with mbound at the search's
upper end, in place of max(gcf, mbound) there.  The King rows at
beta = 0.9, x = 3 now sum two blocks as long as the first (7,436 and 7,438
terms in place of 11,157), King e2 from v_lo = 34 in place of 33; the
search lifted v_lo of jain-baskakov e2 at beta = 0.9, x = 3 (3,324 to
3,333) and of the three Jain rows (55,499 to 55,604 at x = 16.7, 2,348 to
2,388 at x = 2 and 4,144 to 4,145 at beta = 0.5), which sum as many terms
as before but for one fewer at beta = 0.5.  The values that moved, against
the previous recording (parent) and the 40-digit closed form (exact), with
the new ``est_tail_bound + quad_error_est + rounding_est`` (bound), which
``rounding_est`` dominates:

    row                            |new - parent|  |new - exact|  |parent - exact|  bound
    jain-baskakov e2 beta 0.9 x 3      5.7e-13        7.79e-10        7.79e-10     3.77e-7
    king e2 beta 0.9 x 3               3.2e-13        1.21e-12        1.53e-12     1.16e-9
    jain e4 beta 0.95 x 16.7           1.7e-5         0.835           0.835        57.3
    jain e4 beta 0.95 x 2              1.2e-7         1.35e-5         1.33e-5      2.09e-3

King exp-neg at beta = 0.9, x = 3 and Jain e4 at beta = 0.5, x = 9 kept
their value; their ``v_terms_used``, ``est_tail_bound`` and
``rounding_est`` moved.  Every move lies within the new bound, and every
basis-mass row kept its bits.

Six rows were re-recorded when the window's start on a wide law became
the certified Gaussian edge (or v = 1 where the edge is below 1) lifted by
certified Newton steps towards half the skip budget, in place of a
separate search.  v_lo rose on every wide-law row: jain-baskakov e2 3,333
to 3,400 and exp-neg 3,324 to 3,325 at beta = 0.9, x = 3; King e2 34 to 37
there, now over two blocks of 3,715 (7,430 terms in place of 7,436); Jain
e4 55,604 to 56,387 at x = 16.7, 2,388 to 2,631 at x = 2 and 4,145 to
4,158 at beta = 0.5, x = 9 (2,647 terms in place of 2,660).  The values
that moved, against the previous recording (parent) and the 40-digit
closed form (exact), with the new ``est_tail_bound + quad_error_est +
rounding_est`` (bound), which ``rounding_est`` dominates:

    row                            |new - parent|  |new - exact|  |parent - exact|  bound
    jain-baskakov e2 beta 0.9 x 3      2.5e-12        7.76e-10        7.79e-10     3.79e-7
    king e2 beta 0.9 x 3               5.3e-15        1.20e-12        1.21e-12     1.16e-9
    jain e4 beta 0.95 x 16.7           1.3e-4         0.835           0.835        57.3
    jain e4 beta 0.95 x 2              6.2e-7         1.41e-5         1.35e-5      2.09e-3

jain-baskakov exp-neg at beta = 0.9, x = 3 and Jain e4 at beta = 0.5,
x = 9 kept their value; their ``est_tail_bound`` and ``rounding_est``
moved.  ``est_tail_bound`` fell on every moved row but King e2
(3.28e-13 to 3.33e-13, the larger left bound of the higher v_lo).  Every
move lies within the new bound, every narrow-law row (n = 300,
beta = 0.1, and n = 16) and every basis-mass row kept its bits.

Any change to summation order, stopping rule, quadrature or cache layout
that moves a single bit fails here.  The golden file records the numpy and
scipy versions it was made with, and numpy's SIMD dispatch targets active on
the CPU (the rows hold the bits of numpy's ``exp``, ``log`` and power, which
take a path by them), and a failing comparison names them next to the
running ones.

Re-record only when a change is meant to move results:

    PYTHONPATH=src python tests/test_series_bitwise.py --record

It prints, for each row that moved, the fields that moved and
|new - parent| of the value next to the new ``rounding_est``.
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
    """A row's operator, function, parameters and point, as the tables above
    name them."""
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
