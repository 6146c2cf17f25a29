"""Acceptance suite: ten criteria, each with its pinned tolerance.

Each test prints one ``[PASS] criterion N`` line on success (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a failing assertion
is the corresponding FAIL.  All numeric comparisons run the real series /
quadrature pipeline against the closed-form oracles, never the oracle
against itself.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jainbaskakov import (
    EvalConfig,
    OperatorKind,
    OperatorParams,
    basis_mass,
    d_central_moment,
    d_moment_display,
    d_moment_exact,
    eval_jain,
    eval_jain_baskakov,
    eval_king,
    get_function,
    jain_moment,
    king_central_moment,
    king_moment,
    voronovskaja_sweep,
)
from jainbaskakov.analysis import rate_bound_checks, weighted_majorant_e1, weighted_norm_error
from jainbaskakov.functions import shifted_power

BETAS = (0.0, 0.1, 0.3, 0.6)
NS = (5.0, 20.0, 100.0)
XS = (0.1, 1.0, 5.0)
C = 1.0

CFG = EvalConfig()


def _report(num: int, text: str) -> None:
    print(f"\n[PASS] criterion {num}: {text}")


def test_accept_01_basis_normalization():
    cfg = EvalConfig(tail_eps=1e-12)
    for b in BETAS:
        for n in NS:
            for x in XS:
                mass = basis_mass(OperatorParams(n, C, b), x, cfg=cfg)
                assert 1.0 - 1e-10 <= mass <= 1.0, (b, n, x, mass)
    _report(1, "adaptive basis mass in [1-1e-10, 1] on the full grid")


def test_accept_02_moment_oracle_equivalence():
    worst = 0.0
    for b in BETAS:
        for n in NS:
            p = OperatorParams(n, C, b)
            for m in range(5):
                f = get_function(f"e{m}")
                for x in XS:
                    if n > (m + 1) * C:
                        got = eval_jain(p, f, x, CFG).value
                        want = jain_moment(p, m, x)
                        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)

                        got = eval_jain_baskakov(p, f, x, CFG).value
                        want = d_moment_exact(p, m, x)
                        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)
                    if n > max(m + 1, 3) * C and (m < 3 or n > (m + 1) * C):
                        got = eval_king(p, f, x, CFG).value
                        want = king_moment(p, m, x)
                        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)
    _report(2, f"numeric vs closed-form moments, worst rel {worst:.2e} <= 1e-7")


def test_accept_03_king_exactness():
    e0, e1 = get_function("e0"), get_function("e1")
    for b in BETAS:
        for n in NS:
            if not n > 3 * C:
                continue
            p = OperatorParams(n, C, b)
            for x in XS:
                assert eval_king(p, e0, x, CFG).value == pytest.approx(1.0, abs=1e-9)
                assert eval_king(p, e1, x, CFG).value == pytest.approx(x, rel=1e-9, abs=1e-9)
                assert king_central_moment(p, 1, x) == 0.0
    _report(3, "King reproduces 1 and x to 1e-9; mu*_1 identically zero")


def test_accept_04_central_moment_consistency():
    for b in (0.0, 0.1, 0.3):
        for n in (8.0, 20.0, 100.0):
            p = OperatorParams(n, C, b)
            for x in (0.5, 1.0, 2.0):
                for k in (1, 2, 4):
                    closed = d_central_moment(p, k, x)
                    got = eval_jain_baskakov(p, shifted_power(k, x), x, CFG).value
                    assert got == pytest.approx(closed, rel=1e-6, abs=1e-8), (b, n, x, k)
                # the printed mu1/mu2 formulas are exact: compare against the
                # binomial recombination of exact raw moments at 1e-10
                mu1_rec = d_moment_exact(p, 1, x) - x
                mu2_rec = math.fsum(
                    [d_moment_exact(p, 2, x), -2 * x * d_moment_exact(p, 1, x), x * x]
                )
                assert d_central_moment(p, 1, x) == pytest.approx(mu1_rec, rel=1e-10, abs=1e-12)
                assert d_central_moment(p, 2, x) == pytest.approx(mu2_rec, rel=1e-10, abs=1e-12)
    _report(4, "direct numeric central moments match binomial expansion (1e-6); "
               "printed mu1/mu2 match exact recombination (1e-10)")


def test_accept_05_asymptotic_display_gaps():
    b, x = 0.25, 1.0
    a = 1.0 / (1.0 - b)
    ns = [float(2**k) for k in range(6, 14)]

    # fourth-moment display: n * |display - exact| decreases
    g4 = [
        n * abs(d_moment_display(OperatorParams(n, C, b), 4, x)
                - d_moment_exact(OperatorParams(n, C, b), 4, x))
        for n in ns
    ]
    assert all(u > v for u, v in zip(g4, g4[1:])), g4

    # King mu*_4: n * mu*_4 decreases
    for bb in (0.1, 0.3):
        m4 = [n * king_central_moment(OperatorParams(n, C, bb), 4, x) for n in ns]
        assert all(u > v for u, v in zip(m4, m4[1:])), (bb, m4)

    # third-moment display: the gap persists at 2 x^3 / (1-b)^3, confirming
    # the recorded sign defect in the printed main term (not a failure)
    g3 = [
        abs(d_moment_display(OperatorParams(n, C, b), 3, x)
            - d_moment_exact(OperatorParams(n, C, b), 3, x))
        for n in ns
    ]
    persistent = 2 * x**3 * a**3
    assert g3[-1] == pytest.approx(persistent, rel=30.0 / ns[-1])
    # with the sign of the leading term corrected, the gap does vanish
    def sign_fixed_display(n):
        p = OperatorParams(n, C, b)
        q = b * b - 2 * b + 2
        num = n**2 * x**2 * (+(1 - b) * x * n + 3 * q)
        return num / ((1 - b) ** 4 * (n - 2 * C) * (n - 3 * C) * (n - 4 * C))

    g3_fixed = [
        n * abs(sign_fixed_display(n) - d_moment_exact(OperatorParams(n, C, b), 3, x))
        for n in ns
    ]
    assert all(u > v for u, v in zip(g3_fixed, g3_fixed[1:])), g3_fixed
    _report(
        5,
        "t^4 and King mu*_4 display gaps decrease; t^3 display gap persists at "
        f"2x^3/(1-b)^3 = {persistent:.6f} (sign defect confirmed; corrected form decreases)",
    )


def _doubling_ratios(gaps):
    return [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]


def test_accept_06_voronovskaja_hybrid():
    ns = [2**k for k in range(6, 14)]
    for l in (0.0, 0.5):
        for fname in ("e2", "e3", "exp-neg"):
            recs = voronovskaja_sweep(
                OperatorKind.JAIN_BASKAKOV, C, l, get_function(fname), 1.0, ns, CFG
            )
            gaps = [r.gap for r in recs]
            ratios = _doubling_ratios(gaps)[-3:]
            assert all(r >= 1.7 for r in ratios), (l, fname, gaps, ratios)
    _report(6, "hybrid scaled-error gaps shrink by >= 1.7x per doubling "
               "(last three doublings; f in {t^2, t^3, e^-t}, l in {0, 0.5})")


def test_accept_07_voronovskaja_king():
    ns = [2**k for k in range(6, 14)]
    for fname in ("e2", "e3", "exp-neg"):
        recs = voronovskaja_sweep(OperatorKind.KING, C, 0.0, get_function(fname), 1.0, ns, CFG)
        gaps = [r.gap for r in recs]
        ratios = _doubling_ratios(gaps)[-3:]
        assert all(r >= 1.7 for r in ratios), (fname, gaps, ratios)

    # affine functions are preserved exactly: what remains of the scaled
    # error is machine-level evaluation noise amplified by n (the log-space
    # weights round at ~ nx log(nx) eps), bounded by 1e-8 * n with orders of
    # magnitude to spare
    from helpers import combine

    # a gap of about 0 lies inside the noise: the sweep warns
    lin = combine("affine", 0.7, get_function("e0"), 1.3, get_function("e1"))
    with pytest.warns(UserWarning, match="numerical noise"):
        recs = voronovskaja_sweep(OperatorKind.KING, C, 0.0, lin, 1.0, ns, CFG)
    for r in recs:
        assert abs(r.scaled_error) <= 1e-8 * r.n, (r.n, r.scaled_error)
        assert abs(r.scaled_error) <= 1e-10 * r.n  # 100x tighter in practice
    _report(7, "King scaled-error gaps shrink by >= 1.7x per doubling; "
               "affine functions preserved to n * machine level")


def test_accept_08_rate_bound():
    cfg = EvalConfig(grid_points=41)
    for fname in ("e2", "recip-sq", "abs-shift"):
        f = get_function(fname)
        for a in (1.0, 2.0):
            for n in (25.0, 50.0, 100.0):
                for b in (0.0, 0.1):
                    checks = rate_bound_checks(OperatorParams(n, C, b), f, a, cfg)
                    worst = min(ch.slack for ch in checks)
                    assert worst >= -1e-9, (fname, a, n, b, worst)
    _report(8, "rate bound holds pointwise (slack >= -1e-9) for "
               "{t^2, 1/(1+t^2), |t-1|} x a in {1,2} x n in {25,50,100} x beta in {0,0.1}")


def test_accept_09_weighted_convergence():
    ns = [2**k for k in range(4, 12)]
    sched = [(n, 1.0 / n) for n in ns]
    cfg = EvalConfig(grid_points=65, domain_cap=8.0)
    ests = weighted_norm_error(sched, C, get_function("e1"), 0.0, cfg)
    values = [e.value for e in ests]
    for e in ests:
        assert e.value <= weighted_majorant_e1(e.n, C, e.beta), (e.n, e.value)
    assert all(u > v for u, v in zip(values, values[1:])), values
    _report(9, "rho0-norm error under the closed-form majorant at every n "
               "and strictly decreasing across the log-spaced sweep")


def test_accept_10_cli_determinism_and_golden(tmp_path):
    env = dict(os.environ)
    args = [
        sys.executable, "-m", "jainbaskakov", "converge",
        "--operator", "jain-baskakov", "--function", "e1", "--c", "1",
        "--beta-schedule", "inv-n", "--n-values", "8,16,32",
        "--points", "0.5,1,2",
    ]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cp = subprocess.run(
            args + ["--output", str(out)], capture_output=True, text=True, env=env
        )
        assert cp.returncode == 0, cp.stderr
        outs.append((tmp_path / f"{tag}.csv").read_bytes())
    assert outs[0] == outs[1]

    golden = Path(__file__).parent / "golden" / "converge.csv"
    assert outs[0] == golden.read_bytes()
    _report(10, "repeated CLI runs byte-identical and equal to the checked-in golden")
