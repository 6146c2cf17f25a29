"""The benchmark's four workloads.

Each workload prepares its inputs in ``__init__`` (that is part of the
reported set-up time), runs one timed pass in ``run_pass`` and checks the
pass's outputs in ``check``.  ``run_pass`` returns the seconds spent in the
package calls only, one entry per part of the pass (a part is the same work
in every pass, so the runner can take each part's fastest time); resetting
the cache and checking stay outside the timer.

Inputs come from the seed alone.  Where the package builds its own grid
(``weighted_norm_error``) the seed moves the grid through the one knob the
API offers; where outputs are compared byte for byte (``cli-goldens``) the
seed is not used.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from jainbaskakov import analysis, cli, operators
from jainbaskakov.functions import get_function
from jainbaskakov.moments import d_moment_exact, jain_moment, king_moment
from jainbaskakov.operators import eval_jain, eval_jain_baskakov, eval_king
from jainbaskakov.params import EvalConfig, OperatorKind, OperatorParams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_grid_warm.json"

C = 1.0


def jitter(xs: np.ndarray, lo: float, hi: float, rng) -> np.ndarray:
    """Move each point by up to a quarter grid step, as ``bound --seed`` does."""
    h = (hi - lo) / (len(xs) - 1)
    return np.clip(xs + rng.uniform(-0.25, 0.25, xs.shape) * h, lo, hi)


def cold_cache() -> None:
    # The package-wide table cache; sweeps and the CLI all fill this one.
    operators.DEFAULT_CACHE.clear()


def _doublings(lo: int, hi: int) -> list[int]:
    out = [lo]
    while out[-1] < hi:
        out.append(out[-1] * 2)
    return out


class SweepWeighted:
    """Acceptance-9 sweep (weighted_norm_error, e1, lambda 0, beta_n = 1/n,
    65 points on [0, 8]), cut to n = 16..128 so that a pass takes seconds.

    ``weighted_norm_error`` builds its own grid from ``domain_cap``, so the
    seed stretches the domain by up to a quarter grid step at its right end.
    """

    NS = _doublings(16, 128)
    GRID_POINTS = 65
    CAP = 8.0

    def __init__(self, seed: int, wrap_fn):
        rng = np.random.default_rng(seed)
        h = self.CAP / (self.GRID_POINTS - 1)
        cap = self.CAP + float(rng.uniform(-0.25, 0.25)) * h
        self.cfg = EvalConfig(grid_points=self.GRID_POINTS, domain_cap=cap)
        self.f = wrap_fn(get_function("e1"))
        self.schedule = [(n, 1.0 / n) for n in self.NS]

    def run_pass(self, probe):
        cold_cache()
        t0 = time.perf_counter()
        rows = analysis.weighted_norm_error(self.schedule, C, self.f, 0.0, self.cfg)
        elapsed = time.perf_counter() - t0
        probe()
        return [elapsed], rows

    def check(self, rows) -> list[bool]:
        """Each row at or below the closed-form majorant and below the last."""
        ok = []
        prev = math.inf
        for e in rows:
            ok.append(e.value <= analysis.weighted_majorant_e1(e.n, C, e.beta) and e.value < prev)
            prev = e.value
        return ok + [False] * (len(self.NS) - len(rows))


class SweepVoronovskaja:
    """voronovskaja_sweep for the hybrid (l = 0.5) and King operators with
    e2 and exp-neg, each sweep on a cold cache, cut to n = 64..512.

    The seed moves the point x = 1 by up to 1/64.
    """

    NS = _doublings(64, 512)
    SWEEPS = (
        (OperatorKind.JAIN_BASKAKOV, 0.5, "e2"),
        (OperatorKind.JAIN_BASKAKOV, 0.5, "exp-neg"),
        (OperatorKind.KING, 0.0, "e2"),
        (OperatorKind.KING, 0.0, "exp-neg"),
    )
    MIN_RATIO = 1.7  # acceptance 6 and 7: gap shrink per doubling

    def __init__(self, seed: int, wrap_fn):
        rng = np.random.default_rng(seed)
        self.x = 1.0 + float(rng.uniform(-1.0, 1.0)) / 64.0
        self.cfg = EvalConfig()
        self.sweeps = [(kind, l, wrap_fn(get_function(name))) for kind, l, name in self.SWEEPS]

    def run_pass(self, probe):
        times = []
        out = []
        for kind, l, f in self.sweeps:
            cold_cache()
            t0 = time.perf_counter()
            recs = analysis.voronovskaja_sweep(kind, C, l, f, self.x, self.NS, self.cfg)
            times.append(time.perf_counter() - t0)
            probe()
            out.append(recs)
        return times, out

    def check(self, sweeps) -> list[bool]:
        """Per sweep: the gap shrinks by MIN_RATIO per doubling, last three."""
        ok = []
        for recs in sweeps:
            gaps = [r.gap for r in recs]
            ratios = [a / b if b > 0 else math.inf for a, b in zip(gaps, gaps[1:])][-3:]
            ok.append(len(ratios) == 3 and all(r >= self.MIN_RATIO for r in ratios))
        return ok


class GridWarm:
    """Dense x-grids at (n = 300, c = 1, beta = 0.1) on a cache filled in
    set-up, plus Jain e4 at large nx with beta up to the 0.95 guard.

    Monomial grids are jittered by the seed and checked against the closed
    forms.  exp-neg has no closed form, so its grid is fixed and checked
    against ``reference_grid_warm.json`` (recorded by ``record_reference.py``).
    """

    PARAMS = OperatorParams(300.0, C, 0.1)
    X_HI = 3.0
    POINTS = 385
    OPERATORS = (("jain-baskakov", eval_jain_baskakov, d_moment_exact),
                 ("king", eval_king, king_moment))
    JAIN_BETAS = (0.5, 0.8, 0.95)
    JAIN_X = (2.0, 9.0, 5000.0 / 300.0)  # nx up to 5000
    MONOMIAL_TOL = 1e-7  # acceptance 2
    CHUNK = 16  # dense-grid evaluations per timed part of a pass
    # Each Jain evaluation is a part of its own, run this often per pass: the
    # one at beta 0.95, nx 5000 alone is about a quarter of a pass, and its
    # fastest time needs as many tries as the short parts get.
    JAIN_REPEATS = 3

    def __init__(self, seed: int, wrap_fn):
        rng = np.random.default_rng(seed)
        base = np.linspace(0.0, self.X_HI, self.POINTS)
        e2 = wrap_fn(get_function("e2"))
        e4 = wrap_fn(get_function("e4"))
        exp_neg = wrap_fn(get_function("exp-neg"))
        xj = jitter(base, 0.0, self.X_HI, rng)
        # (label, evaluator, params, f, x, expected value or None)
        self.tasks = []
        for op, ev, closed in self.OPERATORS:
            self.tasks += [(op, ev, self.PARAMS, e2, float(x), closed(self.PARAMS, 2, float(x)))
                           for x in xj]
            self.tasks += [(op, ev, self.PARAMS, exp_neg, float(x), None) for x in base]
        for b in self.JAIN_BETAS:
            p = OperatorParams(300.0, C, b)
            # a quarter step of the dense grid, so the series length (the
            # pass's cost) hardly depends on the seed
            step = self.X_HI / (self.POINTS - 1)
            xs = np.minimum(np.array(self.JAIN_X) + rng.uniform(-0.25, 0.25, 3) * step,
                            self.JAIN_X[-1])
            self.tasks += [("jain", eval_jain, p, e4, float(x), jain_moment(p, 4, float(x)))
                           for x in xs]
        dense = 2 * len(self.OPERATORS) * self.POINTS
        # (first task, end task, repeats) per timed part
        self.parts = [(i, min(i + self.CHUNK, dense), 1) for i in range(0, dense, self.CHUNK)]
        self.parts += [(i, i + 1, self.JAIN_REPEATS) for i in range(dense, len(self.tasks))]
        rows = json.loads(REFERENCE.read_text())["rows"] if REFERENCE.is_file() else []
        self.reference = {(r["operator"], r["x"]): r for r in rows}
        cold_cache()
        self.evaluate()  # fills the integral tables; timed passes compute none

    def evaluate(self):
        return [ev(p, f, x) for _, ev, p, f, x, _ in self.tasks]

    def run_pass(self, probe):
        """Part times (each part's fastest repeat) and (task index, result)
        for every evaluation made."""
        times = []
        results = []
        for lo, hi, repeats in self.parts:
            best = math.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                out = [ev(p, f, x) for _, ev, p, f, x, _ in self.tasks[lo:hi]]
                best = min(best, time.perf_counter() - t0)
                results += zip(range(lo, hi), out)
            times.append(best)
        probe()
        return times, results

    def check(self, results) -> list[bool]:
        """Monomials within 1e-7 relative of the closed form; exp-neg within
        the error bounds of this evaluation and of the reference."""
        ok = []
        for i, res in results:
            op, _, _, _, x, want = self.tasks[i]
            if want is not None:
                good = abs(res.value - want) <= self.MONOMIAL_TOL * max(abs(want), 1.0)
            else:
                ref = self.reference.get((op, float.hex(x)))
                good = ref is not None and abs(res.value - ref["value"]) <= (
                    res.est_tail_bound + res.quad_error_est + ref["bound"]
                    + 4 * np.finfo(float).eps * abs(ref["value"])
                )
            ok.append(good)
        return ok

    def reference_rows(self, results) -> list[dict]:
        """The fixed-grid rows in the format ``check`` reads."""
        return [
            {"operator": op, "x": float.hex(x), "value": res.value,
             "bound": res.est_tail_bound + res.quad_error_est}
            for (op, _, _, _, x, want), res in zip(self.tasks, results)
            if want is None
        ]


# The six golden configurations of tests/test_cli.py; outputs must match
# tests/golden byte for byte, so these inputs are never jittered.
GOLDEN_ARGS = {
    "eval": ["eval", "--operator", "king", "--function", "e1", "--n", "16",
             "--c", "1", "--beta", "0.2", "--points", "0,1,2"],
    "moments": ["moments", "--operator", "jain-baskakov", "--n", "10",
                "--c", "1", "--beta", "0", "--x", "1"],
    "converge": ["converge", "--operator", "jain-baskakov", "--function", "e1",
                 "--c", "1", "--beta-schedule", "inv-n", "--n-values", "8,16,32",
                 "--points", "0.5,1,2"],
    "voronovskaja": ["voronovskaja", "--operator", "king", "--function", "sq",
                     "--c", "1", "--x", "1", "--n-values", "16,32,64"],
    "bound": ["bound", "--theorem", "rate", "--function", "recip-sq", "--n", "25",
              "--c", "1", "--beta", "0", "--a", "1", "--grid-points", "17"],
    "weighted": ["weighted", "--function", "e1", "--lambda", "0", "--c", "1",
                 "--beta-schedule", "inv-n", "--n-values", "16,32,64",
                 "--domain-cap", "8", "--grid-points", "33"],
}
SUFFIXES = (".csv", ".plot.dat")


class CliGoldens:
    """The six golden subcommands through ``cli.main`` in this process, each
    on a cold cache, writing into a scratch directory of the checkout."""

    # weighted is about two thirds of a pass; it runs this often per pass so
    # that its fastest time gets as many tries as the short subcommands get.
    REPEATS = {"weighted": 3}

    def __init__(self, seed: int, wrap_fn):
        del seed, wrap_fn  # byte-checked output: fixed inputs
        golden = ROOT / "tests" / "golden"
        self.golden = {
            (cmd, sfx): (golden / f"{cmd}{sfx}").read_bytes()
            for cmd in GOLDEN_ARGS for sfx in SUFFIXES
        }
        scratch = ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self.outdir = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))

    def run_pass(self, probe):
        """Per subcommand its fastest run; exit codes by (subcommand, run)."""
        times = []
        codes = {}
        for cmd, argv in GOLDEN_ARGS.items():
            best = math.inf
            for r in range(self.REPEATS.get(cmd, 1)):
                out = self.outdir / f"{cmd}-{r}"
                for sfx in SUFFIXES:
                    out.with_name(out.name + sfx).unlink(missing_ok=True)
                cold_cache()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[(cmd, r)] = cli.main(argv + ["--output", str(out)])
                best = min(best, time.perf_counter() - t0)
                probe()
            times.append(best)
        return times, codes

    def check(self, codes) -> list[bool]:
        """Per run: exit code 0 and both files equal to the goldens."""
        ok = []
        for (cmd, r), code in codes.items():
            good = code == cli.EXIT_OK
            for sfx in SUFFIXES:
                path = self.outdir / f"{cmd}-{r}{sfx}"
                good = good and path.is_file() and path.read_bytes() == self.golden[(cmd, sfx)]
            ok.append(good)
        return ok

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


WORKLOADS = {
    "sweep-weighted": SweepWeighted,
    "sweep-voronovskaja": SweepVoronovskaja,
    "grid-warm": GridWarm,
    "cli-goldens": CliGoldens,
}
