"""CLI contract tests: subcommands, exit codes, determinism, golden files.

Golden files live in tests/golden/; tables carry 17 significant digits, so
comparisons are bit-exact.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

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


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    cmd = [sys.executable, "-m", "jainbaskakov", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    for sub in GOLDEN_ARGS:
        assert sub in cp.stdout


def test_eval_king_identity(tmp_path):
    out = tmp_path / "ev"
    cp = run_cli(*GOLDEN_ARGS["eval"], "--output", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = (tmp_path / "ev.csv").read_text().splitlines()
    assert lines[0] == "x,value,fx,error,v_terms_used,tail_bound"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)


def test_eval_jain_constant(tmp_path):
    out = tmp_path / "c"
    cp = run_cli("eval", "--operator", "jain", "--function", "e0",
                 "--n", "20", "--beta", "0.3", "--points", "0,1,2",
                 "--output", str(out))
    assert cp.returncode == 0, cp.stderr
    values = [
        float(line.split(",")[1])
        for line in (tmp_path / "c.csv").read_text().splitlines()[1:]
    ]
    assert values == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)


def test_moments_exit_zero_and_mu1_king_zero(tmp_path):
    out = tmp_path / "m"
    cp = run_cli("moments", "--operator", "king", "--n", "13", "--c", "1",
                 "--beta", "0.2", "--x", "1", "--output", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = (tmp_path / "m.csv").read_text().splitlines()
    mu1 = [r for r in rows if r.startswith("mu1,")]
    assert len(mu1) == 1
    assert float(mu1[0].split(",")[2]) == 0.0  # closed form exactly zero


def test_unknown_function_exits_2(tmp_path):
    cp = run_cli("eval", "--function", "nope", "--output", str(tmp_path / "x"))
    assert cp.returncode == 2
    err = json.loads(cp.stderr.strip())
    assert err["error"]["exit_code"] == 2


def test_domain_error_exits_3(tmp_path):
    cp = run_cli("eval", "--operator", "jain-baskakov", "--function", "e4",
                 "--n", "4", "--c", "1", "--output", str(tmp_path / "x"))
    assert cp.returncode == 3
    err = json.loads(cp.stderr.strip())
    assert err["error"]["type"] == "IntegrabilityError"


@pytest.mark.parametrize("source", ["flag", "env"])
def test_quad_rel_tol_past_one_exits_3(tmp_path, source):
    args = ["eval", "--operator", "jain-baskakov", "--function", "e1", "--n", "16",
            "--points", "1,2", "--output", str(tmp_path / "q")]
    if source == "flag":
        cp = run_cli(*args, "--quad-rel-tol", "1e5")
    else:
        cp = run_cli(*args, env_extra={"JAINBASKAKOV_QUAD_REL_TOL": "1e5"})
    assert cp.returncode == 3, cp.stderr
    err = json.loads(cp.stderr.strip())
    assert err["error"]["type"] == "DomainError"
    assert err["error"]["message"] == "quad_rel_tol must be in (0,1), got 100000.0"


def test_beta_guard_exits_3(tmp_path):
    cp = run_cli("eval", "--beta", "0.99", "--output", str(tmp_path / "x"))
    assert cp.returncode == 3


def test_stalled_trend_exits_4(tmp_path):
    # constant beta: the Jain operator's error on e1 is exactly x*beta/(1-beta)
    # for every n, so the decreasing-error assertion must fail
    cp = run_cli("converge", "--operator", "jain", "--function", "e1",
                 "--beta-schedule", "const", "--beta", "0.3",
                 "--n-values", "8,16,32", "--points", "1,2",
                 "--output", str(tmp_path / "t"))
    assert cp.returncode == 4, cp.stdout + cp.stderr
    assert "FAIL" in cp.stdout


def test_interval_spec(tmp_path):
    cp = run_cli("eval", "--operator", "jain", "--function", "e0",
                 "--n", "10", "--interval", "0:2:5", "--output", str(tmp_path / "i"))
    assert cp.returncode == 0, cp.stderr
    xs = [float(line.split(",")[0]) for line in (tmp_path / "i.csv").read_text().splitlines()[1:]]
    assert xs == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])


def test_moments_threshold_rows_reported(tmp_path):
    # n = 4, c = 1: the fourth moment needs n > 5c, so its row carries a
    # threshold status instead of numbers, and the run still exits 0
    cp = run_cli("moments", "--operator", "jain-baskakov", "--n", "4", "--c", "1",
                 "--beta", "0", "--x", "1", "--output", str(tmp_path / "m"))
    assert cp.returncode == 0, cp.stdout + cp.stderr
    rows = (tmp_path / "m.csv").read_text().splitlines()
    m4 = [r for r in rows if r.startswith("4,")]
    assert m4 and "threshold" in m4[0]


_HUGE_N = ["--n", "1e200", "--c", "1", "--beta", "0", "--x", "1e-199"]


@pytest.mark.parametrize("operator, formula", [
    ("jain", "jain_moment_display"), ("jain-baskakov", "d_moment_display"),
    ("king", "king_moment_display")])
def test_moments_display_overflow_rows_reported(tmp_path, operator, formula):
    # n = 1e200, x = 1e-199 (nx = 10): every exact moment is finite, but the
    # verbatim display formulas form powers of n that overflow; such a row
    # carries an overflow status instead of a closed form, as a threshold
    # row does, and the run writes its report
    code, err = run_main("moments", "--operator", operator, *_HUGE_N,
                         "--output", str(tmp_path / "m"))
    assert err is None and code in (0, 4)
    with open(tmp_path / "m.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    overflow = [r for r in rows if r["status"] != "ok"]
    assert overflow and {r["order"] for r in overflow} <= {"3", "4"}
    for r in overflow:
        assert r["formula_class"] == "asymptotic" and r["closed_form"] == ""
        assert r["status"].startswith(f"overflow: {formula}(")
    assert [r["formula_class"] for r in rows[:4]] == ["exact"] * 4


def test_moments_display_threshold_row_is_not_an_overflow(tmp_path, monkeypatch):
    # a display formula's own order check is reported as a threshold, not as
    # an overflow (the exact rows check the same orders first, so it is
    # forced here)
    from jainbaskakov import cli
    from jainbaskakov.errors import ThresholdError

    def refuse(params, m, x):
        raise ThresholdError(f"display order {m}")

    monkeypatch.setattr(cli, "jain_moment_display", refuse)
    code, err = run_main("moments", "--operator", "jain", "--n", "50", "--x", "1",
                         "--output", str(tmp_path / "m"))
    assert (code, err) == (0, None)
    with open(tmp_path / "m.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["formula_class"] == "asymptotic"]
    assert [r["status"] for r in rows] == ["threshold: display order 3",
                                          "threshold: display order 4"]


_QUADPACK_TRUNCATES = pytest.mark.xfail(
    strict=True, reason="QUADPACK misses the Beta(v, n/c - 1) kernel's mass past its mean "
                        "for n/c from about 1e5: the numeric e0 moment is 0.544 at n = 1e200")


@pytest.mark.parametrize("operator", [
    "jain",
    pytest.param("jain-baskakov", marks=_QUADPACK_TRUNCATES),
    pytest.param("king", marks=_QUADPACK_TRUNCATES),
])
def test_moments_display_overflow_exits_0(tmp_path, operator):
    code, err = run_main("moments", "--operator", operator, *_HUGE_N,
                         "--output", str(tmp_path / "m"))
    assert (code, err) == (0, None)


def test_short_sweep_rejected(tmp_path):
    cp = run_cli("converge", "--operator", "jain", "--function", "e1",
                 "--n-values", "8", "--output", str(tmp_path / "s"))
    assert cp.returncode == 2


def test_seeded_jitter_deterministic(tmp_path):
    args = ["bound", "--theorem", "direct", "--function", "sin", "--n", "40",
            "--beta", "0.05", "--a", "2", "--grid-points", "9", "--seed", "11"]
    for tag in ("a", "b"):
        cp = run_cli(*args, "--output", str(tmp_path / tag))
        assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_converge_error_column_is_mu1(tmp_path):
    # for f = t the hybrid error D(t,x) - x equals mu1(x) exactly, so the
    # sup-error column must match the closed-form max over the points
    from jainbaskakov import OperatorParams, d_central_moment

    cp = run_cli("converge", "--operator", "jain-baskakov", "--function", "e1",
                 "--c", "1", "--beta-schedule", "inv-n", "--n-values", "8,16,32",
                 "--points", "0.5,1,2", "--output", str(tmp_path / "c"))
    assert cp.returncode == 0, cp.stderr
    for line in (tmp_path / "c.csv").read_text().splitlines()[1:]:
        n_s, beta_s, err_s, _ = line.split(",")
        p = OperatorParams(float(n_s), 1.0, float(beta_s))
        want = max(d_central_moment(p, 1, x) for x in (0.5, 1.0, 2.0))
        assert float(err_s) == pytest.approx(want, rel=1e-8)


def test_direct_bound_reports_small_required_constant(tmp_path):
    cp = run_cli("bound", "--theorem", "direct", "--function", "sin",
                 "--n", "50", "--c", "1", "--beta", "0.05", "--a", "2",
                 "--grid-points", "9", "--output", str(tmp_path / "b"))
    assert cp.returncode == 0, cp.stdout + cp.stderr
    lines = (tmp_path / "b.csv").read_text().splitlines()
    assert lines[0] == "x,lhs,rhs,slack,m_required"
    m_req = [float(line.split(",")[4]) for line in lines[1:] if line.split(",")[4]]
    assert all(m <= 2.0 for m in m_req)


def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "command": "eval",
        "operator": "jain",
        "function": "e1",
        "n": 50,
        "beta": 0.2,
        "points": "1",
    }))
    out = tmp_path / "from_config"
    cp = run_cli("eval", "--config", str(cfgfile), "--output", str(out))
    assert cp.returncode == 0, cp.stderr
    row = (tmp_path / "from_config.csv").read_text().splitlines()[1]
    assert float(row.split(",")[1]) == pytest.approx(1.25, rel=1e-10)
    # explicit flag wins over the config file
    out2 = tmp_path / "override"
    cp = run_cli("eval", "--config", str(cfgfile), "--beta", "0", "--output", str(out2))
    assert cp.returncode == 0, cp.stderr
    row = (tmp_path / "override.csv").read_text().splitlines()[1]
    assert float(row.split(",")[1]) == pytest.approx(1.0, rel=1e-10)
    # config for the wrong command is refused
    cp = run_cli("moments", "--config", str(cfgfile), "--output", str(tmp_path / "z"))
    assert cp.returncode == 2


def test_env_tolerance_override(tmp_path):
    # a sloppy tail_eps from the environment loosens truncation: fewer terms
    out1, out2 = tmp_path / "tight", tmp_path / "loose"
    args = ["eval", "--operator", "jain", "--function", "e1", "--n", "200",
            "--points", "2"]
    cp = run_cli(*args, "--output", str(out1))
    assert cp.returncode == 0
    cp = run_cli(*args, "--output", str(out2), env_extra={"JAINBASKAKOV_TAIL_EPS": "1e-3"})
    assert cp.returncode == 0
    terms1 = int((tmp_path / "tight.csv").read_text().splitlines()[1].split(",")[4])
    terms2 = int((tmp_path / "loose.csv").read_text().splitlines()[1].split(",")[4])
    assert terms2 <= terms1


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        cp = run_cli(*GOLDEN_ARGS["voronovskaja"], "--output", str(out))
        assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.plot.dat").read_bytes() == (tmp_path / "b.plot.dat").read_bytes()


def test_json_round_trip(tmp_path):
    out = tmp_path / "v"
    cp = run_cli(*GOLDEN_ARGS["voronovskaja"], "--format", "json", "--output", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads((tmp_path / "v.json").read_text())
    assert doc["command"] == "voronovskaja"
    from jainbaskakov import VoronovskajaRecord

    for row in doc["rows"]:
        rec = VoronovskajaRecord(
            n=row["n"],
            beta_n=row["beta_n"],
            scaled_error=row["scaled_error"],
            predicted_limit=row["predicted_limit"],
            gap=row["gap"],
        )
        # floats survive the JSON round trip losslessly
        assert rec.gap == abs(rec.scaled_error - rec.predicted_limit)
        assert json.loads(json.dumps(row)) == row


@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_golden_files_bit_exact(command, tmp_path):
    out = tmp_path / command
    cp = run_cli(*GOLDEN_ARGS[command], "--output", str(out))
    assert cp.returncode == 0, cp.stderr
    for suffix in (".csv", ".plot.dat"):
        got = (tmp_path / (command + suffix)).read_bytes()
        want = (GOLDEN / (command + suffix)).read_bytes()
        assert got == want, f"{command}{suffix} deviates from the golden file"


def test_golden_runs_send_the_same_v_to_quadpack(tmp_path, monkeypatch):
    # a table fills whole aligned chunks by the Gauss-Legendre rules, but
    # QUADPACK runs only for the v a series asks for: each golden
    # configuration on a cold cache makes as many QUADPACK calls as when
    # tables filled only those v.  A pass of the cli-goldens benchmark runs
    # weighted three times: 132 + 2 * 2 = 136 calls.
    from jainbaskakov import kernels, operators

    calls = []
    real = kernels._kernel_expectation

    def counted(params, v, *args):
        calls.append(v)
        return real(params, v, *args)

    monkeypatch.setattr(kernels, "_kernel_expectation", counted)
    made = {}
    for command, argv in GOLDEN_ARGS.items():
        operators.DEFAULT_CACHE.clear()
        calls.clear()
        assert run_main(*argv, "--output", str(tmp_path / command)) == (0, None)
        made[command] = len(calls)
    operators.DEFAULT_CACHE.clear()
    assert made == {"eval": 2, "moments": 95, "converge": 13, "voronovskaja": 19,
                    "bound": 1, "weighted": 2}


@pytest.mark.parametrize(
    "file_cfg, env, key",
    [
        (None, {"JAINBASKAKOV_TAIL_EPS": "abc"}, "tail_eps"),
        ({"n": "fifty"}, None, "n"),
        ({"grid_points": "1e3"}, None, "grid_points"),
        # integer options: no truncation of fractions, no booleans as 0/1
        ({"grid_points": 33.9}, None, "grid_points"),
        ({"grid_points": True}, None, "grid_points"),
        ({"seed": 2.5}, None, "seed"),
        ({"seed": False}, None, "seed"),
        (None, {"JAINBASKAKOV_GRID_POINTS": "33.9"}, "grid_points"),
        (None, {"JAINBASKAKOV_GRID_POINTS": "true"}, "grid_points"),
        # a key that names no option, and values outside an option's choices
        ({"tail_esp": 1e-3}, None, "tail_esp"),
        ({"operator": "baskakov"}, None, "operator"),
        ({"format": "xml"}, None, "format"),
        ({"points": [0, 1]}, None, "points"),
    ],
)
def test_bad_config_value_exits_2(tmp_path, file_cfg, env, key):
    args = ["eval", "--output", str(tmp_path / "x")]
    if file_cfg is not None:
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(file_cfg))
        args += ["--config", str(cfgfile)]
    cp = run_cli(*args, env_extra=env)
    assert cp.returncode == 2, cp.stderr
    err = json.loads(cp.stderr.strip())["error"]
    assert err["type"] == "ConfigError"
    assert err["exit_code"] == 2
    assert repr(key) in err["message"]


def test_integral_float_accepted_for_integer_options(tmp_path):
    from jainbaskakov import cli

    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"grid_points": 33.0, "seed": 7.0}))
    cfg = cli._resolve(cli.build_parser().parse_args(["eval", "--config", str(cfgfile)]), "eval")
    assert [(cfg[k], type(cfg[k])) for k in ("grid_points", "seed")] == [(33, int), (7, int)]


# one non-default value per EvalConfig field, as the CLI would receive it
_TOLERANCE_VALUES = {
    "tail_eps": 1e-9,
    "quad_rel_tol": 1e-8,
    "grid_points": 65,
    "domain_cap": 12.5,
}


def test_tolerance_values_cover_eval_config():
    import dataclasses

    from jainbaskakov import EvalConfig

    assert set(_TOLERANCE_VALUES) == {f.name for f in dataclasses.fields(EvalConfig)}


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize("key", sorted(_TOLERANCE_VALUES))
def test_every_tolerance_reaches_eval_config(tmp_path, monkeypatch, source, key):
    from jainbaskakov import EvalConfig, cli

    value = _TOLERANCE_VALUES[key]
    argv = ["eval"]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), str(value)]
    elif source == "config":
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfgfile)]
    else:
        monkeypatch.setenv("JAINBASKAKOV_" + key.upper(), str(value))
    ecfg = cli._eval_config(cli._resolve(cli.build_parser().parse_args(argv), "eval"))
    assert getattr(ecfg, key) == value
    assert type(getattr(ecfg, key)) is type(getattr(EvalConfig(), key))
    for other in _TOLERANCE_VALUES:
        if other != key:
            assert getattr(ecfg, other) == getattr(EvalConfig(), other)


def run_main(*argv):
    """``cli.main`` in this process: (exit code, parsed JSON error or None)."""
    from jainbaskakov import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, (json.loads(err.getvalue()) if err.getvalue() else None)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["converge", "--beta-schedule", "bogus"], "beta_schedule"),
        (["bound", "--theorem", "bogus"], "theorem"),
        (["eval", "--operator", "baskakov"], "operator"),
        (["eval", "--format", "xml"], "format"),
        (["eval", "--n", "fifty"], "n"),
    ],
)
def test_bad_flag_value_exits_2(tmp_path, argv, key):
    code, err = run_main(*argv, "--output", str(tmp_path / "x"))
    assert code == 2
    assert err["error"]["type"] == "ConfigError"
    assert repr(key) in err["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["weighted", "--beta", "inv-n"], ["voronovskaja", "--n", "16,32"], ["eval", "--func", "e1"]])
def test_flag_prefix_exits_2(argv):
    # a flag is spelled in full: --beta is not taken for --beta-schedule
    from jainbaskakov import cli

    code, _, err = _parse_exit(cli.build_parser(argv[0]), argv)
    assert code == 2 and "unrecognized arguments" in err


@pytest.mark.parametrize("argv, exit_code", [
    (["--c", "1", "--n-values", "2,4"], 0),
    (["--c", "0.75", "--n-values", "1,2", "--beta-schedule", "const"], 4)])
def test_weighted_majorant_empty_where_n_at_most_2c(tmp_path, argv, exit_code):
    # the e1 majorant 2c/(n-2c) + n beta/((n-2c)(1-beta)) exists for n > 2c
    # only: below it the cell is empty, not a division by zero or a
    # negative number (the second sweep's error does not decrease: exit 4)
    code, err = run_main("weighted", "--function", "recip-sq", *argv,
                         "--output", str(tmp_path / "w"))
    assert (code, err) == (exit_code, None)
    with open(tmp_path / "w.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    c = float(argv[1])
    assert [r["majorant"] == "" for r in rows] == [int(r["n"]) <= 2 * c for r in rows]
    assert all(float(r["majorant"]) > 0 for r in rows if r["majorant"])


@pytest.mark.parametrize("function", ["recip-sq", "e1"])
def test_weighted_large_lambda_runs_without_warnings(tmp_path, function):
    # (1 + x^2)^(1 + lambda) overflows: the weighted ratio there is 0, with
    # no OverflowError (the bounded tail) and no numpy warning (the grid)
    cp = run_cli("weighted", "--function", function, "--lambda", "400",
                 "--n-values", "16,32", "--grid-points", "9", "--output", str(tmp_path / "w"),
                 env_extra={"PYTHONWARNINGS": "error"})
    assert (cp.returncode, cp.stderr) == (0, "")


def test_weighted_tail_bound_past_the_float_range(tmp_path):
    # cap^(-2 - 2 lambda) overflows for a cap below 1: the tail bound of an
    # unbounded f is inf, not an OverflowError, and null in JSON, which has
    # no inf (json.dump would write Infinity)
    argv = ["weighted", "--function", "e1", "--domain-cap", "0.5", "--lambda", "600",
            "--n-values", "16,32", "--grid-points", "9"]
    for fmt in ("csv", "json"):
        assert run_main(*argv, "--format", fmt, "--output", str(tmp_path / fmt)) == (0, None)
    with open(tmp_path / "csv.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["tail_bound"] for r in rows] == ["inf", "inf"]
    assert 0.0 < float(rows[1]["value"]) < float(rows[0]["value"])

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    doc = json.loads((tmp_path / "json.json").read_text(), parse_constant=no_constant)
    assert [r["tail_bound"] for r in doc["rows"]] == [None, None]
    assert [r["value"] for r in doc["rows"]] == [float(r["value"]) for r in rows]


@pytest.mark.parametrize("function", ["recip-sq", "e0", "e1", "exp-neg"])
def test_weighted_cap_past_the_series_cap_exits_3(tmp_path, function):
    # n x at the cap 1e155 puts the law's mean past the v-series cap: a
    # ConvergenceError, with no numpy warning first (recip-sq's square
    # overflows past t = 1.3e154, where f is 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_main("weighted", "--function", function, "--domain-cap", "1e155",
                             "--n-values", "16,32", "--grid-points", "9",
                             "--output", str(tmp_path / "w"))
    assert (code, err["error"]["type"]) == (3, "ConvergenceError")


def test_moments_overflowing_term_bound_exits_3(tmp_path):
    # mbound(v) = 1 + (v/n)^2 overflows at n = 1e-170: a DomainError at the
    # first block, not a scan to the v-series cap through numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_main("moments", "--operator", "jain", "--n", "1e-170", "--x", "1e-150",
                             "--output", str(tmp_path / "m"))
    assert (code, err["error"]["type"]) == (3, "DomainError")
    assert "not finite at v=255, n=1e-170" in err["error"]["message"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_fractional_n_values_exit_2(tmp_path, source):
    argv = ["converge", "--output", str(tmp_path / "c")]
    if source == "flag":
        argv += ["--n-values", "16.9,32.2"]
    else:
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"n_values": "16,32.2"}))
        argv += ["--config", str(cfgfile)]
    code, err = run_main(*argv)
    assert code == 2
    assert err["error"]["type"] == "ConfigError"
    assert repr("n_values") in err["error"]["message"]


@pytest.mark.parametrize("command", ["converge", "voronovskaja", "weighted"])
def test_repeated_n_values_exit_2(tmp_path, command):
    # a typo, not a stalled trend (exit 4)
    code, err = run_main(command, "--n-values", "16,16,32", "--output", str(tmp_path / "r"))
    assert code == 2
    assert err["error"]["type"] == "ConfigError"
    assert repr("n_values") in err["error"]["message"]
    assert not (tmp_path / "r.csv").exists()


def test_direct_bound_on_unbounded_function_exits_3(tmp_path):
    code, err = run_main("bound", "--theorem", "direct", "--function", "e1", "--n", "25",
                         "--grid-points", "5", "--output", str(tmp_path / "b"))
    assert code == 3
    assert (err["error"]["type"], err["error"]["exit_code"]) == ("UnboundedFunctionError", 3)


def test_series_mean_past_the_cap_exits_3_at_once(tmp_path):
    # n x = inf: raised before summing, so no numpy warning reaches stderr
    cp = run_cli("moments", "--n", "10", "--x", "1e308", "--output", str(tmp_path / "m"))
    assert cp.returncode == 3, cp.stderr
    assert "Warning" not in cp.stderr
    assert json.loads(cp.stderr)["error"]["type"] == "ConvergenceError"


def test_growth_moment_past_the_cap_exits_3(tmp_path):
    # the e4 growth correction would overflow at x = 1e308; the cap check
    # runs before it
    code, err = run_main("eval", "--operator", "jain-baskakov", "--function", "e4",
                         "--n", "10", "--points", "1e308", "--output", str(tmp_path / "e"))
    assert code == 3
    assert (err["error"]["type"], err["error"]["exit_code"]) == ("ConvergenceError", 3)


def test_integral_n_values_accepted():
    from jainbaskakov import cli

    vals = cli._n_values({"n_values": "32.0,16"})
    assert vals == [16, 32] and all(type(v) is int for v in vals)


@pytest.mark.parametrize("x", ["-1", "nan"])
def test_moments_bad_x_exits_3(tmp_path, x):
    # a bad x is not a threshold row: the run fails with the domain error
    code, err = run_main("moments", "--n", "10", "--x", x, "--output", str(tmp_path / "m"))
    assert code == 3
    assert err["error"]["type"] == "DomainError"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--points", ","],
        ["converge", "--points", ","],
        ["eval", "--interval", "0:2:0"],
    ],
)
def test_empty_point_list_exits_2(tmp_path, argv):
    code, err = run_main(*argv, "--output", str(tmp_path / "p"))
    assert code == 2
    assert err["error"]["type"] == "ConfigError"
    assert "point list is empty" in err["error"]["message"]
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("theorem", ["rate", "direct"])
@pytest.mark.parametrize("a", ["-1", "-0.5", "0"])
def test_bound_nonpositive_a_exits_3(tmp_path, monkeypatch, theorem, a):
    # the endpoint is rejected by name before any operator value is computed
    from jainbaskakov import analysis

    def no_eval(*args):
        raise AssertionError("evaluated before checking a")

    monkeypatch.setattr(analysis, "eval_jain_baskakov", no_eval)
    code, err = run_main("bound", "--theorem", theorem, "--function", "sin", "--a", a,
                         "--output", str(tmp_path / "b"))
    assert code == 3
    assert err["error"]["type"] == "DomainError"
    assert err["error"]["message"].startswith("interval endpoint a must be positive")
    assert f"got {float(a)}" in err["error"]["message"]


@pytest.mark.parametrize("argv, name", [
    (["bound", "--theorem", "direct", "--function", "sin", "--n", "25", "--a", "1",
      "--grid-points", "5", "--m-const", "nan"], "m_const"),
    (["bound", "--theorem", "direct", "--function", "sin", "--n", "25", "--a", "1",
      "--grid-points", "5", "--m-const", "-5"], "m_const"),
    (["weighted", "--function", "e1", "--lambda", "inf", "--n-values", "16,32",
      "--domain-cap", "8", "--grid-points", "9"], "lambda"),
    (["weighted", "--function", "e1", "--lambda", "nan", "--n-values", "16,32",
      "--domain-cap", "8", "--grid-points", "9"], "lambda"),
    (["eval", "--operator", "jain", "--function", "e1", "--n", "1e-300",
      "--points", "1e-300"], "n*x"),
    (["eval", "--operator", "king", "--function", "e1", "--n", "4e-300", "--c", "1e-300",
      "--beta", "0", "--points", "1e-300"], "r_n(x)"),
])
def test_input_outside_its_domain_exits_3(tmp_path, argv, name):
    code, err = run_main(*argv, "--output", str(tmp_path / "o"))
    assert code == 3
    assert err["error"]["type"] == "DomainError"
    assert err["error"]["message"].startswith(f"{name} must be")
    assert not (tmp_path / "o.csv").exists()


def test_config_key_for_another_subcommand_accepted(tmp_path):
    from jainbaskakov import cli

    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"n": 10, "theorem": "direct"}))
    cfg = cli._resolve(
        cli.build_parser().parse_args(["weighted", "--config", str(cfgfile)]), "weighted"
    )
    assert (cfg["n"], cfg["theorem"]) == (10.0, "direct")


def _command_options():
    from jainbaskakov import cli

    # seed is a flag of bound alone, but a config key of every subcommand
    return [
        (command, name)
        for command, (_, _, names) in cli._COMMANDS.items()
        for name in dict.fromkeys((*names, *cli._COMMON, "seed"))
        if name != "config"
    ]


@pytest.mark.parametrize("command", ["eval", "moments", "converge", "voronovskaja", "weighted"])
def test_seed_flag_only_where_read(command):
    # only bound --theorem direct reads the seed
    from jainbaskakov import cli

    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        cli.build_parser().parse_args([command, "--seed", "3"])
    assert exc.value.code == 2


def _other_value(opt):
    """A value of the option's type other than its default."""
    if opt.choices:
        return next(c for c in opt.choices if c != opt.default)
    if opt.type is str:
        return "7,8"
    return (opt.default or 0) + opt.type(3)


@pytest.mark.parametrize("command, name", _command_options())
def test_every_option_resolves_from_flag_and_config(tmp_path, command, name):
    from jainbaskakov import cli

    opt = cli._OPTIONS[name]
    value = _other_value(opt)
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({name: value}))
    parser = cli.build_parser()
    argvs = [[command, "--config", str(cfgfile)]]
    if name in (*cli._COMMANDS[command][2], *cli._COMMON):
        argvs.append([command, cli._flag(name), str(value)])
    for argv in argvs:
        cfg = cli._resolve(parser.parse_args(argv), command)
        assert cfg[name] == value and type(cfg[name]) is opt.type
        for other, other_opt in cli._OPTIONS.items():
            if other != name:
                default = command if other == "output" else other_opt.default
                assert cfg[other] == default, (argv, other)


def _parse_exit(parser, argv):
    """(exit code, stdout, stderr) of ``parser.parse_args(argv)``, which exits."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(GOLDEN_ARGS))
def test_one_subcommand_parser_matches_the_full_one(command):
    # main builds only the options of the subcommand it is given: the help
    # texts and the error for an unknown flag must not show it
    from jainbaskakov import cli

    full, one = cli.build_parser(), cli.build_parser(command)
    assert one.format_help() == full.format_help()
    for argv in ([command, "--help"], [command, "--bogus", "1"], ["--help"]):
        assert _parse_exit(one, argv) == _parse_exit(full, argv)
    assert _parse_exit(full, [command, "--bogus", "1"])[0] == 2


@pytest.mark.parametrize("argv", [["evaluate", "--n", "3"], ["--n", "3"], []])
def test_main_without_a_subcommand_uses_the_full_parser(argv):
    from jainbaskakov import cli

    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(argv)
    assert (exc.value.code, err.getvalue()) == _parse_exit(cli.build_parser(), argv)[::2]
