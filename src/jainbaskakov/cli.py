"""Command-line front end.

Subcommands: eval, moments, converge, voronovskaja, bound, weighted.
Each writes `<output>.csv` (or `.json`) plus a two-column `<output>.plot.dat`
and prints a one-line summary.  Exit codes: 0 ok, 2 invalid configuration,
3 domain/threshold/convergence error, 4 violated bound or trend assertion.

Option values resolve in precedence order: explicit flag > --config file
entry > JAINBASKAKOV_* environment variable (tolerances only) > built-in
default.  All numeric output uses 17 significant digits, so repeated runs
with a fixed configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import analysis
from .errors import DomainError, ConvergenceError
from .functions import get_function, shifted_power
from .moments import (
    closed_moment,
    d_central_moment,
    display_moment,
    king_central_moment,
)
from .operators import eval_operator
from .params import EvalConfig, OperatorKind, OperatorParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_ASSERT = 4

_ENV_PREFIX = "JAINBASKAKOV_"
# The EvalConfig fields: each is a flag, a config key and an environment
# variable, cast to the type of its default.
_TOLERANCES = {f.name: f.default for f in dataclasses.fields(EvalConfig)}


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])


def _jsonable(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _write_json(path, command, config, fieldnames, rows):
    doc = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in config.items()},
        "columns": list(fieldnames),
        "rows": [{k: _jsonable(row[k]) for k in fieldnames} for row in rows],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_plot(path, pairs):
    with open(path, "w") as fh:
        for x, y in pairs:
            fh.write(f"{_fmt(float(x))} {_fmt(float(y))}\n")


def _emit(args, command, config, fieldnames, rows, plot_pairs):
    base = config["output"]
    fmt = config["format"]
    table_path = f"{base}.{fmt}"
    if fmt == "csv":
        _write_csv(table_path, fieldnames, rows)
    else:
        _write_json(table_path, command, config, fieldnames, rows)
    plot_path = f"{base}.plot.dat"
    _write_plot(plot_path, plot_pairs)
    print(f"wrote {table_path} and {plot_path} ({len(rows)} rows)")
    return table_path


def _parse_floats(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}: {exc}") from None


def _parse_points(points, interval):
    if points is not None:
        return _parse_floats(points)
    if interval is not None:
        try:
            lo, hi, num = interval.split(":")
            return list(np.linspace(float(lo), float(hi), int(num)))
        except ValueError as exc:
            raise ConfigError(f"bad interval {interval!r} (want lo:hi:count): {exc}") from None
    return [0.0, 0.5, 1.0, 2.0]


def _schedule(n_values, beta_schedule, beta, l):
    sched = []
    for n in n_values:
        if beta_schedule == "const":
            b = beta
        elif beta_schedule == "inv-n":
            b = 1.0 / n
        elif beta_schedule == "inv-n2":
            b = 1.0 / (n * n)
        elif beta_schedule == "l-over-n":
            b = l / n
        else:
            raise ConfigError(f"unknown beta schedule {beta_schedule!r}")
        sched.append((n, b))
    return sched


def _trend_violation(values) -> bool:
    """True when the sequence fails to strictly decrease (above a noise floor).

    A plateau above the floor counts as a violation: the sweep is supposed to
    converge, and a stalled error is exactly what the trend assertion exists
    to catch.
    """
    for prev, cur in zip(values, values[1:]):
        if cur <= 1e-12:
            continue
        if not cur < prev * (1.0 - 1e-6):
            return True
    return False


# ---------------------------------------------------------------------------
# option resolution


_DEFAULTS = {
    "operator": "jain",
    "function": "e0",
    "n": 50.0,
    "c": 1.0,
    "beta": 0.0,
    "l": 0.0,
    "x": 1.0,
    "a": 2.0,
    "lam": 0.0,
    "m_const": 2.0,
    "theorem": "rate",
    "beta_schedule": "inv-n",
    "n_values": "16,32,64,128",
    "format": "csv",
    "seed": None,
    "points": None,
    "interval": None,
    **_TOLERANCES,
}


def _load_config_file(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


def _number(key, val, cast):
    """``val`` cast to ``cast``; a boolean, or a fractional value for an
    integer option, is a ConfigError rather than 1 or a truncation."""
    fractional = cast is int and isinstance(val, float) and not val.is_integer()
    if not (isinstance(val, bool) or fractional):
        try:
            return cast(val)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"bad value for {key!r}: {val!r}")


def _resolve(args, command):
    """Merge CLI flags, config file, environment and defaults."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    if "command" in file_cfg and file_cfg["command"] != command:
        raise ConfigError(
            f"config file is for command {file_cfg['command']!r}, not {command!r}"
        )
    out = {}
    for key, builtin in _DEFAULTS.items():
        val = getattr(args, key, None)
        if val is None:
            val = file_cfg.get(key)
        if val is None and key in _TOLERANCES:
            val = os.environ.get(_ENV_PREFIX + key.upper())
        if val is None:
            val = builtin
        # numeric options may arrive as strings from config/env
        cast = int if key == "seed" else type(builtin)
        if val is not None and cast in (int, float):
            val = _number(key, val, cast)
        out[key] = val
    out["output"] = args.output or file_cfg.get("output") or command
    if out["format"] not in ("csv", "json"):
        raise ConfigError(f"unknown output format {out['format']!r}")
    return out


def _eval_config(cfg) -> EvalConfig:
    return EvalConfig(**{key: cfg[key] for key in _TOLERANCES})


def _operator_kind(name) -> OperatorKind:
    try:
        return OperatorKind(name)
    except ValueError:
        raise ConfigError(
            f"unknown operator {name!r}; choices: jain, jain-baskakov, king"
        ) from None


def _function(cfg):
    try:
        return get_function(cfg["function"])
    except KeyError as exc:
        raise ConfigError(str(exc)) from None


def _n_values(cfg):
    vals = [int(v) for v in _parse_floats(str(cfg["n_values"]))]
    if len(vals) < 2:
        raise ConfigError("sweeps need at least two n values")
    return sorted(vals)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args):
    cfg = _resolve(args, "eval")
    kind = _operator_kind(cfg["operator"])
    f = _function(cfg)
    params = OperatorParams(cfg["n"], cfg["c"], cfg["beta"])
    ecfg = _eval_config(cfg)
    xs = _parse_points(cfg["points"], cfg["interval"])
    rows = []
    for x in xs:
        res = eval_operator(kind, params, f, float(x), ecfg)
        fx = float(f.fn(float(x)))
        rows.append(
            {
                "x": float(x),
                "value": res.value,
                "fx": fx,
                "error": res.value - fx,
                "v_terms_used": res.v_terms_used,
                "tail_bound": res.est_tail_bound,
            }
        )
    fields = ["x", "value", "fx", "error", "v_terms_used", "tail_bound"]
    _emit(args, "eval", cfg, fields, rows, [(r["x"], r["value"]) for r in rows])
    return EXIT_OK


def _moment_numeric(kind, params, m, x, ecfg):
    return eval_operator(kind, params, get_function(f"e{m}"), x, ecfg).value


def _cmd_moments(args):
    cfg = _resolve(args, "moments")
    kind = _operator_kind(cfg["operator"])
    params = OperatorParams(cfg["n"], cfg["c"], cfg["beta"])
    ecfg = _eval_config(cfg)
    x = cfg["x"]
    rows = []
    worst_exact = 0.0

    def add_row(order, closed, numeric, formula_class, status="ok"):
        nonlocal worst_exact
        rel = (
            abs(closed - numeric) / max(1.0, abs(closed))
            if (closed is not None and numeric is not None)
            else None
        )
        if formula_class == "exact" and rel is not None:
            worst_exact = max(worst_exact, rel)
        rows.append(
            {
                "order": order,
                "x": x,
                "closed_form": closed,
                "numeric": numeric,
                "rel_error": rel,
                "formula_class": formula_class,
                "status": status,
            }
        )

    for m in range(5):
        try:
            closed = closed_moment(kind, params, m, x)
            numeric = _moment_numeric(kind, params, m, x, ecfg)
        except DomainError as exc:
            add_row(m, None, None, "exact", f"threshold: {exc}")
            continue
        add_row(m, closed, numeric, "exact")
        if m in (3, 4):
            disp = display_moment(kind, params, m, x)
            if disp is not None:
                add_row(m, disp, numeric, "asymptotic")

    if kind is not OperatorKind.JAIN:
        central = d_central_moment if kind is OperatorKind.JAIN_BASKAKOV else king_central_moment
        for k in (1, 2, 4):
            try:
                closed = central(params, k, x)
                res = eval_operator(kind, params, shifted_power(k, x), x, ecfg)
            except DomainError as exc:
                add_row(f"mu{k}", None, None, "exact", f"threshold: {exc}")
                continue
            add_row(f"mu{k}", closed, res.value, "exact")

    fields = ["order", "x", "closed_form", "numeric", "rel_error", "formula_class", "status"]
    plot = [
        (i, r["rel_error"])
        for i, r in enumerate(rows)
        if r["formula_class"] == "exact" and r["rel_error"] is not None
    ]
    _emit(args, "moments", cfg, fields, rows, plot)
    if worst_exact > 1e-6:
        print(f"FAIL: worst exact-class rel_error {worst_exact:.3e} > 1e-6")
        return EXIT_ASSERT
    print(f"ok: worst exact-class rel_error {worst_exact:.3e}")
    return EXIT_OK


def _cmd_converge(args):
    cfg = _resolve(args, "converge")
    kind = _operator_kind(cfg["operator"])
    f = _function(cfg)
    sched = _schedule(_n_values(cfg), cfg["beta_schedule"], cfg["beta"], cfg["l"])
    ecfg = _eval_config(cfg)
    xs = _parse_points(cfg["points"], cfg["interval"])
    data = analysis.converge_sweep(kind, sched, cfg["c"], f, xs, ecfg)
    errs = [r[2] for r in data]
    orders = analysis.sweep_orders([r[0] for r in data], errs)
    rows = [
        {"n": n, "beta": b, "sup_error": e, "empirical_order": o}
        for (n, b, e), o in zip(data, orders)
    ]
    fields = ["n", "beta", "sup_error", "empirical_order"]
    _emit(args, "converge", cfg, fields, rows, [(r["n"], r["sup_error"]) for r in rows])
    if _trend_violation(errs):
        print("FAIL: error trend is not decreasing")
        return EXIT_ASSERT
    print("ok: error trend decreasing")
    return EXIT_OK


def _cmd_voronovskaja(args):
    cfg = _resolve(args, "voronovskaja")
    kind = _operator_kind(cfg["operator"])
    f = _function(cfg)
    records = analysis.voronovskaja_sweep(
        kind, cfg["c"], cfg["l"], f, cfg["x"], _n_values(cfg), _eval_config(cfg)
    )
    gaps = [r.gap for r in records]
    orders = analysis.sweep_orders([r.n for r in records], gaps)
    rows = [
        {
            "n": r.n,
            "beta_n": r.beta_n,
            "scaled_error": r.scaled_error,
            "predicted_limit": r.predicted_limit,
            "gap": r.gap,
            "empirical_order": o,
        }
        for r, o in zip(records, orders)
    ]
    fields = ["n", "beta_n", "scaled_error", "predicted_limit", "gap", "empirical_order"]
    _emit(args, "voronovskaja", cfg, fields, rows, [(r["n"], r["gap"]) for r in rows])
    if len(gaps) >= 2 and gaps[-1] >= gaps[0] and gaps[0] > 1e-12:
        print("FAIL: asymptotic gap did not shrink across the sweep")
        return EXIT_ASSERT
    print("ok: asymptotic gap shrinking")
    return EXIT_OK


def _cmd_bound(args):
    cfg = _resolve(args, "bound")
    f = _function(cfg)
    params = OperatorParams(cfg["n"], cfg["c"], cfg["beta"])
    ecfg = _eval_config(cfg)
    a = cfg["a"]
    if cfg["theorem"] == "rate":
        checks = analysis.rate_bound_checks(params, f, a, ecfg)
    elif cfg["theorem"] == "direct":
        xs = np.linspace(0.0, a, ecfg.grid_points)
        if cfg["seed"] is not None:
            rng = np.random.default_rng(cfg["seed"])
            h = a / (ecfg.grid_points - 1)
            xs = np.clip(xs + rng.uniform(-0.25, 0.25, xs.shape) * h, 0.0, a)
        checks = [
            analysis.check_direct_bound(params, f, float(x), ecfg, cfg["m_const"])
            for x in xs
        ]
    else:
        raise ConfigError(f"unknown theorem {cfg['theorem']!r} (want rate|direct)")
    rows = [
        {
            "x": ch.x,
            "lhs": ch.lhs,
            "rhs": ch.rhs,
            "slack": ch.slack,
            "m_required": ch.m_required,
        }
        for ch in checks
    ]
    fields = ["x", "lhs", "rhs", "slack", "m_required"]
    _emit(args, "bound", cfg, fields, rows, [(r["x"], r["slack"]) for r in rows])
    worst = min(ch.slack for ch in checks)
    if worst < -1e-9:
        print(f"FAIL: bound violated, worst slack {worst:.3e}")
        return EXIT_ASSERT
    print(f"ok: worst slack {worst:.3e}")
    return EXIT_OK


def _cmd_weighted(args):
    cfg = _resolve(args, "weighted")
    f = _function(cfg)
    sched = _schedule(_n_values(cfg), cfg["beta_schedule"], cfg["beta"], cfg["l"])
    ests = analysis.weighted_norm_error(sched, cfg["c"], f, cfg["lam"], _eval_config(cfg))
    rows = [
        {
            "n": int(e.n),
            "beta": e.beta,
            "value": e.value,
            "tail_bound": e.tail_bound,
            "majorant": analysis.weighted_majorant_e1(e.n, cfg["c"], e.beta),
        }
        for e in ests
    ]
    fields = ["n", "beta", "value", "tail_bound", "majorant"]
    _emit(args, "weighted", cfg, fields, rows, [(r["n"], r["value"]) for r in rows])
    values = [r["value"] for r in rows]
    if _trend_violation(values):
        print("FAIL: weighted norm error is not decreasing")
        return EXIT_ASSERT
    if f.name == "e1" and cfg["lam"] == 0.0:
        if any(r["value"] > r["majorant"] for r in rows):
            print("FAIL: measured norm exceeds the closed-form majorant")
            return EXIT_ASSERT
    print("ok: weighted norm error decreasing")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--config", help="JSON file with defaults for any option")
    sub.add_argument("--seed", type=int, help="seed for randomized grid jitter")
    sub.add_argument("--format", choices=["csv", "json"], help="table format (default csv)")
    sub.add_argument("--output", help="output base name (default: command name)")
    for key, default in _TOLERANCES.items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default))


def _add_params(sub):
    sub.add_argument("--n", type=float)
    sub.add_argument("--c", type=float)
    sub.add_argument("--beta", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jainbaskakov",
        description=(
            "Evaluate Jain, Jain-Baskakov and King-type positive linear "
            "operators, report closed-form vs numeric moments, and run "
            "convergence/asymptotics/bound sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an operator on points")
    p.add_argument("--operator")
    p.add_argument("--function")
    p.add_argument("--points", help="comma-separated x values")
    p.add_argument("--interval", help="lo:hi:count grid spec")
    _add_params(p)
    _add_common(p)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("moments", help="closed-form vs numeric moment report")
    p.add_argument("--operator")
    p.add_argument("--x", type=float)
    _add_params(p)
    _add_common(p)
    p.set_defaults(run=_cmd_moments)

    p = sub.add_parser("converge", help="sup-error sweep over n")
    p.add_argument("--operator")
    p.add_argument("--function")
    p.add_argument("--n-values", dest="n_values")
    p.add_argument("--beta-schedule", dest="beta_schedule",
                   choices=["const", "inv-n", "inv-n2", "l-over-n"])
    p.add_argument("--l", type=float)
    p.add_argument("--points")
    p.add_argument("--interval")
    _add_params(p)
    _add_common(p)
    p.set_defaults(run=_cmd_converge)

    p = sub.add_parser("voronovskaja", help="scaled-error asymptotics sweep")
    p.add_argument("--operator", help="jain-baskakov or king")
    p.add_argument("--function")
    p.add_argument("--x", type=float)
    p.add_argument("--l", type=float, help="n*beta_n limit (hybrid case)")
    p.add_argument("--n-values", dest="n_values")
    p.add_argument("--c", type=float)
    _add_common(p)
    p.set_defaults(run=_cmd_voronovskaja)

    p = sub.add_parser("bound", help="pointwise theorem-bound checks")
    p.add_argument("--theorem", choices=["rate", "direct"])
    p.add_argument("--function")
    p.add_argument("--a", type=float, help="interval endpoint")
    p.add_argument("--m-const", dest="m_const", type=float,
                   help="absolute constant in the direct bound (default 2)")
    _add_params(p)
    _add_common(p)
    p.set_defaults(run=_cmd_bound)

    p = sub.add_parser("weighted", help="weighted sup-norm convergence sweep")
    p.add_argument("--function")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--n-values", dest="n_values")
    p.add_argument("--beta-schedule", dest="beta_schedule",
                   choices=["const", "inv-n", "inv-n2", "l-over-n"])
    p.add_argument("--l", type=float)
    p.add_argument("--c", type=float)
    _add_common(p)
    p.set_defaults(run=_cmd_weighted)

    return parser


def _error_object(exc, code):
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
    except (ConfigError, KeyError) as exc:
        print(_error_object(exc, EXIT_CONFIG), file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, ConvergenceError) as exc:
        print(_error_object(exc, EXIT_DOMAIN), file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
