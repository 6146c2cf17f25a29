"""Command-line front end.

Subcommands: eval, moments, converge, voronovskaja, bound, weighted.
Each writes `<output>.csv` (or `.json`) plus a two-column `<output>.plot.dat`
and prints a one-line summary.  Exit codes: 0 ok, 2 invalid configuration
(such as a repeated sweep n), 3 domain, threshold, convergence or
unbounded-function error, 4 violated bound or trend assertion.

Every option (`_OPTIONS`) is both a flag and a --config file key.  Values
resolve in precedence order: explicit flag > --config file entry >
JAINBASKAKOV_* environment variable (tolerances only) > built-in default; an
unknown config key or a disallowed value exits 2 whatever its source.  All
numeric output uses 17 significant digits, so repeated runs
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
from typing import NamedTuple, Optional

import numpy as np

from . import analysis
from .errors import ConvergenceError, DomainError, ThresholdError
from .functions import ALIASES, REGISTRY, get_function, shifted_power
from .moments import (
    d_central_moment,
    d_moment_display,
    d_moment_exact,
    jain_moment,
    jain_moment_display,
    king_central_moment,
    king_moment,
    king_moment_display,
)
from .operators import eval_operator
from .params import EvalConfig, OperatorKind, OperatorParams, check_point

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
    if isinstance(value, float) and not math.isfinite(value):  # JSON has no nan or inf
        return None
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


def _points(cfg):
    if cfg["points"] is not None:
        points = _parse_floats(cfg["points"])
    elif cfg["interval"] is not None:
        interval = cfg["interval"]
        try:
            lo, hi, num = interval.split(":")
            points = list(np.linspace(float(lo), float(hi), int(num)))
        except ValueError as exc:
            raise ConfigError(f"bad interval {interval!r} (want lo:hi:count): {exc}") from None
    else:
        points = [0.0, 0.5, 1.0, 2.0]
    if not points:
        raise ConfigError("the point list is empty")
    return points


# beta_n of each sweep schedule, from n, the fixed beta and l
_SCHEDULES = {
    "const": lambda n, beta, l: beta,
    "inv-n": lambda n, beta, l: 1.0 / n,
    "inv-n2": lambda n, beta, l: 1.0 / (n * n),
    "l-over-n": lambda n, beta, l: l / n,
}


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


class _Option(NamedTuple):
    default: object
    type: type
    choices: Optional[tuple] = None
    help: Optional[str] = None


# Every option is a flag (see _flag) and a config-file key; the EvalConfig
# fields also read JAINBASKAKOV_<NAME> from the environment.  `--format json`
# echoes the resolved options in this order.
_OPTIONS = {
    "operator": _Option("jain", str, tuple(kind.value for kind in OperatorKind),
                        "operator family (voronovskaja: jain-baskakov or king)"),
    "function": _Option("e0", str, (*REGISTRY, *ALIASES)),
    "n": _Option(50.0, float),
    "c": _Option(1.0, float),
    "beta": _Option(0.0, float),
    "l": _Option(0.0, float, help="n*beta_n limit (hybrid case, l-over-n schedule)"),
    "x": _Option(1.0, float),
    "a": _Option(2.0, float, help="interval endpoint"),
    "lam": _Option(0.0, float),
    "m_const": _Option(2.0, float, help="absolute constant in the direct bound (default 2)"),
    "theorem": _Option("rate", str, ("rate", "direct")),
    "beta_schedule": _Option("inv-n", str, tuple(_SCHEDULES)),
    "n_values": _Option("16,32,64,128", str),
    "format": _Option("csv", str, ("csv", "json"), "table format (default csv)"),
    "seed": _Option(None, int, help="seed for randomized grid jitter"),
    "points": _Option(None, str, help="comma-separated x values"),
    "interval": _Option(None, str, help="lo:hi:count grid spec"),
    **{key: _Option(default, type(default)) for key, default in _TOLERANCES.items()},
    "output": _Option(None, str, help="output base name (default: command name)"),
}

# --config names the file that the options are read from, so it is a flag of
# every subcommand but not itself an option.
_CONFIG_FLAG = _Option(None, str, help="JSON file with defaults for any option")

# The flags of every subcommand, after its own options.
_COMMON = ("config", "format", "output", *_TOLERANCES)


def _flag(name) -> str:
    return "--lambda" if name == "lam" else "--" + name.replace("_", "-")


def _load_config_file(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


def _cast(key, val, cast):
    """``val`` cast to ``cast``; a boolean, a fractional value for an integer
    option or a non-string for a text option is a ConfigError rather than 1,
    a truncation or a repr."""
    wrong = (
        isinstance(val, bool)
        or (cast is int and isinstance(val, float) and not val.is_integer())
        or (cast is str and not isinstance(val, str))
    )
    if not wrong:
        try:
            return cast(val)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"bad value for {key!r}: {val!r}")


def _resolve(args, command):
    """Merge CLI flags, config file, environment and defaults.

    The one place where option values are cast and checked: a config-file
    key that names no option, and a value of the wrong type or outside an
    option's choices, are ConfigErrors whatever their source.  A key for an
    option that this subcommand does not take is accepted, so that one file
    can serve several subcommands.
    """
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - set(_OPTIONS) - {"command"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    if file_cfg.get("command", command) != command:
        raise ConfigError(
            f"config file is for command {file_cfg['command']!r}, not {command!r}"
        )
    out = {}
    for key, opt in _OPTIONS.items():
        val = getattr(args, key, None)
        if val is None:
            val = file_cfg.get(key)
        if val is None and key in _TOLERANCES:
            val = os.environ.get(_ENV_PREFIX + key.upper())
        if val is None:
            val = opt.default
        else:
            val = _cast(key, val, opt.type)
            if opt.choices is not None and val not in opt.choices:
                raise ConfigError(
                    f"bad value for {key!r}: {val!r}; choices: {', '.join(opt.choices)}"
                )
        out[key] = val
    out["output"] = out["output"] or command
    return out


def _eval_config(cfg) -> EvalConfig:
    return EvalConfig(**{key: cfg[key] for key in _TOLERANCES})


def _n_values(cfg):
    vals = sorted(_cast("n_values", v, int) for v in _parse_floats(cfg["n_values"]))
    if len(vals) < 2:
        raise ConfigError("sweeps need at least two n values")
    if len(set(vals)) < len(vals):
        raise ConfigError(f"bad value for 'n_values': {cfg['n_values']!r} repeats an n")
    return vals


def _schedule(cfg):
    rule = _SCHEDULES[cfg["beta_schedule"]]
    return [(n, rule(n, cfg["beta"], cfg["l"])) for n in _n_values(cfg)]


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved options and returns the table's
# columns, its rows, the plot pairs and the verdict line (None for none).  A
# verdict that starts with "FAIL" is a violated assertion (exit 4).


def _cmd_eval(cfg):
    kind = OperatorKind(cfg["operator"])
    f = get_function(cfg["function"])
    params = OperatorParams(cfg["n"], cfg["c"], cfg["beta"])
    ecfg = _eval_config(cfg)
    fields = ["x", "value", "fx", "error", "v_terms_used", "tail_bound"]
    rows = []
    for x in map(float, _points(cfg)):
        res = eval_operator(kind, params, f, x, ecfg)
        fx = float(f.fn(x))
        values = (x, res.value, fx, res.value - fx, res.v_terms_used, res.est_tail_bound)
        rows.append(dict(zip(fields, values)))
    return fields, rows, [(r["x"], r["value"]) for r in rows], None


def _cmd_moments(cfg):
    kind = OperatorKind(cfg["operator"])
    # (raw, displayed t^3/t^4, central) moments per kind, built at each call
    # so that a patched or traced module binding is the one called
    raw, display, central = {
        OperatorKind.JAIN: (jain_moment, jain_moment_display, None),
        OperatorKind.JAIN_BASKAKOV: (d_moment_exact, d_moment_display, d_central_moment),
        OperatorKind.KING: (king_moment, king_moment_display, king_central_moment),
    }[kind]
    params = OperatorParams(cfg["n"], cfg["c"], cfg["beta"])
    ecfg = _eval_config(cfg)
    x = cfg["x"]
    fields = ["order", "x", "closed_form", "numeric", "rel_error", "formula_class", "status"]
    rows = []

    def add_row(order, closed, numeric, formula_class, status="ok"):
        rel = (
            abs(closed - numeric) / max(1.0, abs(closed))
            if (closed is not None and numeric is not None)
            else None
        )
        values = (order, x, closed, numeric, rel, formula_class, status)
        rows.append(dict(zip(fields, values)))

    # (row label, order, closed form, test function): the raw moments, then the
    # kind's central ones; each test function is looked up after its closed form
    steps = [(m, m, raw, lambda m: get_function(f"e{m}")) for m in range(5)]
    if central is not None:
        steps += [(f"mu{k}", k, central, lambda k: shifted_power(k, x)) for k in (1, 2, 4)]
    # A threshold (n too small for the moment's order) is a row of the report,
    # and so is a display formula that overflows where the exact moment does
    # not; any other DomainError of an exact row, such as a bad x, fails the run.
    for label, m, closed_form, test_fn in steps:
        try:
            closed = closed_form(params, m, x)
            numeric = eval_operator(kind, params, test_fn(m), x, ecfg).value
        except ThresholdError as exc:
            add_row(label, None, None, "exact", f"threshold: {exc}")
            continue
        add_row(label, closed, numeric, "exact")
        if label in (3, 4):  # the raw t^3 and t^4 rows: their displayed formulas
            try:
                disp = display(params, m, x)
            except ThresholdError as exc:
                add_row(m, None, numeric, "asymptotic", f"threshold: {exc}")
            except DomainError as exc:
                add_row(m, None, numeric, "asymptotic", f"overflow: {exc}")
            else:
                add_row(m, disp, numeric, "asymptotic")

    plot = [
        (i, r["rel_error"])
        for i, r in enumerate(rows)
        if r["formula_class"] == "exact" and r["rel_error"] is not None
    ]
    worst = max((rel for _, rel in plot), default=0.0)
    if worst > 1e-6:
        return fields, rows, plot, f"FAIL: worst exact-class rel_error {worst:.3e} > 1e-6"
    return fields, rows, plot, f"ok: worst exact-class rel_error {worst:.3e}"


def _cmd_converge(cfg):
    kind = OperatorKind(cfg["operator"])
    f = get_function(cfg["function"])
    data = analysis.converge_sweep(
        kind, _schedule(cfg), cfg["c"], f, _points(cfg), _eval_config(cfg)
    )
    errs = [r[2] for r in data]
    orders = analysis.sweep_orders([r[0] for r in data], errs)
    fields = ["n", "beta", "sup_error", "empirical_order"]
    rows = [dict(zip(fields, (*r, o))) for r, o in zip(data, orders)]
    plot = [(r["n"], r["sup_error"]) for r in rows]
    if _trend_violation(errs):
        return fields, rows, plot, "FAIL: error trend is not decreasing"
    return fields, rows, plot, "ok: error trend decreasing"


def _cmd_voronovskaja(cfg):
    kind = OperatorKind(cfg["operator"])
    f = get_function(cfg["function"])
    records = analysis.voronovskaja_sweep(
        kind, cfg["c"], cfg["l"], f, cfg["x"], _n_values(cfg), _eval_config(cfg)
    )
    gaps = [r.gap for r in records]
    orders = analysis.sweep_orders([r.n for r in records], gaps)
    fields = ["n", "beta_n", "scaled_error", "predicted_limit", "gap", "empirical_order"]
    rows = [
        dict(zip(fields, (r.n, r.beta_n, r.scaled_error, r.predicted_limit, r.gap, o)))
        for r, o in zip(records, orders)
    ]
    plot = [(r["n"], r["gap"]) for r in rows]
    if len(gaps) >= 2 and gaps[-1] >= gaps[0] and gaps[0] > 1e-12:
        return fields, rows, plot, "FAIL: asymptotic gap did not shrink across the sweep"
    return fields, rows, plot, "ok: asymptotic gap shrinking"


def _cmd_bound(cfg):
    f = get_function(cfg["function"])
    params = OperatorParams(cfg["n"], cfg["c"], cfg["beta"])
    ecfg = _eval_config(cfg)
    a = cfg["a"]
    if cfg["theorem"] == "rate":
        checks = analysis.rate_bound_checks(params, f, a, ecfg)
    else:
        check_point(a, "interval endpoint a", zero_ok=False)
        xs = np.linspace(0.0, a, ecfg.grid_points)
        if cfg["seed"] is not None:
            rng = np.random.default_rng(cfg["seed"])
            h = a / (ecfg.grid_points - 1)
            xs = np.clip(xs + rng.uniform(-0.25, 0.25, xs.shape) * h, 0.0, a)
        checks = [
            analysis.check_direct_bound(params, f, float(x), ecfg, cfg["m_const"])
            for x in xs
        ]
    fields = ["x", "lhs", "rhs", "slack", "m_required"]
    rows = [
        dict(zip(fields, (ch.x, ch.lhs, ch.rhs, ch.slack, ch.m_required)))
        for ch in checks
    ]
    plot = [(r["x"], r["slack"]) for r in rows]
    worst = min(ch.slack for ch in checks)
    if worst < -1e-9:
        return fields, rows, plot, f"FAIL: bound violated, worst slack {worst:.3e}"
    return fields, rows, plot, f"ok: worst slack {worst:.3e}"


def _cmd_weighted(cfg):
    f = get_function(cfg["function"])
    ests = analysis.weighted_norm_error(_schedule(cfg), cfg["c"], f, cfg["lam"], _eval_config(cfg))
    fields = ["n", "beta", "value", "tail_bound", "majorant"]
    rows = []
    for e in ests:
        try:
            majorant = analysis.weighted_majorant_e1(e.n, cfg["c"], e.beta)
        except ThresholdError:  # none where n <= 2c: the cell is left empty
            majorant = None
        rows.append(dict(zip(fields, (int(e.n), e.beta, e.value, e.tail_bound, majorant))))
    plot = [(r["n"], r["value"]) for r in rows]
    if _trend_violation([r["value"] for r in rows]):
        return fields, rows, plot, "FAIL: weighted norm error is not decreasing"
    if f.name == "e1" and cfg["lam"] == 0.0:
        if any(r["value"] > r["majorant"] for r in rows):
            return fields, rows, plot, "FAIL: measured norm exceeds the closed-form majorant"
    return fields, rows, plot, "ok: weighted norm error decreasing"


# ---------------------------------------------------------------------------
# parser


# subcommand -> (help, runner, its own options in --help order)
_COMMANDS = {
    "eval": ("evaluate an operator on points", _cmd_eval,
             ("operator", "function", "points", "interval", "n", "c", "beta")),
    "moments": ("closed-form vs numeric moment report", _cmd_moments,
                ("operator", "x", "n", "c", "beta")),
    "converge": ("sup-error sweep over n", _cmd_converge,
                 ("operator", "function", "n_values", "beta_schedule", "l", "points",
                  "interval", "n", "c", "beta")),
    "voronovskaja": ("scaled-error asymptotics sweep", _cmd_voronovskaja,
                     ("operator", "function", "x", "l", "n_values", "c")),
    "bound": ("pointwise theorem-bound checks", _cmd_bound,
              ("theorem", "function", "a", "m_const", "n", "c", "beta", "seed")),
    "weighted": ("weighted sup-norm convergence sweep", _cmd_weighted,
                 ("function", "lam", "n_values", "beta_schedule", "l", "c")),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; with ``command``, only that one gets
    its options, which is all that parsing its arguments needs."""
    # allow_abbrev=False: a flag is spelled in full, as a prefix such as
    # --beta would otherwise run as --beta-schedule
    parser = argparse.ArgumentParser(
        prog="jainbaskakov",
        allow_abbrev=False,
        description=(
            "Evaluate Jain, Jain-Baskakov and King-type positive linear "
            "operators, report closed-form vs numeric moments, and run "
            "convergence/asymptotics/bound sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (text, run, names) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=text, allow_abbrev=False)
        p.set_defaults(run=run)
        if command not in (None, cmd):
            continue
        for name in (*names, *_COMMON):
            opt = _CONFIG_FLAG if name == "config" else _OPTIONS[name]
            # choices are shown here but checked in _resolve, which also
            # sees the config-file and environment values
            metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
            p.add_argument(_flag(name), dest=name, metavar=metavar, help=opt.help)
    return parser


def _error_object(exc, code):
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        config = _resolve(args, args.command)
        fieldnames, rows, plot_pairs, verdict = args.run(config)
        _emit(args, args.command, config, fieldnames, rows, plot_pairs)
    except ConfigError as exc:
        print(_error_object(exc, EXIT_CONFIG), file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, ConvergenceError) as exc:
        print(_error_object(exc, EXIT_DOMAIN), file=sys.stderr)
        return EXIT_DOMAIN
    if verdict is None:
        return EXIT_OK
    print(verdict)
    return EXIT_ASSERT if verdict.startswith("FAIL") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
