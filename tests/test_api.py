"""The package's public surface: every exported name resolves, no module
imports a name it never uses, scipy loads only with a QUADPACK fallback, the
console script names the CLI's entry point, the README's quick tour
runs, and a failing Hypothesis test is reported as a failure."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jainbaskakov

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_all_names_resolve():
    assert len(set(jainbaskakov.__all__)) == len(jainbaskakov.__all__)
    for name in jainbaskakov.__all__:
        assert getattr(jainbaskakov, name) is not None, name


def test_public_names_are_pinned():
    # adding or removing a public name is a change to this list
    assert sorted(jainbaskakov.__all__) == [
        "BoundCheck", "ConvergenceError", "DomainError", "EvalConfig", "EvalResult",
        "IntegrabilityError", "OperatorKind", "OperatorParams", "REGISTRY",
        "TestFunction", "ThresholdError", "UnboundedFunctionError",
        "VoronovskajaRecord", "WeightedNormEstimate", "__version__", "basis_mass",
        "baskakov_kernel_log", "check_direct_bound", "d_central_moment",
        "d_moment_display", "d_moment_exact", "eval_jain", "eval_jain_baskakov",
        "eval_king", "eval_operator", "get_function", "jain_basis_log", "jain_moment",
        "jain_moment_display", "kernel_integral", "kernel_moment_exact",
        "king_central_moment", "king_moment", "king_moment_display", "king_transform",
        "modulus1", "modulus2", "voronovskaja_sweep", "weighted_norm_error",
    ]


def test_settings_are_pinned():
    # adding or removing a tolerance or a CLI option is a change to these lists
    import dataclasses

    from jainbaskakov import cli

    assert [f.name for f in dataclasses.fields(jainbaskakov.EvalConfig)] == [
        "tail_eps", "quad_rel_tol", "grid_points", "domain_cap",
    ]
    assert sorted(cli._OPTIONS) == [
        "a", "beta", "beta_schedule", "c", "domain_cap", "format", "function",
        "grid_points", "interval", "l", "lam", "m_const", "n", "n_values", "operator",
        "output", "points", "quad_rel_tol", "seed", "tail_eps", "theorem", "x",
    ]


def test_eval_result_fields_are_pinned():
    import dataclasses

    assert [f.name for f in dataclasses.fields(jainbaskakov.EvalResult)] == [
        "x", "value", "v_terms_used", "est_tail_bound", "quad_error_est", "rounding_est",
    ]


def test_star_import():
    namespace = {}
    exec("from jainbaskakov import *", namespace)
    assert set(jainbaskakov.__all__) <= set(namespace)


def test_no_module_imports_a_name_it_never_uses():
    # a name counts as used when the module reads it or lists it in __all__
    src = Path(jainbaskakov.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import jainbaskakov.cli
from jainbaskakov import OperatorParams, eval_jain_baskakov, eval_king, get_function
from jainbaskakov.operators import DEFAULT_CACHE
loaded = [scipy_modules()]
p = OperatorParams(300, 1, 0.1)
for evaluate in (eval_jain_baskakov, eval_king):
    for name in ("e2", "exp-neg"):
        for x in (0.013, 1.0, 3.0):
            DEFAULT_CACHE.clear()
            evaluate(p, get_function(name), x)
loaded.append(scipy_modules())
# at n = 20 the rule in u refuses v = 5 of exp-neg, which QUADPACK computes
eval_jain_baskakov(OperatorParams(20, 1, 0), get_function("exp-neg"), 0.25)
loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def test_scipy_loads_only_for_a_quadpack_fallback():
    # in a fresh interpreter, importing the CLI and cold-cache hybrid and
    # King evaluations whose kernel integrals all pass a rule load no scipy
    # module; the first QUADPACK fallback loads scipy.integrate
    src = str(Path(jainbaskakov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cp = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True,
                        env=env, timeout=120)
    assert cp.returncode == 0, cp.stderr
    after_import, after_rules, after_fallback = json.loads(cp.stdout)
    assert after_import == [] and after_rules == []
    assert "scipy.integrate" in after_fallback


def test_readme_quick_tour_runs():
    # the documented API cannot drift from the code
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})


def test_console_script_names_the_cli_main():
    # pyproject's [project.scripts] is read only at install time: a renamed
    # module or function would install a jainbaskakov that fails at start
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"jainbaskakov": "jainbaskakov.cli:main"}
    module, attr = scripts["jainbaskakov"].split(":")
    assert callable(getattr(importlib.import_module(module), attr))


_FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(i):
    assert i < 10
"""


def test_failing_given_test_reports_a_failure(tmp_path):
    # Hypothesis' failure report imports libcst, which raises a
    # DeprecationWarning; under the repo's filterwarnings it must not turn
    # the failure into an INTERNALERROR that ends the whole run
    pytest.importorskip("libcst")
    (tmp_path / "test_given.py").write_text(_FAILING_GIVEN)
    cp = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_given.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert cp.returncode == 1, cp.stdout + cp.stderr
    assert "INTERNALERROR" not in cp.stdout + cp.stderr
    assert "1 failed" in cp.stdout.splitlines()[-1]
