"""The package's public surface: every exported name resolves, and no
module imports a name it never uses."""

import ast
from pathlib import Path

import jainbaskakov


def test_all_names_resolve():
    assert len(set(jainbaskakov.__all__)) == len(jainbaskakov.__all__)
    for name in jainbaskakov.__all__:
        assert getattr(jainbaskakov, name) is not None, name


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
