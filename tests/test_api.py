"""The package's public surface: every exported name resolves."""

import jainbaskakov


def test_all_names_resolve():
    assert len(set(jainbaskakov.__all__)) == len(jainbaskakov.__all__)
    for name in jainbaskakov.__all__:
        assert getattr(jainbaskakov, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from jainbaskakov import *", namespace)
    assert set(jainbaskakov.__all__) <= set(namespace)
