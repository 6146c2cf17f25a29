"""Registry metadata checks."""

import dataclasses

import numpy as np
import pytest

from jainbaskakov import DomainError, REGISTRY, TestFunction, get_function
from jainbaskakov.functions import _check_derivatives, _check_growth, register, shifted_power

from helpers import combine

EXPECTED_NAMES = {
    "e0", "e1", "e2", "e3", "e4",
    "exp-neg", "sin", "recip-sq", "abs-shift", "t-exp-neg",
}


def test_registry_names_stable():
    assert set(REGISTRY) == EXPECTED_NAMES


def test_alias_lookup():
    assert get_function("sq") is get_function("e2")
    with pytest.raises(KeyError):
        get_function("nope")


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_growth_bounds_hold(name):
    _check_growth(REGISTRY[name])


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_derivatives_match_finite_differences(name):
    _check_derivatives(REGISTRY[name])


def test_bad_growth_declaration_rejected():
    bad = TestFunction("bad", fn=lambda t: np.asarray(t, dtype=float) ** 2, growth_degree=1)
    with pytest.raises(DomainError):
        _check_growth(bad)


def test_bad_derivative_rejected():
    bad = TestFunction(
        "bad",
        fn=lambda t: np.asarray(t, dtype=float) ** 2,
        deriv1=lambda t: 3 * np.asarray(t, dtype=float),
        growth_degree=2,
    )
    with pytest.raises(DomainError):
        _check_derivatives(bad)


def test_kink_function_has_no_derivatives():
    f = get_function("abs-shift")
    assert f.deriv1 is None and f.deriv2 is None
    assert f.growth_degree == 1


def _grid_sup(f):
    """sup |f| over [0, 50] on a grid of step 1e-3, refined to step 1e-7
    around its largest point."""
    t = np.linspace(0.0, 50.0, 50_001)
    vals = np.abs(np.asarray(f.fn(t), dtype=float))
    top = t[int(np.argmax(vals))]
    fine = np.linspace(max(top - 1e-3, 0.0), top + 1e-3, 20_001)
    return max(float(vals.max()), float(np.abs(np.asarray(f.fn(fine), dtype=float)).max()))


def test_envelope_fields():
    assert [fld.name for fld in dataclasses.fields(TestFunction)] == [
        "name", "fn", "deriv1", "deriv2", "growth_degree", "m_bound"]


def test_bounded_metadata():
    # growth degree 0 declares |f| <= m_bound: the registry's bounded
    # functions, each with its sup
    zero = {name for name, f in REGISTRY.items() if f.growth_degree == 0}
    assert zero == {"e0", "exp-neg", "sin", "recip-sq", "t-exp-neg"}
    for name in sorted(zero):
        f = REGISTRY[name]
        assert abs(f.m_bound - _grid_sup(f)) <= 1e-12, name


def test_degree_zero_above_its_bound_refused():
    # 1 + sin t lies within M(1 + t^0) = 2 but not within M = 1
    before = dict(REGISTRY)
    bad = TestFunction("one-plus-sin", fn=lambda t: 1.0 + np.sin(np.asarray(t, dtype=float)),
                       growth_degree=0, m_bound=1.0)
    with pytest.raises(DomainError, match="growth bound M violated"):
        register(bad)
    assert REGISTRY == before


def test_combine_metadata_and_values():
    f = combine("lin", 2.0, get_function("e1"), -0.5, get_function("sin"))
    t = np.linspace(0, 5, 11)
    np.testing.assert_allclose(f.fn(t), 2 * t - 0.5 * np.sin(t), rtol=1e-15)
    assert (f.growth_degree, f.m_bound) == (1, 2.5)
    _check_growth(f)
    _check_derivatives(f)


def test_shifted_power_bound_holds():
    for k in (1, 2, 4):
        for x0 in (0.5, 1.0, 3.0):
            _check_growth(shifted_power(k, x0))
