"""Registry metadata checks."""

import numpy as np
import pytest

from jainbaskakov import DomainError, REGISTRY, TestFunction, get_function
from jainbaskakov.functions import _check_derivatives, _check_growth, shifted_power

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


def test_bounded_metadata():
    for name in ("e0", "exp-neg", "sin", "recip-sq", "t-exp-neg"):
        f = REGISTRY[name]
        assert f.bounded and f.sup_bound is not None
    for name in ("e1", "e2", "e3", "e4", "abs-shift"):
        assert not REGISTRY[name].bounded


def test_combine_metadata_and_values():
    f = combine("lin", 2.0, get_function("e1"), -0.5, get_function("sin"))
    t = np.linspace(0, 5, 11)
    np.testing.assert_allclose(f.fn(t), 2 * t - 0.5 * np.sin(t), rtol=1e-15)
    assert f.growth_degree == 1
    assert not f.bounded
    _check_growth(f)
    _check_derivatives(f)


def test_shifted_power_bound_holds():
    for k in (1, 2, 4):
        for x0 in (0.5, 1.0, 3.0):
            _check_growth(shifted_power(k, x0))
