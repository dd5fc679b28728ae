"""Quadrature engine: examples and error contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from momentbounds import QuadratureError, QuadratureSettings, integrate
from momentbounds.quadrature import DEFAULT_SETTINGS

# Midpoint Riemann sum, step 1e-6 (independent oracle, frozen):
# int_{-50}^{50} (sin(pi x)/(pi x))^2 dx
RIEMANN_SINC2_50 = 0.9979736173890956


def test_polynomial_antiderivative():
    value, err = integrate(lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert err <= max(DEFAULT_SETTINGS.abs_tol, DEFAULT_SETTINGS.rel_tol * abs(value))


def test_constant_on_unit_interval():
    value, _ = integrate(lambda x: 1.0, 0.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-13)


def test_sinc_squared_truncated_line_matches_riemann_oracle():
    value, _ = integrate(lambda x: np.sinc(x) ** 2, -50.0, 50.0, DEFAULT_SETTINGS)
    assert value == pytest.approx(RIEMANN_SINC2_50, abs=1e-7)
    # full-line value is exactly 1; the |x| > 50 tail is below 1e-2
    assert abs(value - 1.0) < 1e-2


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, math.inf)


def test_nonconvergence_carries_best_estimate():
    settings = QuadratureSettings(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=2)
    with pytest.raises(QuadratureError) as excinfo:
        integrate(lambda x: abs(math.sin(50.0 / (x + 0.01))), 0.0, 1.0, settings)
    assert math.isfinite(excinfo.value.best_estimate)
    assert excinfo.value.err_est > 0


@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    c=st.floats(-2.0, 2.0),
)
@hyp_settings(max_examples=25, deadline=None)
def test_linearity(a, b, c):
    f = lambda x: math.sin(3.0 * x)
    g = lambda x: x * x + c
    lhs, _ = integrate(lambda x: a * f(x) + b * g(x), 0.0, 2.0)
    fa, _ = integrate(f, 0.0, 2.0)
    gb, _ = integrate(g, 0.0, 2.0)
    assert lhs == pytest.approx(a * fa + b * gb, abs=10 * DEFAULT_SETTINGS.abs_tol + 1e-12)


def test_even_symmetry():
    f = lambda x: math.exp(-x * x) * math.cos(2 * x)
    full, _ = integrate(f, -3.0, 3.0)
    half, _ = integrate(f, 0.0, 3.0)
    assert full == pytest.approx(2.0 * half, abs=1e-11)


def test_refinement_monotonicity():
    f = lambda x: math.cos(40.0 * x) / (1.0 + x * x)
    errors = []
    for abs_tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        _, err = integrate(f, 0.0, 5.0, QuadratureSettings(abs_tol=abs_tol, rel_tol=1e-3))
        errors.append(err)
    assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errors, errors[1:]))
