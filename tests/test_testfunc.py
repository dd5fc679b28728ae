"""Test functions: closed forms, autocorrelation, functionals, spec strings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from momentbounds import (
    GeneratorSpec,
    from_spec_string,
    integrate,
    make_from_generator,
    make_naive,
    min_rank,
    sigma2,
)
from momentbounds.quadrature import QuadratureSettings
from momentbounds.testfunc import NaiveTestFunction, TestFunction, parse_rational

# int g and int g^2 for g(x) = sin(x^2) on |x| < 1/8, via scipy.integrate.quad
# at 1e-15/1e-13 tolerances (independent of the package's own machinery).
SINX2_INT_G = 0.0013020606269783766
SINX2_INT_G2 = 1.2206479367578338e-05


def exact_naive_sigma2(v1: float, v2: float) -> float:
    """Closed form of 2 int |y| phihat_{v1} phihat_{v2} dy for triangles."""
    lo, hi = min(v1, v2), max(v1, v2)
    return (lo / (3.0 * hi * hi)) * (2.0 * hi - lo)


# ---- naive family ----


def test_naive_values_at_origin(naive_third):
    assert naive_third.phi0 == pytest.approx(1.0, abs=1e-15)
    assert naive_third.phihat0 == pytest.approx(3.0, abs=1e-12)


def test_naive_triangle_point():
    tf = make_naive(1.0)
    assert float(tf.phihat(0.5)) == pytest.approx(0.5, abs=1e-15)
    assert float(tf.phihat(1.0)) == 0.0


@given(v=st.floats(0.05, 4.0))
@hyp_settings(max_examples=30, deadline=None)
def test_naive_quarter_period_value(v):
    tf = make_naive(v)
    assert float(tf.phi(1.0 / (2.0 * v))) == pytest.approx(4.0 / math.pi**2, rel=1e-12)


def test_naive_rejects_nonpositive_v():
    for v in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            make_naive(v)


# ---- generator-backed construction ----


def test_indicator_generator_reproduces_naive_one():
    # constant generator on (-1/2, 1/2): autocorrelation is the unit
    # triangle, i.e. exactly the v=1 pair
    gen = make_from_generator(GeneratorSpec("polynomial", (1.0,), 0.5))
    naive = make_naive(1.0)
    assert gen.support_bound == pytest.approx(1.0)
    ys = np.linspace(-1.2, 1.2, 241)
    assert np.allclose(gen.phihat(ys), naive.phihat(ys), atol=1e-10)
    xs = np.linspace(-30.0, 30.0, 301)
    assert np.allclose(gen.phi(xs), naive.phi(xs), atol=1e-10)


def test_sinx2_generator_scalars(gen_sinx2):
    assert gen_sinx2.phi0 == pytest.approx(SINX2_INT_G**2, rel=1e-10)
    assert gen_sinx2.phihat0 == pytest.approx(SINX2_INT_G2, rel=1e-10)
    assert gen_sinx2.phi0 == pytest.approx(1.7e-6, rel=0.01)


def test_generator_phihat_even_and_supported(gen_sinx2):
    ys = np.linspace(0.0, 0.3, 100)
    assert np.allclose(gen_sinx2.phihat(ys), gen_sinx2.phihat(-ys), atol=0)
    assert float(gen_sinx2.phihat(0.25)) == 0.0
    assert float(gen_sinx2.phihat(0.3)) == 0.0


def test_zero_integral_generator_rejected():
    # odd generator: integral vanishes, phi(0) = 0
    with pytest.raises(ValueError, match="integrates to zero"):
        make_from_generator(GeneratorSpec("polynomial", (0.0, 1.0), 0.25))
    with pytest.raises(ValueError, match="identically zero"):
        make_from_generator(GeneratorSpec("polynomial", (0.0,), 0.25))


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("unknown-kind", (1.0,), 0.5)
    with pytest.raises(ValueError):
        GeneratorSpec("polynomial", (1.0,), 0.0)
    with pytest.raises(ValueError):
        GeneratorSpec("sin-of-square", (1.0,), 0.5)
    with pytest.raises(ValueError):
        GeneratorSpec("polynomial", (), 0.5)


def test_nonnegativity_on_dense_grid(gen_sinx2, naive_third):
    xs = np.linspace(-100.0, 100.0, 10_000)
    for tf in (gen_sinx2, naive_third, make_naive(2.0)):
        assert float(np.min(tf.phi(xs))) >= -1e-12


def test_support_exact_zero_outside(gen_sinx2, naive_third):
    for tf in (gen_sinx2, naive_third):
        s = tf.support_bound
        ys = np.array([s, s * 1.0001, 2 * s, 10.0])
        assert np.all(tf.phihat(ys) == 0.0)
        assert np.all(tf.phihat(-ys) == 0.0)


def test_fourier_inversion_consistency(gen_sinx2):
    # invert the tabulated transform and compare with the direct
    # |transform of g|^2 evaluation
    settings = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-12)
    for x in (0.0, 0.35, 1.2, 3.7):
        val, _ = integrate(
            lambda y: float(gen_sinx2.phihat(y)) * math.cos(2.0 * math.pi * x * y),
            0.0,
            gen_sinx2.support_bound,
            settings,
        )
        inverted = 2.0 * val
        assert abs(inverted - float(gen_sinx2.phi(x))) < 1e-8


# ---- sigma2 ----


@pytest.mark.parametrize("v", [1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5, 1.0])
def test_sigma2_naive_scale_invariance(v):
    tf = make_naive(v)
    assert sigma2(tf, tf) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_sigma2_cross_naive_closed_form():
    pairs = [(0.25, 1.0 / 3.0), (1.0 / 6.0, 0.5), (0.2, 0.2)]
    for v1, v2 in pairs:
        got = sigma2(make_naive(v1), make_naive(v2))
        assert got == pytest.approx(exact_naive_sigma2(v1, v2), abs=1e-11)
    assert exact_naive_sigma2(0.25, 1.0 / 3.0) == pytest.approx(5.0 / 16.0, abs=1e-15)


def test_sigma2_symmetric(gen_sinx2, naive_quarter):
    assert sigma2(gen_sinx2, naive_quarter) == pytest.approx(
        sigma2(naive_quarter, gen_sinx2), rel=1e-12
    )


class _ShiftedBump(TestFunction):
    """Test double with transform supported away from the origin."""

    def __init__(self):
        self.support_bound = 2.0
        self.spec_string = "test:shifted-bump"

    def phi(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def phihat(self, y):
        y = np.abs(np.asarray(y, dtype=float))
        return np.where((y > 1.0) & (y < 2.0), (y - 1.0) * (2.0 - y), 0.0)


def test_sigma2_disjoint_transform_overlap_is_zero():
    # the bump lives on 1 < |y| < 2, the triangle on |y| < 1/2: the
    # integrand vanishes identically
    assert sigma2(_ShiftedBump(), make_naive(0.5)) == pytest.approx(0.0, abs=1e-14)


# ---- min_rank ----


def test_min_rank_examples(naive_third, gen_sinx2):
    assert min_rank(naive_third) == 4  # ratio 3.5
    assert min_rank(make_naive(0.25)) == 5  # ratio 4.5
    assert min_rank(gen_sinx2) == 8  # ratio 7.69993


def test_min_rank_integer_boundary():
    # ratio exactly 4.0 (v = 2/7): the smallest integer strictly above is 5
    tf = make_naive(2.0 / 7.0)
    assert tf.phihat0 / tf.phi0 + 0.5 == pytest.approx(4.0, abs=1e-12)
    assert min_rank(tf) == 5


# ---- spec strings ----


def test_parse_naive_spec():
    tf = from_spec_string("naive:v=1/3")
    assert isinstance(tf, NaiveTestFunction)
    assert tf.v == pytest.approx(1.0 / 3.0)
    assert from_spec_string("naive:v=0.25").v == 0.25


def test_parse_generator_specs():
    tf = from_spec_string("gen:sinx2:half=1/8")
    assert tf.support_bound == pytest.approx(0.25)
    tf = from_spec_string("gen:poly:1:half=1/2")
    assert tf.support_bound == pytest.approx(1.0)
    tf = from_spec_string("gen:cos:0.3,-0.2,0.1:half=1/8")
    assert tf.support_bound == pytest.approx(0.25)


def test_parse_rejects_bad_specs():
    for bad in ("naive:v=0", "naive:v=-1", "naive", "gen:sinx2", "gen:poly::half=1/2",
                "wavelet:v=1", "naive:v=1/0", ""):
        with pytest.raises(ValueError):
            from_spec_string(bad)


def test_spec_round_trip(gen_sinx2, naive_third):
    for tf in (naive_third, gen_sinx2):
        clone = from_spec_string(tf.spec_string)
        assert clone.spec_string == tf.spec_string
        assert clone.phi0 == pytest.approx(tf.phi0, rel=1e-12)


def test_parse_rational():
    assert parse_rational("1/3") == pytest.approx(1.0 / 3.0)
    assert parse_rational("0.125") == 0.125
    assert parse_rational(" 7/8 ") == 0.875
