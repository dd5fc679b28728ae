"""Gauss-Legendre rules: exactness to the stated degree, accuracy to the ends, contracts;
and the Chebyshev points and DCT beside them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from momentbounds import quadrature
from momentbounds.quadrature import legendre_rule

# Midpoint Riemann sum, step 1e-6 (independent oracle, frozen):
# int_{-50}^{50} (sin(pi x)/(pi x))^2 dx
RIEMANN_SINC2_50 = 0.9979736173890956

# The rule sizes of the benchmark workloads: the basis autocorrelation (128),
# the exact finite-N moments (182, 242, 326, 652) and the generator phi (512).
WORKLOAD_SIZES = [128, 182, 242, 326, 512, 652]


def _integral(f, a, b, degree):
    """int_a^b f by the rule exact to ``degree``: ``degree // 2 + 1`` nodes
    mapped from [-1, 1], the way every caller in the package maps them."""
    nodes, weights = map(np.asarray, legendre_rule(degree // 2 + 1))
    half = 0.5 * (b - a)
    return float((f(a + half * (nodes + 1.0)) * weights * half).sum())


def _reference_rule(n):
    """The previous builder, kept as the oracle: Newton's method on all n
    roots from Tricomi's first-order estimates, four steps, then the weights
    2 / ((1 - x^2) P_n'(x)^2), five recurrences in all."""

    def legendre_and_derivative(x):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    x = -np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(4):
        p, dp = legendre_and_derivative(x)
        x -= p / dp
    _, dp = legendre_and_derivative(x)
    return x, 2.0 / ((1.0 - x * x) * dp**2)


def test_polynomial_antiderivative():
    value = _integral(lambda x: x * x, 0.0, 1.0, 2)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0)


def test_constant_on_unit_interval():
    assert _integral(np.ones_like, 0.0, 1.0, 0) == pytest.approx(1.0, rel=1e-15, abs=0)


def test_sinc_squared_truncated_line_matches_riemann_oracle():
    # sinc^2 is entire: a rule of high enough degree integrates it to roundoff
    value = _integral(lambda x: np.sinc(x) ** 2, -50.0, 50.0, 999)
    assert value == pytest.approx(RIEMANN_SINC2_50, abs=1e-7)
    # full-line value is exactly 1; the |x| > 50 tail is below 1e-2
    assert abs(value - 1.0) < 1e-2


@pytest.mark.parametrize("nodes", [128, 512])
def test_exact_to_the_ends_of_the_interval(nodes):
    # ((1 -+ x)/2)^(2n-1) puts all its mass at one end; the n-node rule
    # integrates it exactly, so only rounding separates the sum from 1/n
    degree = 2 * nodes - 1
    for f in (lambda x: ((1.0 - x) / 2.0) ** degree, lambda x: ((1.0 + x) / 2.0) ** degree):
        assert _integral(f, -1.0, 1.0, degree) == pytest.approx(1.0 / nodes, rel=1e-13, abs=0)


@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    c=st.floats(-2.0, 2.0),
)
@hyp_settings(max_examples=25, deadline=None)
def test_linearity(a, b, c):
    f = lambda x: x**3 - 2.0 * x
    g = lambda x: x * x + c
    lhs = _integral(lambda x: a * f(x) + b * g(x), 0.0, 2.0, 3)
    fa = _integral(f, 0.0, 2.0, 3)
    gb = _integral(g, 0.0, 2.0, 3)
    assert lhs == pytest.approx(a * fa + b * gb, abs=1e-13)
    assert fa == pytest.approx(0.0, abs=1e-14)  # int_0^2 x^3 - 2x = 4 - 4
    assert gb == pytest.approx(8.0 / 3.0 + 2.0 * c, abs=1e-14)


def test_even_symmetry():
    f = lambda x: 1.0 + x * x - 3.0 * x**4
    full = _integral(f, -3.0, 3.0, 4)
    half = _integral(f, 0.0, 3.0, 4)
    assert full == pytest.approx(2.0 * half, rel=1e-14)
    assert half == pytest.approx(3.0 + 9.0 - 3.0 * 3.0**5 / 5.0, rel=1e-14)


def test_rule_is_exact_to_its_degree():
    # x^k on [a, b] for every k up to the stated degree; an odd degree
    # 2n - 1 uses n nodes, the fewest that are exact, so x^(2n) is not
    a, b = -0.3, 0.7
    for degree in range(12):
        for k in range(degree + 1):
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            got = _integral(lambda x: x**k, a, b, degree)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-16), (degree, k)
        if degree % 2 == 1:
            k = degree + 1
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert abs(_integral(lambda x: x**k, a, b, degree) - exact) > 1e-6 * abs(exact)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 128, 512, 652])
def test_legendre_rule_exact_at_the_ends(n):
    # ((1 -+ x)/2)^m, m <= 2n - 1, piles its mass onto the end nodes; numpy's
    # leggauss weights miss these integrals by 7.5e-12 at 652 nodes
    x, w = map(np.asarray, legendre_rule(n))
    assert np.all(np.diff(x) > 0) and x.size == n
    for m in sorted({0, n, 2 * n - 1}):
        exact = 2.0 / (m + 1)
        for end in (1.0 - x, 1.0 + x):
            assert w @ (end / 2.0) ** m == pytest.approx(exact, rel=1e-13, abs=0), m


@pytest.mark.parametrize("n", [*range(1, 81), *WORKLOAD_SIZES, 1000, 2000])
def test_legendre_rule_matches_reference(n):
    x, w = map(np.asarray, legendre_rule(n))
    x_ref, w_ref = _reference_rule(n)
    assert np.max(np.abs(x - x_ref)) <= 4e-16
    # the reference's own end weight at 2000 nodes is 4.1e-11 off a
    # 34-digit value (this rule's 3.9e-12), so there the bound is wider
    assert np.max(np.abs(w - w_ref) / w_ref) <= (1e-11 if n <= 1000 else 5e-11)
    # sum_i w_i P_k(x_i) = 2 delta_k0 for every k the rule is exact to
    p_prev, p = np.ones_like(x), x
    moments = [w.sum(), w @ x]
    for k in range(1, 2 * n - 1):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        moments.append(w @ p)
    assert np.max(np.abs(np.array(moments) - 2.0 * (np.arange(2 * n) == 0))) <= 1e-14


@pytest.mark.parametrize("n", [*range(1, 81), *WORKLOAD_SIZES])
def test_legendre_rule_is_mirror_symmetric(n):
    # the finite-N moments keep the nodes x > 0 of an even integrand and
    # fold: that needs exact mirrors
    x, w = map(np.asarray, legendre_rule(n))
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])


@pytest.mark.parametrize("n", [58, 68, 128, 512, 2000])
def test_one_recurrence_from_58_nodes(n, monkeypatch):
    calls = []
    pair = quadrature._legendre_pair
    monkeypatch.setattr(quadrature, "_legendre_pair", lambda m, x: calls.append(m) or pair(m, x))
    legendre_rule.__wrapped__(n)  # bypass the cache
    assert calls == [n]


def _array_legendre_pair(n, x):
    """The recurrence as one array expression per step, kept as the oracle
    of the float path that builds rules below 58 nodes."""
    x = np.array(x)
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p.tolist(), p_prev.tolist()


def test_float_recurrence_builds_the_array_recurrences_rules(monkeypatch):
    # both paths do the same correctly rounded operations in the same
    # order, so every rule is the same to the last bit on either side of 58
    rules = {n: legendre_rule(n) for n in range(1, 201)}
    monkeypatch.setattr(quadrature, "_legendre_pair", _array_legendre_pair)
    for n, (x, w) in rules.items():
        x_ref, w_ref = legendre_rule.__wrapped__(n)  # bypass the cache
        assert x == x_ref and w == w_ref, n


def test_empty_rules_rejected():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            legendre_rule(n)


@pytest.mark.parametrize("n", [1, 2, 5, 24, 45, 96, 128])
def test_chebyshev_points_interpolate_as_chebinterpolate(n):
    # numpy's interpolant at the same first-kind points, through its
    # Vandermonde recurrence, is the reference; the two differ by rounding,
    # which grows by about a unit per degree in either form
    def f(t):
        return np.exp(t) * np.cos(3.0 * t)

    x, dct = quadrature.chebyshev_points(n)
    reference = chebyshev.chebinterpolate(f, n - 1)
    assert np.abs(np.asarray(dct) @ f(np.asarray(x)) - reference).max() <= (n + 1) * 1e-15
    # cached and shared, so immutable
    assert isinstance(x, tuple) and isinstance(dct, tuple)
    assert all(isinstance(row, tuple) for row in dct)
