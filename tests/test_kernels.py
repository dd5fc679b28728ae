"""Expectations: closed forms and a brute-force 2-D oracle."""

import numpy as np
import pytest

from momentbounds import (
    GeneratorSpec,
    SupportRegimeError,
    SymmetryGroup,
    expectation_1level,
    expectation_2level,
    from_spec_string,
    make_from_generator,
    make_naive,
    r_term,
)
from momentbounds.testfunc import pair_term, sigma2

G = SymmetryGroup


# ---- one-level expectations ----


def test_expectation_1level_naive_one(naive_one):
    # transform support inside (-1, 1): both split families give
    # (phihat(0) + phi(0)/2) / phi(0), exactly: the half transform is
    # phi(0)/2 and R_1 is 0
    assert expectation_1level(naive_one, G.SO_EVEN) == 1.5
    assert expectation_1level(naive_one, G.SO_ODD) == 1.5
    assert type(expectation_1level(naive_one, G.SO_EVEN)) is float


def test_expectation_1level_small_support_identity(naive_third, gen_sinx2):
    for tf in (naive_third, gen_sinx2, make_naive(0.9)):
        expected = (tf.phihat0 + 0.5 * tf.phi0) / tf.phi0
        assert expectation_1level(tf, G.SO_EVEN) == pytest.approx(expected, rel=1e-10)
        assert expectation_1level(tf, G.SO_ODD) == pytest.approx(expected, rel=1e-10)


def test_expectation_1level_wide_support():
    # support beyond (-1, 1): the transform integral truncates at 1
    tf = make_naive(2.0)
    # S = (1/2) int_{-1}^{1} phihat = (1/2) * 2 * int_0^1 (1/2)(1-y/2) = 3/8
    assert expectation_1level(tf, G.SO_EVEN) == 7.0 / 8.0
    # SO(odd): the reflection enters with eps = -1, plus the point mass phi(0)
    assert expectation_1level(tf, G.SO_ODD) == 9.0 / 8.0


def _half_transform(tf) -> float:
    """int_0^s phihat by the Gauss-Legendre rule of phihat's degree, exact."""
    x, w = np.polynomial.legendre.leggauss(tf.phihat_degree // 2 + 1)
    half = 0.5 * tf.support_bound
    return float(w @ tf.phihat(half * (x + 1.0))) * half


@pytest.mark.parametrize("v", [1.0 / 3.0, 1.0])
def test_whole_half_transform_is_half_phi0_naive(v):
    # int_0^s phihat = phi(0)/2 for the Fejer pair, exactly
    tf = make_naive(v)
    assert 2.0 * _half_transform(tf) == tf.phi0


@pytest.mark.parametrize(
    "spec", ["gen:cos:1,0.3:half=0.15", "gen:poly:1,-3,20:half=0.15", "gen:sinx2:half=1/8"]
)
def test_whole_half_transform_is_half_phi0_generator(spec):
    # phi(0) = (c.m)^2 comes from the basis integrals m, phihat from the
    # autocorrelation table: two routes to the same number, which the
    # one-level integral phi(0)/2 + R_1 relies on
    tf = from_spec_string(spec)
    assert 2.0 * _half_transform(tf) == pytest.approx(tf.phi0, rel=1e-14, abs=0)


def _antiderivative(mp, gen: GeneratorSpec):
    """An antiderivative P of the generator g, in mpmath: Fresnel's S for
    sin(t^2), sines for a cosine series, powers for a polynomial."""
    h = mp.mpf(gen.half_support)
    c = [mp.mpf(x) for x in gen.coefficients]
    if gen.kind == "sin-of-square":
        return lambda t: mp.sqrt(mp.pi / 2) * mp.fresnels(t * mp.sqrt(2 / mp.pi))
    if gen.kind == "cosine-series":
        a = mp.pi / (2 * h)
        return lambda t: c[0] * t + sum(ck * mp.sin(k * a * t) / (k * a) for k, ck in enumerate(c) if k)
    return lambda t: sum(ck * t ** (k + 1) / (k + 1) for k, ck in enumerate(c))


def _generator(mp, gen: GeneratorSpec):
    h = mp.mpf(gen.half_support)
    c = [mp.mpf(x) for x in gen.coefficients]
    if gen.kind == "sin-of-square":
        return lambda t: mp.sin(t * t)
    if gen.kind == "cosine-series":
        return lambda t: sum(ck * mp.cos(k * mp.pi * t / (2 * h)) for k, ck in enumerate(c))
    return lambda t: sum(ck * t**k for k, ck in enumerate(c))


@pytest.mark.parametrize("spec", [
    "gen:sinx2:half=1", "gen:sinx2:half=3/4", "gen:poly:1,-1:half=0.7",
    "gen:poly:1,0,-2:half=1", "gen:cos:1,0.3:half=0.9", "gen:cos:1:half=0.6",
])
def test_expectation_1level_past_support_one_matches_mpmath(spec):
    # supports 2h in (1, 2]: int_0^1 phihat = int g(t) [P(t) - P(max(-h, t - 1))] dt,
    # P an antiderivative of g, against phi(0)/2 + R_1 in the package
    mpmath = pytest.importorskip("mpmath")
    tf = from_spec_string(spec)
    assert 1.0 < tf.support_bound <= 2.0
    with mpmath.workdps(30):
        g, big_p = _generator(mpmath, tf.generator), _antiderivative(mpmath, tf.generator)
        h = mpmath.mpf(tf.generator.half_support)
        phi0 = (big_p(h) - big_p(-h)) ** 2
        phihat0 = mpmath.quad(lambda t: g(t) ** 2, [-h, 0, h])
        head = mpmath.quad(lambda t: g(t) * (big_p(t) - big_p(-h)), [-h, 1 - h])
        tail = mpmath.quad(lambda t: g(t) * (big_p(t) - big_p(t - 1)), [1 - h, h])
        for group, eps in ((G.SO_EVEN, 1), (G.SO_ODD, -1)):
            exact = (phihat0 + eps * (head + tail) + (phi0 if eps < 0 else 0)) / phi0
            assert abs(expectation_1level(tf, group) / exact - 1) <= 4e-15, group


def test_expectations_refuse_u(naive_one):
    # U(N) is a Monte Carlo ensemble only: it carries no split sign
    with pytest.raises(ValueError, match="split"):
        expectation_1level(naive_one, G.U)
    with pytest.raises(ValueError, match="split"):
        expectation_2level(naive_one, naive_one, G.U)


# ---- two-level expectations ----


def test_expectation_2level_exact_naive_one(naive_one):
    # hand-reduced closed forms for the v=1 pair
    assert expectation_2level(naive_one, naive_one, G.SO_EVEN) == pytest.approx(5.0 / 12.0, rel=1e-15)
    assert expectation_2level(naive_one, naive_one, G.SO_ODD) == pytest.approx(13.0 / 12.0, rel=1e-15)


@pytest.mark.parametrize("specs", [("naive:v=1", "naive:v=3/2"), ("naive:v=3/2", "naive:v=1/2"),
                                   ("naive:v=3/2", "gen:cos:1,0.3:half=0.6")])
def test_expectation_2level_refuses_a_support_above_one(specs, monkeypatch):
    # the rhombus is phi_1(0) phi_2(0) - 2 R_2 only for supports within 1:
    # past it, one support or both, E_2 is refused before any integral
    def refuse(*args):
        raise AssertionError("integrated past support 1")

    for name in ("r_term", "pair_term"):
        monkeypatch.setattr(f"momentbounds.kernels.{name}", refuse)
    a, b = (from_spec_string(spec) for spec in specs)
    for group in (G.SO_EVEN, G.SO_ODD):
        with pytest.raises(SupportRegimeError, match="^the two-level expectation needs transform "
                           "supports within 1; naive:v=1.5 has support 1.5$"):
            expectation_2level(a, b, group)


def test_expectation_2level_exact_naive_half():
    tf = make_naive(0.5)
    assert expectation_2level(tf, tf, G.SO_EVEN) == pytest.approx(35.0 / 12.0, rel=1e-15)
    assert expectation_2level(tf, tf, G.SO_ODD) == pytest.approx(47.0 / 12.0, rel=1e-15)
    assert type(expectation_2level(tf, tf, G.SO_ODD)) is float


def _brute_2level(v1: float, v2: float, group: SymmetryGroup, L: float = 30.0, n: int = 6000):
    """Midpoint Riemann sum of the smooth part plus analytic delta minors."""
    xs = (np.arange(n) + 0.5) * (2 * L / n) - L
    w = 2 * L / n
    p1 = np.sinc(v1 * xs) ** 2
    p2 = np.sinc(v2 * xs) ** 2
    K = np.sinc
    total = 0.0
    for i0 in range(0, n, 1500):
        x = xs[i0 : i0 + 1500][:, None]
        y = xs[None, :]
        eps = 1.0 if group is G.SO_EVEN else -1.0
        w2 = (1.0 + eps * K(2 * x)) * (1.0 + eps * K(2 * y)) - (K(x - y) + eps * K(x + y)) ** 2
        total += float((p1[i0 : i0 + 1500][:, None] * p2[None, :] * w2).sum()) * w * w
    if group is G.SO_ODD:
        total += float((p2 * (1.0 - K(2 * xs))).sum()) * w
        total += float((p1 * (1.0 - K(2 * xs))).sum()) * w
    return total


@pytest.mark.parametrize("group", [G.SO_EVEN, G.SO_ODD])
def test_expectation_2level_matches_brute_riemann(group, naive_one):
    # truncation at |x| = 30 loses O(1e-2) mass; the band still separates
    # correct reductions from wrong ones by two orders of magnitude
    brute = _brute_2level(1.0, 1.0, group)
    exact = expectation_2level(naive_one, naive_one, group)
    assert abs(exact - brute) < 0.05


def test_expectation_2level_asymmetric_slots():
    a, b = make_naive(0.5), make_naive(0.25)
    assert expectation_2level(a, b, G.SO_ODD) == pytest.approx(
        expectation_2level(b, a, G.SO_ODD), rel=1e-10
    )
    # supports summing past 1: the rhombus is phi_1(0) phi_2(0) - 2 R_2, and
    # R_2 convolves the end pieces in slot order, so swapping slots of
    # different degree takes a different path to the same value
    c = make_from_generator(GeneratorSpec("polynomial", (1.0, -3.0, 20.0, 0.5), 0.3))
    d = make_from_generator(GeneratorSpec("cosine-series", (1.0, 0.5), 0.35))
    for group in (G.SO_EVEN, G.SO_ODD):
        assert expectation_2level(c, d, group) == pytest.approx(
            expectation_2level(d, c, group), rel=1e-13
        )


def _dense(f, a, b, n=100):
    """int_a^b f by a 100-node Gauss-Legendre rule, far above every degree here."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return float((f(a + half * (x + 1.0)) * w).sum() * half)


@pytest.mark.parametrize(
    "spec",
    [
        # beside the naive triangle: a polynomial phihat of degree 7 with a
        # large top coefficient, and an entire one chopped at degree 12
        GeneratorSpec("polynomial", (1.0, -3.0, 20.0, 0.5), 0.3),
        GeneratorSpec("sin-of-square", (), 0.125),
    ],
)
def test_transform_integrals_match_dense_reference(spec):
    g = make_from_generator(spec)
    naive = make_naive(0.9)
    for a, b in ((g, naive), (naive, g)):
        s = min(a.support_bound, b.support_bound)
        ref = 4.0 * _dense(lambda y: y * a.phihat(y) * b.phihat(y), 0.0, s)
        assert sigma2(a, b) == pytest.approx(ref, rel=1e-13, abs=0)
        u = min(1.0, s)
        ref = 2.0 * _dense(lambda t: (1.0 - t) * a.phihat(t) * b.phihat(t), 0.0, u)
        assert pair_term(a, b) == pytest.approx(ref, rel=1e-13, abs=0)
        # the rhombus |alpha| + |beta| < 1, one quadrant integrated directly:
        # outer over the first transform, split where 1 - alpha meets s_2.
        # The supports sum past 1, so R_2 is not zero
        s1, s2 = a.support_bound, b.support_bound
        inner = lambda al: np.array([_dense(b.phihat, 0.0, min(1.0 - v, s2)) for v in al])
        kink = min(max(1.0 - s2, 0.0), s1)
        ref = 4.0 * sum(
            _dense(lambda al: a.phihat(al) * inner(al), lo, hi)
            for lo, hi in ((0.0, kink), (kink, min(s1, 1.0)))
        )
        assert r_term((a, b)) > 0
        assert a.phi0 * b.phi0 - 2.0 * r_term((a, b)) == pytest.approx(ref, rel=1e-13, abs=0)
