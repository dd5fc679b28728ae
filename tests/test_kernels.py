"""Expectations: closed forms and a brute-force 2-D oracle."""

import numpy as np
import pytest

from momentbounds import (
    SymmetryGroup,
    expectation_1level,
    expectation_2level,
    make_naive,
)

G = SymmetryGroup


# ---- one-level expectations ----


def test_expectation_1level_naive_one(naive_one):
    # transform support inside (-1, 1): both split families give
    # (phihat(0) + phi(0)/2) / phi(0)
    assert expectation_1level(naive_one, G.SO_EVEN) == pytest.approx(1.5, abs=1e-10)
    assert expectation_1level(naive_one, G.SO_ODD) == pytest.approx(1.5, abs=1e-10)
    assert expectation_1level(naive_one, G.U) == pytest.approx(1.0, abs=1e-12)


def test_expectation_1level_o_average(naive_one, naive_third, gen_sinx2):
    for tf in (naive_one, naive_third, gen_sinx2, make_naive(2.0)):
        even = expectation_1level(tf, G.SO_EVEN)
        odd = expectation_1level(tf, G.SO_ODD)
        assert expectation_1level(tf, G.O) == pytest.approx(0.5 * (even + odd), abs=1e-12)


def test_expectation_1level_small_support_identity(naive_third, gen_sinx2):
    for tf in (naive_third, gen_sinx2, make_naive(0.9)):
        expected = (tf.phihat0 + 0.5 * tf.phi0) / tf.phi0
        assert expectation_1level(tf, G.SO_EVEN) == pytest.approx(expected, rel=1e-10)
        assert expectation_1level(tf, G.SO_ODD) == pytest.approx(expected, rel=1e-10)


def test_expectation_1level_wide_support():
    # support beyond (-1, 1): the transform integral truncates at 1
    tf = make_naive(2.0)
    # S = (1/2) int_{-1}^{1} phihat = (1/2) * 2 * int_0^1 (1/2)(1-y/2) = 3/8
    assert expectation_1level(tf, G.SO_EVEN) == pytest.approx(0.5 + 0.375, rel=1e-10)
    assert expectation_1level(tf, G.SP) == pytest.approx(0.5 - 0.375, rel=1e-10)


# ---- two-level expectations ----


def test_expectation_2level_exact_naive_one(naive_one):
    # hand-reduced closed forms for the v=1 pair
    assert expectation_2level(naive_one, naive_one, G.SO_EVEN) == pytest.approx(5.0 / 12.0, abs=1e-10)
    assert expectation_2level(naive_one, naive_one, G.SO_ODD) == pytest.approx(13.0 / 12.0, abs=1e-10)
    assert expectation_2level(naive_one, naive_one, G.U) == pytest.approx(0.5, abs=1e-10)
    assert expectation_2level(naive_one, naive_one, G.SP) == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert expectation_2level(naive_one, naive_one, G.O) == pytest.approx(0.75, abs=1e-10)


def test_expectation_2level_exact_naive_half():
    tf = make_naive(0.5)
    assert expectation_2level(tf, tf, G.SO_EVEN) == pytest.approx(35.0 / 12.0, abs=1e-10)


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
        if group is G.U:
            w2 = 1.0 - K(x - y) ** 2
        else:
            eps = 1.0 if group is G.SO_EVEN else -1.0
            w2 = (1.0 + eps * K(2 * x)) * (1.0 + eps * K(2 * y)) - (K(x - y) + eps * K(x + y)) ** 2
        total += float((p1[i0 : i0 + 1500][:, None] * p2[None, :] * w2).sum()) * w * w
    if group is G.SO_ODD:
        total += float((p2 * (1.0 - K(2 * xs))).sum()) * w
        total += float((p1 * (1.0 - K(2 * xs))).sum()) * w
    return total


@pytest.mark.parametrize("group", [G.U, G.SO_EVEN, G.SO_ODD])
def test_expectation_2level_matches_brute_riemann(group, naive_one):
    # truncation at |x| = 30 loses O(1e-2) mass; the band still separates
    # correct reductions from wrong ones by two orders of magnitude
    brute = _brute_2level(1.0, 1.0, group)
    exact = expectation_2level(naive_one, naive_one, group)
    assert abs(exact - brute) < 0.05


def test_expectation_2level_sanity_floor_u():
    # under U the expectation cannot exceed the uncorrelated product by
    # more than the (negative-definite) pair term allows
    tf1, tf2 = make_naive(0.5), make_naive(0.25)
    val = expectation_2level(tf1, tf2, G.U)
    ceiling = tf1.phihat0 * tf2.phihat0 / (tf1.phi0 * tf2.phi0)
    assert val <= ceiling + 1e-12


def test_expectation_2level_asymmetric_slots():
    a, b = make_naive(0.5), make_naive(0.25)
    assert expectation_2level(a, b, G.SO_ODD) == pytest.approx(
        expectation_2level(b, a, G.SO_ODD), rel=1e-10
    )
