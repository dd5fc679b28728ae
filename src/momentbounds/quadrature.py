"""Numerical integration: one Gauss-Legendre rule builder, and the
Chebyshev points and DCT that turn values into Chebyshev coefficients.

Every transform in the package is a polynomial piece of known degree on
its support (the Fejer triangle is linear; a generator transform is a
chopped Chebyshev series, from a polynomial basis, sin(t^2)'s Taylor
polynomial or a cosine basis in closed form), so every integral on the
bound path is an exact Gauss-Legendre sum or a closed form: the rule of
just enough nodes (``degree // 2 + 1`` for a polynomial of that degree)
is exact up to rounding, with no error estimate and no adaptivity.
:func:`legendre_rule` builds every rule in the package, the small ones
of sigma2 and the two-level pair term, of the generator transforms and
of the correction term R in :mod:`.moments` (one a call, exact for the
last integral and so for every convolution step; R also gives the
one-level tail past 1 and the two-level rhombus) as well as the large
ones of the exact finite-N moments in :mod:`.rmt`, by the method of Hale & Townsend
(SIAM J. Sci. Comput. 35, 2013): Newton's method in theta = arccos x
from asymptotic roots (Tricomi's expansion in the interior, Olver's
Bessel-zero form near the ends), accurate enough that a rule of 58 or
more nodes takes one three-term recurrence, and the weights
2 / (dP_n/dtheta)^2, accurate to the ends of the interval.  Each rule
is built on its nonnegative half and mirrored, so it is exactly
symmetric.  :func:`chebyshev_points` gives the first-kind Chebyshev
points and the DCT-II matrix of one size, for the basis tables of
:mod:`.testfunc` (128 points) and R's interpolants (one size per degree).

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# j_{0,k}, the first ten zeros of the Bessel function J_0; McMahon's
# expansion gives the later ones to 4.4e-13.
_J0_ZEROS = np.array([
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976,
])


def _bessel_j0_zeros(m: int) -> np.ndarray:
    """j_{0,1}, ..., j_{0,m}."""
    b = (np.arange(1, m + 1) - 0.25) * math.pi
    e = 1.0 / (8.0 * b)
    e2 = e * e
    j = b + e * (1.0 - e2 * (124.0 / 3.0 - e2 * (120928.0 / 15.0 - e2 * 401743168.0 / 105.0)))
    j[:10] = _J0_ZEROS[:m]
    return j


def _start_angles(n: int) -> np.ndarray:
    """Asymptotic angles theta_k of the roots cos(theta_k) >= 0 of P_n, ascending.

    Tricomi's expansion to n^-4 in the interior and Olver's Bessel-zero
    form for the third of the roots nearest x = 1, where it is the closer
    start (Hale & Townsend 2013).
    """
    phi = (np.arange(1, (n + 1) // 2 + 1) - 0.25) * math.pi / (n + 0.5)
    theta = np.arccos(
        (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4))
        * np.cos(phi)
    )
    edge = np.count_nonzero(phi < math.pi / 3)
    rho = n + 0.5
    psi = _bessel_j0_zeros(edge) / rho
    # cos/sin, not tan: paging in numpy's tan loop raised peak memory 0.13 MB
    theta[:edge] = psi + (psi * np.cos(psi) / np.sin(psi) - 1.0) / (8.0 * psi * rho**2)
    return theta


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence.

    From 58 nodes each step is one array expression over all the nodes,
    four to seven times faster than a float loop at the 182 to 326 nodes
    of the finite-N rules.  Below that, where a step over at most 29 nodes
    costs more in numpy's per-call overhead than in arithmetic (the two
    cross near 58), the recurrence runs node by node on Python floats.
    Both paths do the same IEEE double operations in the same order, each
    one correctly rounded, so they agree bit for bit.
    """
    if n >= 58:
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, p_prev
    ps, p_prevs = [], []
    for xj in x.tolist():
        p_prev, p = 1.0, xj
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * xj * p - k * p_prev) / (k + 1)
        ps.append(p)
        p_prevs.append(p_prev)
    return np.array(ps), np.array(p_prevs)


# Far more sizes than one run uses (11 at most in a benchmark workload's
# ops, 10 of them in tables), so no rule is built twice.
@lru_cache(maxsize=64)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], accurate to the ends.

    The method of Hale & Townsend (SIAM J. Sci. Comput. 35, 2013), with
    the recurrence in place of their asymptotic evaluation: Newton's
    method in theta (x = cos theta) on the ceil(n/2) roots with x >= 0,
    started from Tricomi's and Olver's asymptotic roots, until every
    step is below 1e-9.  From these starts that is one three-term
    recurrence for n = 1 and n >= 58, two for n = 3..57 and three for
    n = 2.  Below 58 nodes (every rule of the bound path) the recurrence
    runs on Python floats, from 58 (the finite-N rules of :mod:`.rmt`)
    on arrays; the two paths give the same bits (:func:`_legendre_pair`).
    The weights are 2 / (dP_n/dtheta)^2, the derivative carried
    to the last Newton iterate by the Legendre equation.  The negative
    half is the mirror image, so ``x == -x[::-1]`` and ``w == w[::-1]``
    exactly, with +0.0 the middle node of an odd rule.  Raises
    ValueError for n < 1.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs n >= 1 nodes, got {n}")
    theta = _start_angles(n)
    while True:
        x = np.cos(theta)
        # sin and cot of the angle the recurrence sees, arccos(x), not of
        # theta: rounding cos(theta) moves the angle by up to
        # ulp(1)/sin(theta), and sin(theta) cost the end weights 1.4e-11
        # at 2000 nodes
        sin = np.sqrt((1.0 - x) * (1.0 + x))
        p, p_prev = _legendre_pair(n, x)
        dp = n * (x * p - p_prev) / sin  # dP_n/dtheta
        step = p / dp
        # dP_n/dtheta at theta - step, by P'' = -cot(theta) P' - n(n+1) P
        dp *= 1.0 + step * (x / sin + n * (n + 1) * step)
        theta -= step
        if np.max(np.abs(step)) < 1e-9:
            break
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    w = 2.0 / dp**2
    x = np.concatenate((-x[: n // 2], x[::-1]))
    w = np.concatenate((w[: n // 2], w[::-1]))
    x.flags.writeable = w.flags.writeable = False  # cached: shared by every caller
    return x, w


# One size per degree of a Chebyshev interpolant: the 128 points of the
# basis tables and one per degree of R's steps (8 sizes at most in a
# benchmark workload's ops).
@lru_cache(maxsize=64)
def chebyshev_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev points of the first kind x_j = cos(theta_j),
    theta_j = pi (j + 1/2) / n, and the DCT-II matrix taking values there
    to the coefficients of the degree n - 1 Chebyshev interpolant:
    T_k(cos theta) = cos(k theta), so row k is (2/n) cos(k theta_j), halved
    for k = 0.  One cosine product, no recurrence; read-only, cached."""
    theta = math.pi * (np.arange(n) + 0.5) / n
    dct = np.cos(np.outer(np.arange(n), theta)) * (2.0 / n)
    dct[0] *= 0.5
    x = np.cos(theta)
    x.flags.writeable = dct.flags.writeable = False
    return x, dct
