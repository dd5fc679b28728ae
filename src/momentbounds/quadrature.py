"""Numerical integration: one fixed Gauss-Legendre path.

Every transform in the package is a polynomial piece of known degree on
its support (the Fejer triangle is linear, a generator transform is a
chopped Chebyshev series), so every integral of transforms is a
polynomial integral of known degree.  :func:`gauss_legendre` sums it
with the Gauss-Legendre rule of just enough nodes, which is exact up to
rounding: there is no error estimate and no adaptivity.
:func:`legendre_rule` builds every rule in the package, the small ones
of :func:`gauss_legendre`, of the generator transforms and of the
correction term R in :mod:`.moments` as well as the large ones of the
exact finite-N moments in :mod:`.rmt`, with weights accurate to the ends
of the interval.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x)."""
    p_prev, p = np.ones_like(x), x  # P_{k-1}, P_k by the three-term recurrence
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


# Far more sizes than one run uses (19 at most in the benchmark workloads),
# so no rule is built twice.
@lru_cache(maxsize=64)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], accurate to the ends.

    Newton's method from Tricomi's estimates of the roots of P_n, then
    the weights 2 / ((1 - x^2) P_n'(x)^2), all in O(n^2).  numpy's
    leggauss solves a dense eigenproblem in O(n^3), and its end weights
    are off by 7.3e-10 relative at 652 nodes, these by 3.6e-12.
    """
    x = -np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(4):  # from Tricomi's start these reach every root to an ulp (n <= 4000 checked)
        p, dp = _legendre_and_derivative(n, x)
        x -= p / dp
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp**2)
    x.flags.writeable = w.flags.writeable = False  # cached: shared by every caller
    return x, w


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], a: float, b, degree: int
):
    """``int_a^b f(y) dy`` by the Gauss-Legendre rule of ``degree // 2 + 1`` nodes.

    Exact up to rounding when ``f`` is a polynomial of degree at most
    ``degree`` on ``[a, b]``.  ``f`` is called once, on an array of nodes,
    and may broadcast it to a result with leading axes (its last axis over
    the nodes), giving one integral per leading index.  ``b`` may be an
    array of upper limits, giving one integral each (``f`` then sees one
    row of nodes per limit).
    """
    b = np.asarray(b, dtype=float)
    if not (math.isfinite(a) and np.all(np.isfinite(b))):
        raise ValueError("gauss_legendre requires finite endpoints")
    if np.any(b < a):
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    nodes, weights = legendre_rule(degree // 2 + 1)
    half = 0.5 * (b - a)[..., None]
    total = (f(a + half * (nodes + 1.0)) * weights * half).sum(axis=-1)
    return float(total) if total.ndim == 0 else total
