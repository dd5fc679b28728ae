"""Numerical integration: one fixed Gauss-Legendre path.

Every transform in the package is a polynomial piece of known degree on
its support (the Fejer triangle is linear, a generator transform is a
chopped Chebyshev series), so every integral of transforms is a
polynomial integral of known degree.  :func:`gauss_legendre` sums it
with the Gauss-Legendre rule of just enough nodes, which is exact up to
rounding: there is no error estimate and no adaptivity.

The one approximate quantity, the correction term R, is refined on a
grid ladder in :mod:`.moments`; :class:`QuadratureSettings` carries its
relative budget and :class:`QuadratureError` reports a ladder that did
not converge.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when an integral does not converge within budget.

    Carries the best available estimate so callers can decide whether
    to proceed anyway.
    """

    def __init__(self, message: str, best_estimate: float, err_est: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.err_est = err_est


@dataclass(frozen=True)
class QuadratureSettings:
    """Relative error budget of the correction term R."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("tolerances must be positive")


DEFAULT_SETTINGS = QuadratureSettings()


@lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # leggauss solves an eigenproblem; cache it, the rules are reused heavily
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], a: float, b, degree: int
):
    """``int_a^b f(y) dy`` by the Gauss-Legendre rule of ``degree // 2 + 1`` nodes.

    Exact up to rounding when ``f`` is a polynomial of degree at most
    ``degree`` on ``[a, b]``.  ``f`` is called once, on an array of nodes.
    ``b`` may be an array of upper limits, giving one integral each (``f``
    then sees one row of nodes per limit).
    """
    b = np.asarray(b, dtype=float)
    if not (math.isfinite(a) and np.all(np.isfinite(b))):
        raise ValueError("gauss_legendre requires finite endpoints")
    if np.any(b < a):
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    nodes, weights = _leggauss(degree // 2 + 1)
    half = 0.5 * (b - a)[..., None]
    total = (f(a + half * (nodes + 1.0)) * weights * half).sum(axis=-1)
    return float(total) if total.ndim == 0 else total
