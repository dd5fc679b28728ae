"""Deterministic numerical integration engine.

One entry point, :func:`integrate`: adaptive 1-D quadrature on a finite
interval (QUADPACK behind a uniform error contract).  The package's
formulas are compact integrals in transform space, so no infinite or
oscillatory domain needs a path of its own.  :class:`QuadratureSettings`
carries the error budget and :class:`QuadratureError` reports an
integral that did not converge.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy.integrate import quad


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
    """Error budget for a single integral."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_SETTINGS = QuadratureSettings()


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    breakpoints: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Integrate ``f`` over the finite interval ``[a, b]``.

    Returns ``(value, err_est)`` with ``err_est`` bounded by
    ``max(abs_tol, rel_tol * |value|)`` on success.  ``breakpoints``
    marks interior points where the integrand has kinks.

    Raises :class:`QuadratureError` (carrying the best estimate) if the
    subdivision budget is exhausted without convergence.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate requires finite endpoints")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")

    pts = None
    if breakpoints is not None:
        pts = sorted(p for p in breakpoints if a < p < b)
        if not pts:
            pts = None

    value, err, info, *rest = quad(
        f,
        a,
        b,
        epsabs=settings.abs_tol,
        epsrel=settings.rel_tol,
        limit=settings.max_subdivisions,
        points=pts,
        full_output=True,
    )
    if rest:  # QUADPACK signalled trouble: (message,) or (message, explain)
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}]: {rest[0]}",
            best_estimate=value,
            err_est=err,
        )
    if err > max(settings.abs_tol, settings.rel_tol * abs(value)) * 10:
        raise QuadratureError(
            f"error estimate {err:.3e} exceeds tolerance target on [{a}, {b}]",
            best_estimate=value,
            err_est=err,
        )
    return value, err
