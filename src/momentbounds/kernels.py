"""Test-function expectations against the limiting eigenvalue densities
of the classical compact groups.

The one- and two-level densities are built from the sine kernel
``K(y) = sin(pi y)/(pi y)`` and its reflections
``K_eps(x, y) = K(x - y) + eps K(x + y)``:

* SO(even): ``det(K_1)``,
* SO(odd):  ``det(K_-1)`` plus point masses at the origin (the minors of
  the determinant with one index removed),
* O: the average of the two SO cases,
* U: ``det(K_0)``,
* Sp: ``det(K_-1)``.

The densities are never evaluated pointwise: every expectation is
computed in transform space.  For compactly supported ``phihat`` the
oscillatory factor ``sin(2 pi x)/(2 pi x)`` integrates exactly to
``(1/2) int_{-1}^{1} phihat``, which removes all oscillation from the
quadrature.  The SO(odd) two-level point masses are reduced analytically
to one-dimensional integrals.
"""

from __future__ import annotations

import enum

from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, integrate
from .testfunc import TestFunction


class SymmetryGroup(enum.Enum):
    """Classical compact group attached to a family."""

    SO_EVEN = "so-even"
    SO_ODD = "so-odd"
    O = "o"
    U = "u"
    SP = "sp"

    @classmethod
    def from_string(cls, text: str) -> "SymmetryGroup":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(g.value for g in cls)
            raise ValueError(f"unknown symmetry group {text!r} (valid: {valid})") from None

    @property
    def rank_parity(self) -> int | None:
        """Parity of admissible central vanishing orders (None if unconstrained)."""
        if self is SymmetryGroup.SO_EVEN:
            return 0
        if self is SymmetryGroup.SO_ODD:
            return 1
        return None


def _half_transform_integral(
    tf: TestFunction, settings: QuadratureSettings
) -> float:
    """(1/2) int_{-1}^{1} phihat(y) dy == int phi(x) sin(2 pi x)/(2 pi x) dx."""
    upper = min(1.0, tf.support_bound)
    val, _ = integrate(
        lambda y: float(tf.phihat(y)),
        0.0,
        upper,
        settings,
        breakpoints=tf.phihat_breakpoints(),
    )
    return val


def expectation_1level(
    tf: TestFunction,
    group: SymmetryGroup,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """(1/phi(0)) * int phi(x) W_1(x) dx, point masses included."""
    phi0 = tf.phi0
    if not phi0 > 0:
        raise ValueError("expectation_1level needs phi(0) > 0")
    phihat0 = tf.phihat0
    if group is SymmetryGroup.U:
        return phihat0 / phi0
    s = _half_transform_integral(tf, settings)
    if group is SymmetryGroup.SO_EVEN:
        return (phihat0 + s) / phi0
    if group is SymmetryGroup.SO_ODD:
        return (phihat0 - s + phi0) / phi0
    if group is SymmetryGroup.SP:
        return (phihat0 - s) / phi0
    # O: average of the split cases
    even = (phihat0 + s) / phi0
    odd = (phihat0 - s + phi0) / phi0
    return 0.5 * (even + odd)


def _pair_transform_integral(
    tf1: TestFunction, tf2: TestFunction, settings: QuadratureSettings
) -> float:
    """int (1 - |t|)_+ phihat_1(t) phihat_2(t) dt  (== int int Phi K(x-y)^2)."""
    upper = min(1.0, tf1.support_bound, tf2.support_bound)
    if upper <= 0:
        return 0.0
    kinks = sorted(
        {
            p
            for p in (*tf1.phihat_breakpoints(), *tf2.phihat_breakpoints())
            if 0.0 < p < upper
        }
    )
    val, _ = integrate(
        lambda t: (1.0 - t) * float(tf1.phihat(t)) * float(tf2.phihat(t)),
        0.0,
        upper,
        settings,
        breakpoints=kinks,
    )
    return 2.0 * val


def _cross_transform_integral(
    tf1: TestFunction, tf2: TestFunction, settings: QuadratureSettings
) -> float:
    """int int Phi(x, y) K(x-y) K(x+y) dx dy in transform coordinates.

    Writing each kernel factor as the transform of the unit rectangle on
    (-1/2, 1/2) and rotating coordinates gives
    (1/2) * int int phihat_1(a) phihat_2(b) over the rhombus
    {|a| + |b| < 1}.  When the supports fit inside the rhombus the
    integral factorizes into phi_1(0) phi_2(0); otherwise the rhombus is
    integrated as a nested one-dimensional integral (inner integral over
    |a| < 1 - |b|), which keeps every integrand continuous.
    """
    s1, s2 = tf1.support_bound, tf2.support_bound
    if s1 + s2 <= 1.0:
        return 0.5 * tf1.phi0 * tf2.phi0

    def inner(b: float) -> float:
        t = min(1.0 - abs(b), s1)
        if t <= 0.0:
            return 0.0
        kinks = [p for p in tf1.phihat_breakpoints() if 0.0 < p < t]
        val, _ = integrate(
            lambda a: float(tf1.phihat(a)), 0.0, t, settings, breakpoints=kinks
        )
        return 2.0 * val * float(tf2.phihat(b))

    b_max = min(s2, 1.0)
    outer_kinks = sorted(
        {p for p in (*tf2.phihat_breakpoints(), 1.0 - s1) if 0.0 < p < b_max}
    )
    val, _ = integrate(inner, 0.0, b_max, settings, breakpoints=outer_kinks)
    return 0.5 * 2.0 * val


def expectation_2level(
    tf1: TestFunction,
    tf2: TestFunction,
    group: SymmetryGroup,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """(1/Phi(0,0)) * int int phi_1(x) phi_2(y) W_2(x, y) dx dy.

    The 2x2 determinant splits into products of one-dimensional
    transform-space integrals; the SO(odd) point masses contribute the
    two one-dimensional minor terms.
    """
    norm = tf1.phi0 * tf2.phi0
    if not norm > 0:
        raise ValueError("expectation_2level needs phi_1(0) phi_2(0) > 0")
    if group is SymmetryGroup.O:
        even = expectation_2level(tf1, tf2, SymmetryGroup.SO_EVEN, settings)
        odd = expectation_2level(tf1, tf2, SymmetryGroup.SO_ODD, settings)
        return 0.5 * (even + odd)

    t_pair = _pair_transform_integral(tf1, tf2, settings)
    if group is SymmetryGroup.U:
        return (tf1.phihat0 * tf2.phihat0 - t_pair) / norm

    eps = 1 if group is SymmetryGroup.SO_EVEN else -1
    s1 = _half_transform_integral(tf1, settings)
    s2 = _half_transform_integral(tf2, settings)
    i1 = tf1.phihat0 + eps * s1
    i2 = tf2.phihat0 + eps * s2
    cross = _cross_transform_integral(tf1, tf2, settings)
    total = i1 * i2 - (2.0 * t_pair + 2.0 * eps * cross)
    if group is SymmetryGroup.SO_ODD:
        # delta(x) K_{-1}(y,y) and delta(y) K_{-1}(x,x) minors
        total += tf1.phi0 * i2 + tf2.phi0 * i1
    return total / norm
