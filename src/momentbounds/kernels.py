"""Test-function expectations against the limiting eigenvalue densities
of the split orthogonal families.

The one- and two-level densities are built from the sine kernel
``K(y) = sin(pi y)/(pi y)`` and its reflection
``K_eps(x, y) = K(x - y) + eps K(x + y)``, with eps the family's sign:

* SO(even): ``det(K_1)``,
* SO(odd):  ``det(K_-1)`` plus point masses at the origin (the minors of
  the determinant with one index removed).

The densities are never evaluated pointwise: every expectation is
computed in transform space.  For compactly supported ``phihat`` the
oscillatory factor ``sin(2 pi x)/(2 pi x)`` integrates exactly to
``(1/2) int_{-1}^{1} phihat``, which removes all oscillation from the
integrals.  The SO(odd) two-level point masses are reduced analytically
to one-dimensional integrals.  Every integral left is of polynomial
pieces: one of a single transform is read from the antiderivative of
its piece, one of a product from the antiderivative of the product of
the pieces, each re-expanded exactly on the interval of integration.
"""

from __future__ import annotations

import enum

import numpy as np
from numpy.polynomial import chebyshev

from .testfunc import TestFunction


class SymmetryGroup(enum.Enum):
    """Symmetry type: the two split orthogonal families, and U(N), which
    is sampled as a Monte Carlo ensemble only."""

    SO_EVEN = "so-even"
    SO_ODD = "so-odd"
    U = "u"

    @classmethod
    def from_string(cls, text: str) -> "SymmetryGroup":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(g.value for g in cls)
            raise ValueError(f"unknown symmetry group {text!r} (valid: {valid})") from None

    @property
    def sign(self) -> int:
        """Sign of the functional equation of a split family, +1 or -1.

        It is the eps of the family's kernel, the sign its moments give
        the correction term R, and (-1)^r for every central vanishing
        order r it admits.  U carries none: ValueError.
        """
        if self is SymmetryGroup.U:
            raise ValueError("only the split families so-even and so-odd carry a sign, got u")
        return 1 if self is SymmetryGroup.SO_EVEN else -1


def _antiderivative(tf: TestFunction) -> np.ndarray:
    """Chebyshev coefficients on [0, support_bound] of ``P(u) = int_0^u phihat``."""
    return chebyshev.chebint(tf.phihat_coef, lbnd=-1.0, scl=0.5 * tf.support_bound)


def _phihat_integral(tf: TestFunction, u):
    """``int_0^u phihat`` for 0 <= u <= support_bound (a float or an array),
    from the Chebyshev antiderivative of the piece: exact up to rounding.
    At ``u = min(1, support_bound)`` it is ``int phi(x) sin(2 pi x)/(2 pi x) dx``.
    """
    return chebyshev.chebval(u * (2.0 / tf.support_bound) - 1.0, _antiderivative(tf))


def _reexpand(coef: np.ndarray, old: tuple[float, float], new: tuple[float, float]) -> np.ndarray:
    """The Chebyshev series ``coef`` (two or more coefficients) on the
    interval ``old`` re-expanded on ``new``.

    A point u of the new window [-1, 1] is w = off + scl u in the old one,
    so Clenshaw's recurrence in w, run on coefficient arrays in u, gives
    the same polynomial at the same degree, exact up to rounding.  ``old``
    may be reversed.  Interpolating at the Chebyshev points of ``new``
    (``chebinterpolate``) would round even a linear piece: the pair integral
    of naive:v=1 would read 0.4999999999999999, not 0.5.
    """
    (lo, hi), (a, b) = old, new
    scl = (b - a) / (hi - lo)
    off = (a + b - lo - hi) / (hi - lo)
    n = len(coef)

    def times_w(p):  # p has degree below n - 1, so the product fits in n
        half = 0.5 * scl * p  # u T_0 = T_1, u T_k = (T_(k-1) + T_(k+1)) / 2
        out = off * p
        out[1] += half[0]
        out[1:] += half[:-1]
        out[:-1] += half[1:]
        return out

    c0, c1 = np.zeros(n), np.zeros(n)
    c0[0], c1[0] = coef[-2], coef[-1]
    for ck in coef[-3::-1]:
        c0, c1 = -c1, c0 + 2.0 * times_w(c1)
        c0[0] += ck
    return c0 + times_w(c1)


def _piece(tf: TestFunction, a: float, b: float) -> np.ndarray:
    """Chebyshev coefficients of phihat's piece on ``[a, b]`` inside [0, support_bound]."""
    return _reexpand(tf.phihat_coef, (0.0, tf.support_bound), (a, b))


def _integral(coef: np.ndarray, a: float, b: float) -> float:
    """``int_a^b`` of the Chebyshev series ``coef`` on ``[a, b]``: its antiderivative at 1."""
    return float(chebyshev.chebint(coef, lbnd=-1.0, scl=0.5 * (b - a)).sum())


def expectation_1level(tf: TestFunction, group: SymmetryGroup) -> float:
    """(1/phi(0)) * int phi(x) W_1(x) dx, point masses included."""
    phi0 = tf.phi0
    if not phi0 > 0:
        raise ValueError("expectation_1level needs phi(0) > 0")
    eps = group.sign
    total = tf.phihat0 + eps * _phihat_integral(tf, min(1.0, tf.support_bound))
    if group is SymmetryGroup.SO_ODD:
        total += phi0  # the point mass at the origin
    return float(total / phi0)


def _pair_transform_integral(tf1: TestFunction, tf2: TestFunction) -> float:
    """int (1 - |t|)_+ phihat_1(t) phihat_2(t) dt  (== int int Phi K(x-y)^2)."""
    d = min(1.0, tf1.support_bound, tf2.support_bound)
    one_minus = np.array([1.0 - 0.5 * d, -0.5 * d])  # 1 - t on [0, d]
    product = chebyshev.chebmul(chebyshev.chebmul(one_minus, _piece(tf1, 0.0, d)), _piece(tf2, 0.0, d))
    return 2.0 * _integral(product, 0.0, d)


def _cross_transform_integral(tf1: TestFunction, tf2: TestFunction) -> float:
    """int int Phi(x, y) K(x-y) K(x+y) dx dy in transform coordinates.

    Writing each kernel factor as the transform of the unit rectangle on
    (-1/2, 1/2) and rotating coordinates gives
    (1/2) * int int phihat_1(a) phihat_2(b) over the rhombus
    {|a| + |b| < 1}, that is ``int_0^min(s_2, 1) 2 P_1(min(1 - b, s_1))
    phihat_2(b) db`` with ``P_1(u) = int_0^u phihat_1``.  For b up to
    1 - s_1 the inner integral is the whole half transform,
    ``P_1(s_1) = phi_1(0)/2``; beyond it ``P_1(1 - b)`` is the
    antiderivative's series read on the reversed domain [1, 1 - s_1].  So
    the rhombus is ``phi_1(0) P_2(1 - s_1)`` plus the integral of one
    Chebyshev product (none when the supports fit inside the rhombus).
    """
    s1, s2 = tf1.support_bound, tf2.support_bound
    b_max = min(s2, 1.0)
    split = min(max(1.0 - s1, 0.0), b_max)
    full = tf1.phi0 * _phihat_integral(tf2, split)
    if split == b_max:
        return full
    reflected = _reexpand(_antiderivative(tf1), (1.0, 1.0 - s1), (split, b_max))
    return full + 2.0 * _integral(chebyshev.chebmul(reflected, _piece(tf2, split, b_max)), split, b_max)


def expectation_2level(
    tf1: TestFunction, tf2: TestFunction, group: SymmetryGroup
) -> float:
    """(1/Phi(0,0)) * int int phi_1(x) phi_2(y) W_2(x, y) dx dy.

    The 2x2 determinant splits into products of one-dimensional
    transform-space integrals; the SO(odd) point masses contribute the
    two one-dimensional minor terms.
    """
    norm = tf1.phi0 * tf2.phi0
    if not norm > 0:
        raise ValueError("expectation_2level needs phi_1(0) phi_2(0) > 0")
    eps = group.sign
    t_pair = _pair_transform_integral(tf1, tf2)
    i1 = tf1.phihat0 + eps * _phihat_integral(tf1, min(1.0, tf1.support_bound))
    i2 = tf2.phihat0 + eps * _phihat_integral(tf2, min(1.0, tf2.support_bound))
    cross = _cross_transform_integral(tf1, tf2)
    total = i1 * i2 - (2.0 * t_pair + 2.0 * eps * cross)
    if group is SymmetryGroup.SO_ODD:
        # delta(x) K_{-1}(y,y) and delta(y) K_{-1}(x,x) minors
        total += tf1.phi0 * i2 + tf2.phi0 * i1
    return float(total / norm)
