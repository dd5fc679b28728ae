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
``int_0^min(1, s) phihat``: the half transform ``phi(0)/2`` (Fourier
inversion at 0) plus ``R_1 = -int_1^s phihat``, the correction term of
the one function (:func:`.moments.r_term`, 0 for s <= 1).  The SO(odd)
two-level point masses are reduced analytically to one-dimensional
integrals.  For two-level supports, within 1, the pair term is an exact
sum on sigma2's rule (:func:`.testfunc.pair_term`), and the rhombus
{|a| + |b| < 1} is the plane less four disjoint corners, each
``int_1^S phihat_1 * phihat_2 = R_2 / 2``.  R_1, R_2 and the pair term
are each computed once per process for their specs and kept.
"""

from __future__ import annotations

import enum

from .moments import SupportRegimeError, r_term, support_within
from .testfunc import TestFunction, pair_term


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


def _level1_integral(tf: TestFunction, eps: int):
    """``int phi(x) (1 + eps sin(2 pi x)/(2 pi x)) dx = phihat(0) + eps int_0^min(1, s) phihat``,
    with ``int_0^min(1, s) phihat = phi(0)/2 + R_1``."""
    return tf.phihat0 + eps * (0.5 * tf.phi0 + r_term((tf,)))


def expectation_1level(tf: TestFunction, group: SymmetryGroup) -> float:
    """(1/phi(0)) * int phi(x) W_1(x) dx, point masses included."""
    phi0 = tf.phi0
    if not phi0 > 0:
        raise ValueError("expectation_1level needs phi(0) > 0")
    total = _level1_integral(tf, group.sign)
    if group is SymmetryGroup.SO_ODD:
        total += phi0  # the point mass at the origin
    return float(total / phi0)


def expectation_2level(tf1: TestFunction, tf2: TestFunction, group: SymmetryGroup) -> float:
    """(1/Phi(0,0)) * int int phi_1(x) phi_2(y) W_2(x, y) dx dy.

    The determinant gives I_1 I_2 - 2 T - eps (phi_1(0) phi_2(0) - 2 R_2):
    the one-level integrals, the pair term and the rhombus; SO(odd) adds
    the point-mass minors.  The rhombus identity needs both supports
    within 1: a wider one is :class:`SupportRegimeError`, before any integral.
    """
    for tf in (tf1, tf2):
        if not support_within(tf.support_bound, 1.0):
            raise SupportRegimeError(
                f"the two-level expectation needs transform supports within 1; "
                f"{tf.spec_string} has support {tf.support_bound:.12g}")
    norm = tf1.phi0 * tf2.phi0
    if not norm > 0:
        raise ValueError("expectation_2level needs phi_1(0) phi_2(0) > 0")
    eps = group.sign
    i1, i2 = _level1_integral(tf1, eps), _level1_integral(tf2, eps)
    rhombus = norm - 2.0 * r_term((tf1, tf2))
    total = i1 * i2 - (2.0 * pair_term(tf1, tf2) + eps * rhombus)
    if group is SymmetryGroup.SO_ODD:
        # delta(x) K_{-1}(y,y) and delta(y) K_{-1}(x,x) minors
        total += tf1.phi0 * i2 + tf2.phi0 * i1
    return float(total / norm)
