"""Generalized centered moments of the one-level statistic.

For test functions ``phi_1, ..., phi_n`` the n-th centered moment of the
family statistic is, in the appropriate support regime,

* even n = 2m: a sum over the (2m-1)!! perfect matchings of
  ``{1, ..., 2m}`` of products of pairwise variances
  ``sigma2(phi_a, phi_b)`` -- the hafnian of the sigma2 matrix, computed
  by one loop over levels of states, a state being how many copies of
  each distinct function are left (test functions with equal specs are
  one function, however they were built), so 2m identical functions cost
  m + 1 states (capped by ``MAX_MATCHING_STATES``) -- plus a correction
  term ``R_n`` carrying the family's sign (a compact transform-space
  integral over the transforms' end pieces, exact up to rounding, see
  :func:`r_term`),
* odd n: the correction term alone (or zero).

Two support regimes are implemented:

* ``with_R``: every transform supported within ``1/(n-1)``; the moment is
  the matching sum +R for the even family and -R for the odd one,
* ``mock_gaussian``: every transform supported within
  ``(1/n) * (2k-1)/k`` for modular weight k; the correction drops and the
  moments are exactly Gaussian (matching sums, zero for odd n).

``auto`` resolves to ``mock_gaussian`` whenever its support condition
holds, else to ``with_R``.  Support bounds are compared inclusively
(:func:`support_within`): transforms vanish at their support endpoints,
which satisfies the open interval hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .quadrature import chebyshev_points, legendre_rule
from .testfunc import TestFunction, sigma2, spec_order

if TYPE_CHECKING:  # kernels reads r_term, so moments imports nothing of kernels at run time
    from .kernels import SymmetryGroup

# A matching sum is refused before any sigma2 work when its levels could
# hold more than MAX_MATCHING_STATES states: prod(count + 1) over the
# distinct functions bounds them (24 distinct functions reach 75,025
# states in about 0.18 s, and 2m identical ones m + 1).
MAX_MATCHING_STATES = 2**24

REGIMES = ("auto", "with_R", "mock_gaussian")
_THRESHOLD_FORMULAS = {"with_R": "1/(n-1)", "mock_gaussian": "(2k-1)/(nk)"}


class SupportRegimeError(ValueError):
    """A transform support exceeds the threshold of the requested regime."""


class UncertifiedBoundError(ArithmeticError):
    """A moment, or a bound's numerator or denominator, left the
    floating-point range, or a bound's numerator came out zero, subnormal
    or negative, so the number would certify nothing and none is reported."""


def support_threshold(regime: str, n: int, weight_k: int = 2) -> float:
    """Largest transform support the regime's hypothesis admits at moment order n.

    The thresholds are the support hypotheses of the moment formulas for
    general n, which rest on the centered-moment theorem of Hughes and
    Miller, "Low-lying zeros of L-functions with orthogonal symmetry",
    Duke Math. J. 136 (2007), 115-172: within 1/(n-1) (``with_R``) the
    n-th centered moment is the matching sum plus the signed correction
    R_n; within (2k-1)/(nk) for weight k (``mock_gaussian``) the
    correction is dropped.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    with_r = 1.0 / (n - 1)
    mock = (2.0 * weight_k - 1.0) / (n * weight_k)
    return {"with_R": with_r, "mock_gaussian": mock, "auto": max(with_r, mock)}[regime]


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ... down to 1 or 2."""
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


@dataclass(frozen=True)
class MomentRequest:
    """Inputs of a centered-moment evaluation.

    ``weight_k`` is the modular weight entering the mock-Gaussian support
    threshold ``(2k-1)/(nk)``; the default 2 gives the most conservative
    value ``3/(2n)``.
    """

    test_functions: tuple[TestFunction, ...]
    family: SymmetryGroup
    weight_k: int = 2
    regime: str = "auto"

    def __post_init__(self):
        object.__setattr__(self, "test_functions", tuple(self.test_functions))
        if len(self.test_functions) < 2:
            raise ValueError("centered moments need n >= 2 test functions")
        self.family.sign  # raises ValueError for u, which has no split sign
        if self.weight_k < 2:
            raise ValueError("weight_k must be an integer >= 2")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")

    @property
    def n(self) -> int:
        return len(self.test_functions)


@dataclass(frozen=True)
class MomentResult:
    """value = matching_sum + sign_applied * r_term."""

    value: float
    matching_sum: float
    r_term: float
    sign_applied: int
    regime: str


def support_within(support: float, threshold: float) -> bool:
    """Inclusive support comparison, with a relative slack of 1e-12 for
    rounding in rational supports: phihat vanishes at its support
    endpoints, which satisfies the open-interval hypotheses."""
    return support <= threshold * (1.0 + 1e-12)


def r_term(tfs: Sequence[TestFunction]) -> float:
    """Correction term splitting the even from the odd family:
    ``R = (-1)^n 2^(n-1) int_1^S (phihat_1 * ... * phihat_n)(y) dy``, S the
    sum of the transform supports s_j, so R is exactly 0 when S <= 1.  For
    one function it is ``R_1 = -int_1^s phihat``, the one-level tail.

    Otherwise ``delta = S - 1 <= s_j`` for every j (the with_R hypothesis
    implies it), so ``y >= 1`` forces each ``y_j >= s_j - delta >= 0``: only
    the end pieces ``phihat_j(s_j - delta t)``, 0 <= t <= 1, enter, each a
    single polynomial, and R is ``(-1)^n 2^(n-1) delta^n`` times the
    integral over [0, 1] of their n-fold convolution.  Each transform
    vanishes at its support end, so its end piece is ``t P_j(t)`` (a
    Legendre division by ``1 - x``, once per distinct function), and the
    convolution of m end pieces is ``t^(2m-1) H_m(t)``.  Each H_m is a
    polynomial of known degree, kept as its Chebyshev interpolant on
    [0, 1]: its values at the first-kind Chebyshev points, each a
    Gauss-Legendre sum over H_(m-1), taken to coefficients by one cosine
    (DCT-II) product.  One rule, exact for the final t^(2n-1) H_n and so
    at every step, serves all, and the functions are convolved in spec
    order, so R is exact up to rounding and free of the slot order.  For
    Fejer triangles ``P_j = delta / v_j^2`` and
    ``R = (-1)^n 2^(n-1) delta^(2n) / ((2n)! prod_j v_j^2)``.  For n
    copies of naive:v=1/(n-1), R is within 4e-13 of its Irwin-Hall value
    at n = 48; at n = 96 R is about 1e-328 and underflows to 0.0, an
    error below 1e-300 of the matching sum (about 4e51).  Raises
    :class:`SupportRegimeError` when ``delta`` exceeds a support, where
    the end pieces do not cover the tail, and
    :class:`UncertifiedBoundError` when R overflows on the way.  The
    convolution steps are the one part of the bound path on arrays, so R
    of supports summing past 1 is the one quantity that loads numpy.

    A test function is its spec, so R is computed once per process for
    each spec-ordered slot tuple and kept (:func:`_r_term`); a refusal is
    not kept.
    """
    if not tfs:
        raise ValueError("r_term needs at least one test function")
    return _r_term(tuple(spec_order(tfs)))


# Tables, level bounds and Monte Carlo predictions read the same few slot
# sets again and again, far fewer than this per process.
@lru_cache(maxsize=256)
def _r_term(tfs: tuple[TestFunction, ...]) -> float:
    """:func:`r_term` of a spec-ordered slot tuple, computed once per process."""
    n = len(tfs)
    supports = [tf.support_bound for tf in tfs]
    total = math.fsum(supports)
    if support_within(total, 1.0):
        return 0.0
    delta = total - 1.0
    if not support_within(delta, min(supports)):
        raise SupportRegimeError(
            f"R in closed form needs S - 1 = {delta:.6g} within every support; "
            f"the smallest is {min(supports):.6g}"
        )
    # the convolution steps run on arrays; numpy is loaded only here
    import numpy as np
    from numpy.polynomial import chebyshev, legendre

    # phihat at x = 2y/s - 1 is (1 - x) Q(x) + phihat(s), and phihat(s) = 0
    quotients = {
        tf: legendre.legdiv(tf.phihat_coef, (1.0, -1.0))[0] for tf in dict.fromkeys(tfs)
    }

    def end_factor(tf: TestFunction, t: np.ndarray) -> np.ndarray:
        r = 2.0 * delta / tf.support_bound  # y = s - delta t is x = 1 - r t
        return r * legendre.legval(1.0 - r * t, quotients[tf])

    # an overflow gives inf or nan, refused below, never a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # h: Chebyshev coefficients of H_m on [0, 1], in x = 2t - 1
        degree = tfs[0].phihat_degree - 1
        x, dct = _chebyshev_arrays(degree + 1)
        h = dct @ end_factor(tfs[0], 0.5 * (x + 1.0))
        # exact for t^(2n-1) H_n, so at every step's lower degree 2m + deg H_(m+1)
        nodes, weights = map(np.array, legendre_rule(
            (2 * n - 1 + sum(tf.phihat_degree - 1 for tf in tfs)) // 2 + 1))
        w = 0.5 * (nodes + 1.0)
        for m, tf in enumerate(tfs[1:], start=1):
            degree += tf.phihat_degree - 1
            x, dct = _chebyshev_arrays(degree + 1)
            # H_(m+1)(t) = int_0^1 w^(2m-1) (1 - w) H_m(t w) P(t (1 - w)) dw at
            # the interpolation points, one row per t
            t = 0.5 * (x[:, None] + 1.0)
            vals = (w ** (2 * m - 1) * (1.0 - w) * chebyshev.chebval(2.0 * t * w - 1.0, h)
                    * end_factor(tf, t * (1.0 - w)))
            h = dct @ (vals @ (0.5 * weights))
        vals = w ** (2 * n - 1) * chebyshev.chebval(2.0 * w - 1.0, h)
        integral = float((vals * weights * 0.5).sum())
    value = (-1.0) ** n * 2.0 ** (n - 1) * delta**n * integral
    if not math.isfinite(value):
        labels = ", ".join(tf.spec_string for tf in dict.fromkeys(tfs))
        raise UncertifiedBoundError(f"R of {labels} overflows: {value!r}")
    return value


@lru_cache(maxsize=64)
def _chebyshev_arrays(n: int):
    """:func:`.quadrature.chebyshev_points` as read-only arrays, for R's steps."""
    import numpy as np

    x, dct = map(np.array, chebyshev_points(n))
    x.flags.writeable = dct.flags.writeable = False
    return x, dct


def _resolve_regime(req: MomentRequest) -> str:
    """The requested regime, or for auto the first of mock_gaussian and
    with_R whose support threshold admits every transform."""
    largest = max(tf.support_bound for tf in req.test_functions)
    candidates = ("mock_gaussian", "with_R") if req.regime == "auto" else (req.regime,)
    thresholds = {regime: support_threshold(regime, req.n, req.weight_k) for regime in candidates}
    for regime, threshold in thresholds.items():
        if support_within(largest, threshold):
            return regime
    missed = " and ".join(
        f"the {r} threshold {_THRESHOLD_FORMULAS[r]} = {t:.6g}" for r, t in thresholds.items()
    )
    raise SupportRegimeError(
        f"supports up to {largest:.6g} exceed {missed} (n={req.n}, weight k={req.weight_k})"
    )


def _hafnian(a: Sequence[Sequence[float]], counts: Sequence[int]) -> float:
    """Sum over the perfect matchings of a multiset of slots of prod a[g][h].

    ``counts[g]`` slots are copies of group g, and a pair of copies of
    groups g <= h contributes ``a[g][h]``; only the upper triangle, the
    diagonal included, is read.  Subset dynamic programming (Bjorklund,
    "Counting perfect matchings as fast as Ryser", SODA 2012) keyed by
    multiplicity: with g the first group with copies left, its lowest copy
    pairs with one of its own other k_g - 1 copies (one child, weight
    k_g - 1) or with a copy of a later group h (one child per h, weight
    k_h).  One loop runs over the levels, a level being the states with
    the same number of pairs left: each state pushes its sum of path
    products times ``weight * a[g][h]`` to its children, so only two
    levels are kept and nothing nests.  A state packs each group's copies
    left as a binary count in a field of ``counts[g].bit_length()`` bits,
    so with every count 1 it is the subset mask of the slots left and the
    products are those of the plain single-slot push, added in the same
    order.
    """
    group_at = []  # the group of each state bit
    fields = []  # (offset, count mask) of each group
    for g, c in enumerate(counts):
        fields.append((len(group_at), (1 << c.bit_length()) - 1))
        group_at += [g] * c.bit_length()
    # per group: its offset, count mask, one copy, own pair value and, per
    # later group h, (a[g][h], h's field, h's offset, one copy of h)
    plan = [
        (offset, mask, 1 << offset, a[g][g],
         [(a[g][h], m << o, o, 1 << o) for h, (o, m) in enumerate(fields[g + 1 :], start=g + 1)])
        for g, (offset, mask) in enumerate(fields)
    ]
    level = {sum(c << o for c, (o, _) in zip(counts, fields)): 1.0}
    for _ in range(sum(counts) // 2):
        below: dict[int, float] = {}
        for state, paths in level.items():
            offset, count_mask, one, own, later = plan[group_at[(state & -state).bit_length() - 1]]
            rest = state - one
            left = rest >> offset & count_mask
            if left:
                child = rest - one
                below[child] = below.get(child, 0.0) + paths * (left * own)
            for pair, field, offset_h, one_h in later:
                copies = rest & field
                if copies:
                    child = rest - one_h
                    below[child] = below.get(child, 0.0) + paths * ((copies >> offset_h) * pair)
        level = below
    return level.get(0, 0.0)


def _matching_sum(tfs: tuple[TestFunction, ...]) -> float:
    """Sum over perfect matchings of products of pairwise variances: the
    hafnian of the sigma2 matrix.

    Slots are grouped by equal test functions (equal specs) in spec order,
    so the sum is free of the slot order, and sigma2 is computed once per
    distinct pair of groups' first functions (a group with itself only
    when it fills two slots or more).  The state cap is checked first.
    """
    counts: dict[TestFunction, int] = {}
    for tf in tfs:
        counts[tf] = counts.get(tf, 0) + 1
    states = math.prod([c + 1 for c in counts.values()])
    if states > MAX_MATCHING_STATES:
        raise ValueError(
            f"the matching sum of 2m = {len(tfs)} slots of {len(counts)} distinct functions "
            f"exceeds its cap: it needs prod(count + 1) = {states} <= {MAX_MATCHING_STATES}"
        )
    groups = spec_order(counts)
    a = [
        [sigma2(f, g) if i < j or (i == j and counts[f] > 1) else 0.0 for j, g in enumerate(groups)]
        for i, f in enumerate(groups)
    ]
    return _hafnian(a, [counts[g] for g in groups])


def centered_moment(req: MomentRequest) -> MomentResult:
    """n-th centered moment of the family statistic.

    Even n: matching sum, plus R with the family's sign (dropped in the
    mock-Gaussian regime).  Odd n: the signed R alone, or zero in the
    mock-Gaussian regime.  Raises :class:`UncertifiedBoundError` when R
    overflows (:func:`r_term`) or the moment or its matching sum is not
    finite (an overflow on Python floats gives inf or nan, never an
    exception); zero and negative moments are results.
    """
    regime = _resolve_regime(req)
    result = _moment(req, regime)
    if not all(map(math.isfinite, (result.value, result.matching_sum, result.r_term))):
        raise UncertifiedBoundError(f"moment {result.value!r} of {_labels(req)} is not finite")
    return result


def _labels(req: MomentRequest) -> str:
    return ", ".join(tf.spec_string for tf in dict.fromkeys(req.test_functions))


def _moment(req: MomentRequest, regime: str) -> MomentResult:
    matching_sum = _matching_sum(req.test_functions) if req.n % 2 == 0 else 0.0
    if regime == "mock_gaussian":
        return MomentResult(matching_sum, matching_sum, 0.0, 0, regime)
    sign = req.family.sign
    r_value = r_term(req.test_functions)
    return MomentResult(matching_sum + sign * r_value, matching_sum, r_value, sign, regime)
