"""Generalized centered moments of the one-level statistic.

For test functions ``phi_1, ..., phi_n`` the n-th centered moment of the
family statistic is, in the appropriate support regime,

* even n = 2m: a sum over the (2m-1)!! perfect matchings of
  ``{1, ..., 2m}`` of products of pairwise variances
  ``sigma2(phi_a, phi_b)``, plus a sign-carrying correction term
  ``R_n`` for the split families (a compact transform-space integral,
  see :func:`r_term`),
* odd n: the correction term alone (or zero).

Two support regimes are implemented:

* ``with_R``: every transform supported within ``1/(n-1)``; the moment is
  the matching sum +R for the even split family and -R for the odd one,
* ``mock_gaussian``: every transform supported within
  ``(1/n) * (2k-1)/k`` for modular weight k; the correction drops and the
  moments are exactly Gaussian (matching sums, zero for odd n).

``auto`` resolves to ``mock_gaussian`` whenever its support condition
holds, else to ``with_R``.  Support bounds are compared inclusively:
transforms vanish at their support endpoints, which satisfies the open
interval hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .kernels import SymmetryGroup
from .quadrature import DEFAULT_SETTINGS, QuadratureError, QuadratureSettings
from .testfunc import TestFunction, sigma2

MAX_MATCHING_SIZE = 16  # 2m above this is refused: 15!! = 2027025 matchings

# R grid: nodes k/m, m a multiple of the supports' common denominator when
# that is at most _R_MAX_DENOMINATOR, starting with at least
# _R_MIN_INTERVALS steps across the narrowest support.
_R_MAX_DENOMINATOR = 1024
_R_MIN_INTERVALS = 16
_R_MAX_NODES = 2**18

REGIMES = ("auto", "with_R", "mock_gaussian")

# Families admitting centered-moment evaluation: the split orthogonal
# families carry +/-R; SymmetryGroup.O stands for the unsplit family,
# whose sign term cancels between the two signed halves.
_MOMENT_FAMILIES = (SymmetryGroup.SO_EVEN, SymmetryGroup.SO_ODD, SymmetryGroup.O)


class SupportRegimeError(ValueError):
    """A transform support exceeds the threshold of the requested regime."""


@dataclass(frozen=True)
class Matching:
    """A partition of {1, ..., 2m} into m unordered pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        flat = sorted(i for pair in self.pairs for i in pair)
        if flat != list(range(1, 2 * len(self.pairs) + 1)):
            raise ValueError(f"pairs {self.pairs} do not partition {{1..{2 * len(self.pairs)}}}")


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ... down to 1 or 2."""
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def _matchings_of(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        head = (first, partner)
        for tail in _matchings_of(rest[:i] + rest[i + 1 :]):
            yield (head,) + tail


def enumerate_matchings(two_m: int) -> list[Matching]:
    """All perfect matchings of {1, ..., two_m}, each exactly once.

    The count is (two_m - 1)!!.  Enumeration (rather than sampling) is
    exact and cheap at the moment orders that occur in practice; inputs
    beyond 2m = 16 are refused.
    """
    if two_m < 2 or two_m % 2 != 0:
        raise ValueError(f"need an even integer >= 2, got {two_m}")
    if two_m > MAX_MATCHING_SIZE:
        raise ValueError(
            f"2m = {two_m} exceeds the enumeration cap {MAX_MATCHING_SIZE} "
            f"({double_factorial(two_m - 1)} matchings)"
        )
    return [Matching(pairs) for pairs in _matchings_of(tuple(range(1, two_m + 1)))]


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
        if self.family not in _MOMENT_FAMILIES:
            raise ValueError(
                "moment family must be so-even, so-odd or the unsplit o family"
            )
        if self.weight_k < 2:
            raise ValueError("weight_k must be an integer >= 2")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")

    @property
    def n(self) -> int:
        return len(self.test_functions)

    def with_r_threshold(self) -> float:
        return 1.0 / (self.n - 1)

    def mock_gaussian_threshold(self) -> float:
        return (2.0 * self.weight_k - 1.0) / (self.n * self.weight_k)


@dataclass(frozen=True)
class MomentResult:
    """value = matching_sum + sign_applied * r_term."""

    value: float
    matching_sum: float
    r_term: float
    sign_applied: int
    regime: str


def _max_support(tfs: Sequence[TestFunction]) -> float:
    return max(tf.support_bound for tf in tfs)


def _support_ok(tfs: Sequence[TestFunction], threshold: float) -> bool:
    # inclusive comparison: phihat vanishes at its support endpoints
    return _max_support(tfs) <= threshold * (1.0 + 1e-12) + 1e-15


def _tail_trapezoid(tfs: Sequence[TestFunction], m: int) -> float:
    """Trapezoid value of ``int_1^inf (phihat_1 * ... * phihat_n)(y) dy`` on the grid y = k/m.

    Each transform is sampled at the nodes of its support, the samples are
    convolved by FFT (the discrete convolution is the trapezoid rule for
    each convolution integral) and the nodes from y = 1 on are summed.
    """
    ks = [math.floor(tf.support_bound * m) for tf in tfs]
    size = 2 * sum(ks) + 1
    nfft = 1 << (size - 1).bit_length()
    spectrum = np.ones(nfft // 2 + 1, dtype=complex)
    for tf, k in zip(tfs, ks):
        spectrum *= np.fft.rfft(tf.phihat(np.arange(-k, k + 1) / m), nfft)
    tail = np.fft.irfft(spectrum, nfft)[sum(ks) + m : size]
    return float(tail.sum() - 0.5 * tail[:1].sum()) / m ** len(tfs)


def _r_grid(supports: Sequence[float]) -> tuple[int, bool]:
    """Starting nodes per unit m, and whether every support end is a node k/m."""
    q = math.lcm(*(Fraction(s).limit_denominator(_R_MAX_DENOMINATOR).denominator for s in supports))
    aligned = q <= _R_MAX_DENOMINATOR and all(abs(s * q - round(s * q)) <= 1e-9 for s in supports)
    m = q if aligned else 1
    while m * min(supports) < _R_MIN_INTERVALS and m < _R_MAX_NODES:
        m *= 2
    return m, aligned


def r_term(
    tfs: Sequence[TestFunction],
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Correction term splitting the even from the odd family:
    ``R = (-1)^n 2^(n-1) int_1^S (phihat_1 * ... * phihat_n)(y) dy``, S the
    sum of the transform supports, so R is exactly 0 when S <= 1.

    The grid step 1/m is halved until two levels agree within
    ``rel_tol * 2^(n-1) prod_j phi_j(0)``; when every support end is a
    node, the error expands in even powers of the step and the two
    levels are Richardson-extrapolated.
    """
    n = len(tfs)
    if n < 2:
        raise ValueError("r_term needs at least two test functions")
    supports = [tf.support_bound for tf in tfs]
    if math.fsum(supports) <= 1.0 + 1e-12:
        return 0.0
    prefactor = (-1.0) ** n * 2.0 ** (n - 1)
    tol = settings.rel_tol * abs(prefactor * math.prod(tf.phi0 for tf in tfs))
    m, aligned = _r_grid(supports)
    value, err = prefactor * _tail_trapezoid(tfs, m), math.inf
    while 2 * m <= _R_MAX_NODES:
        m *= 2
        coarse, value = value, prefactor * _tail_trapezoid(tfs, m)
        err = abs(value - coarse)
        if err <= tol:
            return value + (value - coarse) / 3.0 if aligned else value
    raise QuadratureError(f"R not within {tol:.3e} at grid step 1/{m}", value, err)


def _resolve_regime(req: MomentRequest) -> str:
    tfs = req.test_functions
    mock_ok = _support_ok(tfs, req.mock_gaussian_threshold())
    with_r_ok = _support_ok(tfs, req.with_r_threshold())
    if req.regime == "mock_gaussian":
        if not mock_ok:
            raise SupportRegimeError(
                f"mock_gaussian regime needs every support within "
                f"{req.mock_gaussian_threshold():.6g} (weight k={req.weight_k}, "
                f"n={req.n}); largest is {_max_support(tfs):.6g}"
            )
        return "mock_gaussian"
    if req.regime == "with_R":
        if req.family is SymmetryGroup.O:
            raise SupportRegimeError(
                "the with_R regime applies to the split families only; the "
                "unsplit family has no sign term (use mock_gaussian)"
            )
        if not with_r_ok:
            raise SupportRegimeError(
                f"with_R regime needs every support within 1/(n-1) = "
                f"{req.with_r_threshold():.6g} (n={req.n}); largest is "
                f"{_max_support(tfs):.6g}"
            )
        return "with_R"
    # auto: prefer mock_gaussian whenever its support condition holds
    if mock_ok:
        return "mock_gaussian"
    if with_r_ok and req.family is not SymmetryGroup.O:
        return "with_R"
    raise SupportRegimeError(
        f"supports up to {_max_support(tfs):.6g} satisfy neither the "
        f"mock_gaussian threshold {req.mock_gaussian_threshold():.6g} nor the "
        f"with_R threshold {req.with_r_threshold():.6g} for n={req.n}"
    )


def _matching_sum(
    tfs: tuple[TestFunction, ...], settings: QuadratureSettings
) -> float:
    """Sum over perfect matchings of products of pairwise variances.

    Pairwise sigma2 values are memoized by test-function identity, so
    repeated functions cost one quadrature per distinct pair.
    """
    n = len(tfs)
    cache: dict[tuple[int, int], float] = {}

    def pair_value(i: int, j: int) -> float:
        a, b = tfs[i - 1], tfs[j - 1]
        key_a = id(a)
        key_b = id(b)
        key = (min(key_a, key_b), max(key_a, key_b))
        if key not in cache:
            cache[key] = sigma2(a, b, settings)
        return cache[key]

    total = 0.0
    for matching in enumerate_matchings(n):
        term = 1.0
        for i, j in matching.pairs:
            term *= pair_value(i, j)
        total += term
    return total


def centered_moment(
    req: MomentRequest,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> MomentResult:
    """n-th centered moment of the family statistic.

    Even n: matching sum, plus R with sign +1 for the even split family
    and -1 for the odd one (dropped for the unsplit family and in the
    mock-Gaussian regime).  Odd n: the signed R alone, or zero in the
    mock-Gaussian regime.
    """
    regime = _resolve_regime(req)
    sign = {SymmetryGroup.SO_EVEN: 1, SymmetryGroup.SO_ODD: -1, SymmetryGroup.O: 0}[req.family]

    if req.n % 2 == 0:
        matching_sum = _matching_sum(req.test_functions, settings)
    else:
        matching_sum = 0.0

    if regime == "mock_gaussian" or sign == 0:
        return MomentResult(matching_sum, matching_sum, 0.0, 0, regime)

    r_value = r_term(req.test_functions, settings)
    return MomentResult(matching_sum + sign * r_value, matching_sum, r_value, sign, regime)
