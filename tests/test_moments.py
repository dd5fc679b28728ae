"""Matchings, the correction term, and centered moments."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from momentbounds import (
    GeneratorSpec,
    MomentRequest,
    QuadratureError,
    QuadratureSettings,
    SupportRegimeError,
    SymmetryGroup,
    centered_moment,
    enumerate_matchings,
    make_from_generator,
    make_naive,
    r_term,
    sigma2,
)
from momentbounds.moments import MAX_MATCHING_SIZE, Matching, double_factorial

G = SymmetryGroup

R4_NAIVE_THIRD = 1.0 / 5040.0  # exact: 8 * P(sum of 8 uniforms on (-1/2,1/2) > 3)


# ---- matchings ----


def test_matching_count_smallest():
    ms = enumerate_matchings(2)
    assert len(ms) == 1
    assert ms[0].pairs == ((1, 2),)


def test_matchings_of_four():
    ms = enumerate_matchings(4)
    got = {frozenset(frozenset(p) for p in m.pairs) for m in ms}
    expected = {
        frozenset({frozenset({1, 2}), frozenset({3, 4})}),
        frozenset({frozenset({1, 3}), frozenset({2, 4})}),
        frozenset({frozenset({1, 4}), frozenset({2, 3})}),
    }
    assert got == expected


@given(m=st.integers(1, 6))
@hyp_settings(max_examples=6, deadline=None)
def test_matching_counts_and_partition_property(m):
    two_m = 2 * m
    ms = enumerate_matchings(two_m)
    assert len(ms) == double_factorial(two_m - 1)
    seen = set()
    for matching in ms:
        flat = sorted(i for pair in matching.pairs for i in pair)
        assert flat == list(range(1, two_m + 1))
        key = frozenset(frozenset(p) for p in matching.pairs)
        assert key not in seen
        seen.add(key)


def test_matching_count_twelve():
    assert len(enumerate_matchings(12)) == 10395


def test_matchings_reject_bad_input():
    for bad in (0, 3, 7, -2):
        with pytest.raises(ValueError):
            enumerate_matchings(bad)
    with pytest.raises(ValueError):
        enumerate_matchings(MAX_MATCHING_SIZE + 2)


def test_matching_type_validates_partition():
    with pytest.raises(ValueError):
        Matching(((1, 2), (2, 3)))


# ---- correction term ----


def _scale(tfs) -> float:
    """2^(n-1) prod phi_j(0), the natural size of R."""
    return 2.0 ** (len(tfs) - 1) * math.prod(tf.phi0 for tf in tfs)


def test_r_term_prefactor_signs(naive_third):
    # R = (-1)^n 2^(n-1) int_1^S (phihat_1 * ... * phihat_n): +2, -4, +8
    # for n = 2, 3, 4 times a non-negative tail
    tfs3 = [naive_third] * 3
    assert r_term(tfs3) == 0.0  # supports sum to 1: the transform tail is empty
    tfs4 = [naive_third] * 4
    assert abs(r_term(tfs4) - R4_NAIVE_THIRD) <= 1e-12 * _scale(tfs4)
    # n = 2 with v = 1: the self-convolved triangle is the density of a
    # sum of four uniforms on (-1/2, 1/2), so the tail beyond 1 is the
    # Irwin-Hall tail 2 * P(S_4 > 1) = 2 / 4! = 1/12
    tfs2 = [make_naive(1.0), make_naive(1.0)]
    assert abs(r_term(tfs2) - 1.0 / 12.0) <= 1e-12 * _scale(tfs2)


def _irwin_hall_r(n: int, q: int) -> Fraction:
    """R of n copies of naive:v=1/q, exactly.

    Each triangle is the density of (U + U')/q with U, U' uniform on
    (-1/2, 1/2), so R = (-1)^n 2^(n-1) P(U_1 + ... + U_2n > q).
    """
    count = 2 * n
    x = Fraction(count, 2) - q  # P(sum > q) = P(Irwin-Hall sum < n - q) by symmetry
    cdf = sum(
        (-1) ** k * math.comb(count, k) * (x - k) ** count for k in range(math.floor(x) + 1)
    ) / math.factorial(count)
    return (-1) ** n * 2 ** (n - 1) * cdf


@pytest.mark.parametrize("n,q", [(2, 1), (4, 3), (6, 5), (8, 7)])
def test_r_term_irwin_hall_oracle(n, q):
    tfs = [make_naive(1.0 / q)] * n
    matching_sum = double_factorial(n - 1) / 3.0 ** (n // 2)
    assert abs(r_term(tfs) - float(_irwin_hall_r(n, q))) <= 1e-10 * matching_sum


def test_r_term_exactly_zero_when_supports_sum_to_one(gen_sinx2):
    # 10 distinct Fejer functions: supports sum to about 0.72
    tfs = tuple(make_naive(1.0 / q) for q in range(10, 20))
    res = centered_moment(MomentRequest(tfs, G.SO_EVEN, regime="with_R"))
    assert res.r_term == 0.0
    assert res.value == res.matching_sum
    # generator functions whose supports sum to exactly 1
    cos1 = make_from_generator(GeneratorSpec("cosine-series", (1.0,), 1.0 / 6.0))
    assert r_term([gen_sinx2] * 4) == 0.0
    assert r_term([cos1] * 3) == 0.0


def _brute_r(phis, L: float = 100.0, step: float = 0.125) -> float:
    """x-space R by a midpoint Riemann sum:

    (-1)^(n-1) 2^(n-1) [int prod_j phi_j(x) sin(2 pi x)/(2 pi x) dx - prod_j phi_j(0) / 2].

    The integrand's transform vanishes outside |y| < S + 1 < 1/step, so
    the sum is exact up to the truncation at |x| = L, where the integrand
    has decayed like |x|^(-2n-1).
    """
    x = (np.arange(-int(L / step), int(L / step)) + 0.5) * step
    product = np.prod([phi(x) for phi in phis], axis=0)
    phi0 = math.prod(float(phi(np.zeros(1))[0]) for phi in phis)
    n = len(phis)
    sinc_integral = step * float((product * np.sinc(2.0 * x)).sum())
    return (-1.0) ** (n - 1) * 2.0 ** (n - 1) * (sinc_integral - 0.5 * phi0)


def _naive_phi(v):
    return lambda x: np.sinc(v * x) ** 2


def _linear_generator_phi(h):
    """|transform of g|^2 for g(t) = 1 - 2t on (-h, h), in closed form."""

    def phi(x):
        w = 2.0 * np.pi * x
        even = 2.0 * h * np.sinc(2.0 * h * x)  # int cos(w t) dt
        # int t sin(w t) dt, which vanishes at w = 0
        odd = np.divide(
            2.0 * (np.sin(w * h) - w * h * np.cos(w * h)), w * w, out=np.zeros_like(w), where=w != 0
        )
        return even**2 + 4.0 * odd**2

    return phi


def _sinx2_phi(h):
    """|transform of sin(t^2) on (-h, h)|^2 by a 200-node Gauss-Legendre rule."""
    t, w = np.polynomial.legendre.leggauss(200)
    t, w = t * h, w * h
    return lambda x: (np.cos(2.0 * np.pi * np.multiply.outer(x, t)) @ (w * np.sin(t * t))) ** 2


def test_r_term_mixed_generator_matches_x_space_riemann():
    tfs = [
        make_from_generator(GeneratorSpec("polynomial", (1.0, -2.0), 0.25)),
        make_naive(0.5),
        make_naive(1.0 / 3.0),
    ]
    brute = _brute_r([_linear_generator_phi(0.25), _naive_phi(0.5), _naive_phi(1.0 / 3.0)])
    assert abs(r_term(tfs) - brute) <= 1e-12 * _scale(tfs)
    assert brute < 0  # odd n: R = -4 * (a positive tail)


def test_with_r_sixth_moment_sinx2_matches_oracle():
    tf = make_from_generator(GeneratorSpec("sin-of-square", (), 0.1))
    res = centered_moment(MomentRequest((tf,) * 6, G.SO_EVEN, regime="with_R"))
    assert res.value >= 0.0
    assert abs(res.r_term - _brute_r([_sinx2_phi(0.1)] * 6)) <= 1e-10 * res.matching_sum


def test_r_term_zero_function(naive_third):
    class Zero:
        support_bound = 0.25
        spec_string = "test:zero"
        phi0 = 0.0
        phihat0 = 0.0

        def phi(self, x):
            return 0.0

        def phihat(self, y):
            return 0.0

    assert r_term([naive_third, Zero()]) == 0.0


def test_r_term_raises_when_tolerance_unreachable():
    tfs = [make_naive(0.6)] * 2
    with pytest.raises(QuadratureError) as excinfo:
        r_term(tfs, QuadratureSettings(rel_tol=1e-18))
    assert excinfo.value.best_estimate == pytest.approx(r_term(tfs), rel=1e-9)
    assert excinfo.value.err_est > 1e-18 * _scale(tfs)


def test_r_term_needs_two(naive_third):
    with pytest.raises(ValueError):
        r_term([naive_third])


# ---- centered moments ----


def test_fourth_moment_naive_third_with_r(naive_third):
    req = MomentRequest((naive_third,) * 4, G.SO_EVEN, regime="with_R")
    res = centered_moment(req)
    assert res.regime == "with_R"
    assert res.sign_applied == 1
    assert res.matching_sum == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert res.r_term == pytest.approx(R4_NAIVE_THIRD, abs=1e-9)
    assert res.value == pytest.approx(1.0 / 3.0 + R4_NAIVE_THIRD, abs=1e-9)
    assert res.value == pytest.approx(0.33355, abs=3e-5)

    odd = centered_moment(MomentRequest((naive_third,) * 4, G.SO_ODD, regime="with_R"))
    assert odd.value == pytest.approx(1.0 / 3.0 - R4_NAIVE_THIRD, abs=1e-9)
    # sign consistency across the split families
    assert res.value - odd.value == pytest.approx(2.0 * res.r_term, abs=1e-12)


def test_reduction_to_identical_test_function_form(naive_third):
    # with all functions identical the matching sum collapses to
    # (2m-1)!! sigma^(2m); the support hypothesis 1/(n-1) forces a
    # narrower function once the order grows
    for two_m, count, tf in ((2, 1, naive_third), (4, 3, naive_third), (6, 15, make_naive(0.125))):
        s2 = sigma2(tf, tf)
        req = MomentRequest((tf,) * two_m, G.SO_EVEN, regime="with_R")
        res = centered_moment(req)
        assert res.matching_sum == pytest.approx(count * s2 ** (two_m // 2), abs=1e-10)
        assert res.value == pytest.approx(count * s2 ** (two_m // 2) + res.r_term, abs=1e-12)


def test_mixed_slots_matching_structure(naive_third, naive_quarter):
    a, b = naive_quarter, naive_third
    req = MomentRequest((a, a, b, b), G.O, regime="mock_gaussian")
    res = centered_moment(req)
    saa = sigma2(a, a)
    sbb = sigma2(b, b)
    sab = sigma2(a, b)
    assert res.value == pytest.approx(saa * sbb + 2.0 * sab**2, abs=1e-12)
    assert res.r_term == 0.0
    assert res.sign_applied == 0


def test_permutation_invariance(naive_third, naive_quarter, gen_sinx2):
    base = (gen_sinx2, naive_quarter, naive_third, naive_quarter)
    reference = centered_moment(MomentRequest(base, G.SO_EVEN, regime="with_R")).value
    import itertools

    for perm in list(itertools.permutations(base))[5::7]:
        value = centered_moment(MomentRequest(perm, G.SO_EVEN, regime="with_R")).value
        assert value == pytest.approx(reference, abs=1e-12)


def test_odd_moment_mock_gaussian_is_zero(naive_quarter):
    req = MomentRequest((naive_quarter,) * 3, G.O, regime="mock_gaussian")
    res = centered_moment(req)
    assert res.value == 0.0
    assert res.matching_sum == 0.0


def test_odd_moment_with_r(naive_third):
    req = MomentRequest((naive_third,) * 3, G.SO_ODD, regime="with_R")
    res = centered_moment(req)
    assert res.matching_sum == 0.0
    assert res.value == pytest.approx(-res.r_term, abs=0)
    assert res.r_term == 0.0  # supports sum to 1: the transform tail is empty


def test_even_matching_sum_nonnegative_for_paired_slots(naive_third, gen_sinx2):
    req = MomentRequest((gen_sinx2, gen_sinx2, naive_third, naive_third), G.O, regime="mock_gaussian")
    assert centered_moment(req).matching_sum >= 0.0


def test_auto_regime_prefers_mock_gaussian(naive_third):
    # n = 4, support 1/3: both hypotheses hold (mock threshold 3/8)
    res = centered_moment(MomentRequest((naive_third,) * 4, G.SO_EVEN, regime="auto"))
    assert res.regime == "mock_gaussian"
    assert res.r_term == 0.0


def test_auto_regime_falls_back_to_with_r():
    # n = 2, support 0.9: mock threshold 3/4 fails, with_R threshold 1 holds
    tf = make_naive(0.9)
    res = centered_moment(MomentRequest((tf, tf), G.SO_EVEN, regime="auto"))
    assert res.regime == "with_R"


def test_support_violations_name_threshold(naive_third):
    wide = make_naive(0.5)
    with pytest.raises(SupportRegimeError, match="1/\\(n-1\\)|0.333"):
        centered_moment(MomentRequest((wide,) * 4, G.SO_EVEN, regime="with_R"))
    with pytest.raises(SupportRegimeError, match="0.375"):
        centered_moment(MomentRequest((wide,) * 4, G.SO_EVEN, regime="mock_gaussian"))
    with pytest.raises(SupportRegimeError):
        centered_moment(MomentRequest((make_naive(1.5),) * 2, G.SO_EVEN, regime="auto"))


def test_unsplit_family_rejects_with_r(naive_third):
    with pytest.raises(SupportRegimeError, match="unsplit"):
        centered_moment(MomentRequest((naive_third,) * 4, G.O, regime="with_R"))


def test_moment_request_validation(naive_third):
    with pytest.raises(ValueError):
        MomentRequest((naive_third,), G.SO_EVEN)
    with pytest.raises(ValueError):
        MomentRequest((naive_third,) * 2, G.U)
    with pytest.raises(ValueError):
        MomentRequest((naive_third,) * 2, G.SO_EVEN, weight_k=1)
    with pytest.raises(ValueError):
        MomentRequest((naive_third,) * 2, G.SO_EVEN, regime="bogus")


def test_weight_k_widens_mock_threshold(naive_third):
    # n = 4: k = 2 gives 3/8, k -> large approaches 1/2
    req2 = MomentRequest((naive_third,) * 4, G.SO_EVEN, weight_k=2)
    req9 = MomentRequest((naive_third,) * 4, G.SO_EVEN, weight_k=9)
    assert req2.mock_gaussian_threshold() == pytest.approx(3.0 / 8.0)
    assert req9.mock_gaussian_threshold() == pytest.approx(17.0 / 36.0)


def test_double_factorial():
    assert [double_factorial(k) for k in (1, 3, 5, 7, 11)] == [1, 3, 15, 105, 10395]
