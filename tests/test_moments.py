"""Matchings and the hafnian, the correction term, and centered moments."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from momentbounds import (
    GeneratorSpec,
    MomentRequest,
    SupportRegimeError,
    SymmetryGroup,
    bound_moment,
    centered_moment,
    from_spec_string,
    make_from_generator,
    make_naive,
    predicted_moment,
    r_term,
    sigma2,
)
from momentbounds import cli, moments
from momentbounds.moments import (
    MAX_EVEN_ORDER,
    _hafnian,
    _matching_sum,
    double_factorial,
    support_threshold,
    support_within,
)
from momentbounds.quadrature import legendre_rule
from momentbounds.testfunc import _sigma2_rule

G = SymmetryGroup

R4_NAIVE_THIRD = 1.0 / 5040.0  # exact: 8 * P(sum of 8 uniforms on (-1/2,1/2) > 3)


# ---- matchings and the hafnian ----


def _matchings_of(items):
    """Every perfect matching of ``items``, each exactly once (the oracle)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        head = (first, partner)
        for tail in _matchings_of(rest[:i] + rest[i + 1 :]):
            yield (head,) + tail


def _matchings(two_m):
    return list(_matchings_of(tuple(range(1, two_m + 1))))


def _enumerated_hafnian(a):
    """Sum over the enumerated matchings, in exact rational arithmetic."""
    total = Fraction(0)
    for pairs in _matchings_of(tuple(range(len(a)))):
        term = Fraction(1)
        for i, j in pairs:
            term *= Fraction(a[i][j])
        total += term
    return total


def test_matching_count_smallest():
    assert _matchings(2) == [((1, 2),)]


def test_matchings_of_four():
    got = {frozenset(frozenset(p) for p in pairs) for pairs in _matchings(4)}
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
    ms = _matchings(two_m)
    assert len(ms) == double_factorial(two_m - 1)
    seen = set()
    for pairs in ms:
        flat = sorted(i for pair in pairs for i in pair)
        assert flat == list(range(1, two_m + 1))
        key = frozenset(frozenset(p) for p in pairs)
        assert key not in seen
        seen.add(key)


def test_matching_count_twelve():
    assert len(_matchings(12)) == 10395


def _subset_hafnian(a):
    """The plain subset recursion over single slots, with i the lowest
    slot left and its partners j in ascending order: the reference for
    the grouped recursion when every slot is distinct."""
    memo = {0: 1.0}

    def haf(mask):
        if mask not in memo:
            i = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << i)
            total = 0.0
            for j in range(i + 1, len(a)):
                if rest >> j & 1:
                    total += a[i][j] * haf(rest ^ (1 << j))
            memo[mask] = total
        return memo[mask]

    return haf((1 << len(a)) - 1)


_MULTIPLICITIES = st.one_of(
    st.integers(1, 5).map(lambda m: [1] * (2 * m)),
    st.lists(st.integers(1, 4), min_size=1, max_size=6).filter(
        lambda counts: sum(counts) % 2 == 0 and sum(counts) <= 10
    ),
)


@given(counts=_MULTIPLICITIES, entries=st.lists(st.floats(0.01, 10.0), min_size=55, max_size=55))
@hyp_settings(max_examples=120, deadline=None)
def test_hafnian_matches_enumeration(counts, entries):
    # the grouped recursion against the exact sum over every matching of the
    # expanded slots: m levels of positive terms, each term two roundings
    values = iter(entries)
    groups = range(len(counts))
    grouped = [[next(values) if h >= g else 0.0 for h in groups] for g in groups]
    slots = [g for g, c in enumerate(counts) for _ in range(c)]
    a = [[grouped[min(g, h)][max(g, h)] for h in slots] for g in slots]
    got = _hafnian(grouped, counts)
    expected = _enumerated_hafnian(a)
    if set(counts) == {1}:
        assert got == _subset_hafnian(a)  # same products, summed in the same order
    assert abs(Fraction(got) - expected) <= Fraction(1e-14) * expected


def test_identical_naive_slots_give_the_double_factorial():
    # 2m copies of one Fejer function: (2m-1)!! (1/3)^m.  sigma2, a
    # Gauss-Legendre sum, is 1/3 to within 4 ulps (so sigma2^48 may be 200
    # ulps off 3^-48), and the recursion, m steps of two roundings each, is
    # within 2m * 2^-53 of (2m-1)!! sigma2^m for that sigma2.
    for two_m in range(2, 98, 2):
        tf = make_naive(1.0 / two_m)
        s2 = Fraction(sigma2(tf, tf))
        assert abs(s2 - Fraction(1, 3)) <= 4 * math.ulp(1.0 / 3.0)
        res = centered_moment(MomentRequest((tf,) * two_m, G.SO_EVEN, regime="mock_gaussian"))
        exact = double_factorial(two_m - 1) * s2 ** (two_m // 2)
        assert abs(Fraction(res.value) - exact) <= two_m * Fraction(1, 2**53) * exact


def test_matchings_reject_bad_input(monkeypatch):
    # the caps are prod(count + 1) <= 2^24 and 2m <= 1024: 25 distinct slots
    # and 2m = 1026 are refused before any sigma2 work
    def no_sigma2(*args, **kwargs):
        raise AssertionError("sigma2 called above the cap")

    with monkeypatch.context() as patch:
        patch.setattr(moments, "sigma2", no_sigma2)
        with pytest.raises(ValueError, match=r"cap.* prod\(count \+ 1\) = 33554432"):
            _matching_sum(tuple(make_naive(1.0 / q) for q in range(40, 65)))
        tfs = (make_naive(1e-3),) * (MAX_EVEN_ORDER + 2)
        with pytest.raises(ValueError, match="cap"):
            centered_moment(MomentRequest(tfs, G.SO_EVEN, regime="mock_gaussian"))
    # 26 identical slots, refused by the old cap of 24 slots: 25!! sigma^26
    tf = make_naive(1.0 / 26.0)
    res = centered_moment(MomentRequest((tf,) * 26, G.SO_EVEN, regime="mock_gaussian"))
    exact = double_factorial(25) * Fraction(sigma2(tf, tf)) ** 13
    assert abs(Fraction(res.value) - exact) <= 26 * Fraction(1, 2**53) * exact
    # at the order cap the recursion nests 512 calls deep
    assert _hafnian([[2.0 / MAX_EVEN_ORDER]], [MAX_EVEN_ORDER]) == pytest.approx(
        float(double_factorial(MAX_EVEN_ORDER - 1) * Fraction(2, MAX_EVEN_ORDER) ** 512), rel=1e-12
    )


@pytest.mark.parametrize("m", [8, 12, 16, 24])
def test_equal_slots_built_separately_are_one_function(m, monkeypatch):
    # m slots of naive:v=1/(4m), each built on its own, group as one function:
    # one sigma2 call, and the bound one shared object gives, bit for bit.
    # Grouped by object, the 2m doubled slots of m = 16 and 24 would pass the
    # state cap prod(count + 1) <= 2^24.
    pairs = []
    original = moments.sigma2
    monkeypatch.setattr(moments, "sigma2", lambda a, b: pairs.append((a, b)) or original(a, b))
    separate = bound_moment(
        [make_naive(1.0 / (4 * m)) for _ in range(m)], G.SO_EVEN, [100], regime="mock_gaussian"
    )
    assert len(pairs) == 1
    shared = bound_moment([make_naive(1.0 / (4 * m))] * m, G.SO_EVEN, [100], regime="mock_gaussian")
    assert separate == shared
    assert 0.0 < separate[0].upper_bound < 1.0


def test_one_sigma2_per_distinct_pair_of_equal_groups(monkeypatch):
    # slots a, b, a', b', a'', a''' with the primes built separately: groups in
    # spec order [b x 2, a x 4] (gen: sorts before naive:), pairs bb, ba and
    # aa, each computed with a group's first object
    pairs = []
    original = moments.sigma2
    monkeypatch.setattr(moments, "sigma2", lambda a, b: pairs.append((a, b)) or original(a, b))
    specs = ["naive:v=1/8", "gen:cos:1,0.3:half=1/20"] * 2 + ["naive:v=1/8", "naive:v=1/8"]
    tfs = [from_spec_string(spec) for spec in specs]
    value = _matching_sum(tuple(tfs))
    a, b = tfs[:2]
    assert [tuple(map(id, pair)) for pair in pairs] == [
        (id(b), id(b)), (id(b), id(a)), (id(a), id(a))]
    shared = [tfs[0] if spec.startswith("naive") else tfs[1] for spec in specs]
    assert value == _matching_sum(tuple(shared))


def test_with_r_moment_does_not_depend_on_the_slot_order():
    # naive, polynomial and cosine slots: the matching sum's groups, each sigma2
    # pair and R's convolution are taken in spec order, so all 24 orders give
    # one moment to the last bit
    specs = ["naive:v=1/3", "gen:poly:1,-2,1/2:half=1/6", "gen:cos:1,0.3,-0.2:half=3/20",
             "naive:v=1/4"]
    tfs = [from_spec_string(spec) for spec in specs]
    results = {
        centered_moment(MomentRequest(order, G.SO_EVEN, regime="with_R"))
        for order in itertools.permutations(tfs)
    }
    assert len(results) == 1
    assert next(iter(results)).r_term > 0.0


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


@pytest.mark.parametrize("n,q", [(n, n - 1) for n in range(2, 25)] + [(48, 47)])
def test_r_term_irwin_hall_oracle(n, q):
    # relative to R itself, which falls to 6.8e-55 at n = 24 and 1.4e-136 at 48
    exact = float(_irwin_hall_r(n, q))
    assert abs(r_term([make_naive(1.0 / q)] * n) - exact) <= 1e-12 * abs(exact)


def test_r_term_underflow_is_below_the_matching_sum():
    # n = 96: R is about 1e-328 and underflows to 0.0, far below 1e-300 of
    # the matching sum 95!! / 3^48
    assert r_term([make_naive(1.0 / 95.0)] * 96) == 0.0
    exact = _irwin_hall_r(96, 95)
    assert 0 < abs(exact) < Fraction(1, 10**300) * Fraction(double_factorial(95), 3**48)


@pytest.mark.parametrize("n", [7, 9])
def test_odd_moments_are_exact(n, capsys):
    # an odd moment is R alone: the Monte Carlo prediction and the moment record
    q = n - 1
    exact = float(_irwin_hall_r(n, q))
    assert predicted_moment(make_naive(1.0 / q), G.SO_EVEN, n) == pytest.approx(exact, rel=1e-12)
    args = ["moment", "--family", "so-even", "--regime", "with_R"]
    assert cli.main(args + ["--testfn", f"naive:v=1/{q}"] * n) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["r_term"] == pytest.approx(exact, rel=1e-12)
    assert record["value"] == record["r_term"]


def _exact_end_piece(tf) -> list:
    """phihat(s - u) as exact power coefficients in u, from the Chebyshev
    coefficients of phihat on [0, s] (there x = 2y/s - 1 = 1 - 2u/s)."""
    x = [Fraction(1), Fraction(-2) / Fraction(tf.support_bound)]
    prev, cur = [Fraction(1)], x  # T_0, T_1; T_(i+1) = 2x T_i - T_(i-1)
    piece = [Fraction(0)] * len(tf.phihat_coef)
    for c in tf.phihat_coef:
        for k, a in enumerate(prev):
            piece[k] += Fraction(c) * a
        doubled = [Fraction(0)] * (len(cur) + 1)
        for k, a in enumerate(cur):
            doubled[k] += 2 * x[0] * a
            doubled[k + 1] += 2 * x[1] * a
        for k, a in enumerate(prev):
            doubled[k] -= a
        prev, cur = cur, doubled
    return piece


def _exact_r(tfs) -> Fraction:
    """R by rational arithmetic: the one-sided convolution of the end pieces,
    int_0^u v^a (u - v)^b dv = a! b! / (a + b + 1)! u^(a+b+1), integrated
    over [0, S - 1]."""
    delta = sum(Fraction(tf.support_bound) for tf in tfs) - 1
    conv = _exact_end_piece(tfs[0])
    for tf in tfs[1:]:
        piece = _exact_end_piece(tf)
        out = [Fraction(0)] * (len(conv) + len(piece))
        for a, ca in enumerate(conv):
            for b, cb in enumerate(piece):
                beta = Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1))
                out[a + b + 1] += ca * cb * beta
        conv = out
    n = len(tfs)
    return (-1) ** n * 2 ** (n - 1) * sum(c * delta ** (k + 1) / (k + 1) for k, c in enumerate(conv))


# Slot lists, the phihat degree of each, and the test id; every list meets
# the with_R hypothesis (each support within 1/(n - 1)).
HIGH_DEGREE_SLOTS = [
    # the first two: end pieces that span their whole support (S - 1 = s)
    (["gen:cos:1,0.3,-0.2,0.1:half=1/10"] * 6, [23] * 6, "gen:cos:1,0.3,-0.2,0.1:half=1/10-6-23"),
    # monomial (Taylor) coefficients of this end piece cancel: a sum
    # over them is 8e-2 of R off
    (
        ["gen:cos:1,0.5,-0.4,0.3,0.2,-0.1,0.1,0.05,-0.05,0.02,0.02,0.01:half=1/2"] * 2,
        [44] * 2,
        "gen:cos:1,0.5,-0.4,0.3,0.2,-0.1,0.1,0.05,-0.05,0.02,0.02,0.01:half=1/2-2-44",
    ),
    # naive, polynomial and cosine slots of five degrees: S - 1 = 0.19 is just
    # inside the smallest support 0.2, whose end piece spans 95% of it
    (
        ["naive:v=6/25", "gen:poly:1,1/3:half=1/8", "gen:cos:1,0.3,-0.2,0.1:half=1/8",
         "gen:poly:2,-1,1/2:half=1/8", "gen:cos:1,-0.4:half=1/10"],
        [1, 3, 23, 5, 15],
        "mixed-naive-poly-cos-5",
    ),
]


@pytest.mark.parametrize(
    "specs,degrees", [pytest.param(s, d, id=i) for s, d, i in HIGH_DEGREE_SLOTS]
)
def test_r_term_high_degree_generator_matches_exact_rational(specs, degrees):
    tfs = [from_spec_string(spec) for spec in specs]
    assert [tf.phihat_degree for tf in tfs] == degrees
    assert all(support_within(tf.support_bound, 1.0 / (len(tfs) - 1)) for tf in tfs)
    exact = float(_exact_r(tfs))
    assert abs(r_term(tfs) - exact) <= 1e-10 * abs(exact)


@pytest.mark.parametrize(
    "specs",
    [
        ["naive:v=1/3"] * 4,  # R = 1/5040
        ["naive:v=1/2", "gen:poly:1,1/3:half=1/4", "naive:v=12/25"],  # S - 1 = 12/25
    ],
)
def test_r_term_convolution_rule_has_no_node_to_spare(specs, monkeypatch):
    # One rule a call, of (2n - 1 + sum(d_j - 1)) // 2 + 1 nodes, exact for the
    # final integrand t^(2n-1) H_n and so at every convolution step below it.
    # These low-degree slots put weight on the top degrees, so a rule one
    # node short misses R far outside the exact match.
    tfs = [from_spec_string(spec) for spec in specs]
    n, extra = len(tfs), sum(tf.phihat_degree - 1 for tf in tfs)
    exact = float(_exact_r(tfs))
    sizes = []

    def rule(k, shorten):
        sizes.append(k)
        return legendre_rule(k - 1 if shorten else k)

    for shorten in (False, True):
        sizes.clear()
        moments._r_term.cache_clear()  # compute R afresh, not from the memo
        monkeypatch.setattr(moments, "legendre_rule", lambda k: rule(k, shorten))
        error = abs(r_term(tfs) - exact)
        assert sizes == [(2 * n - 1 + extra) // 2 + 1]
        assert (error > 1e-10 * abs(exact)) == shorten, (shorten, error / abs(exact))


def test_exact_rules_build_no_chebyshev_vandermonde(monkeypatch):
    # R's interpolants and sigma2's basis values are cosine products, not
    # numpy's Vandermonde recurrence (which chebinterpolate also runs)
    def refuse(*args):
        raise AssertionError("a Chebyshev Vandermonde matrix was built")

    monkeypatch.setattr(moments.chebyshev, "chebvander", refuse)
    monkeypatch.setattr(moments.chebyshev, "chebinterpolate", refuse)
    specs, _, _ = HIGH_DEGREE_SLOTS[2]
    tfs = [from_spec_string(spec) for spec in specs]
    assert r_term(tfs) == pytest.approx(float(_exact_r(tfs)), rel=1e-10, abs=0)
    _sigma2_rule.__wrapped__(0.25, 0.2, tfs[2].phihat_degree, tfs[4].phihat_degree)


def test_r_term_refuses_tail_beyond_a_support():
    # S - 1 = 0.3 exceeds the support 0.1, so the end pieces do not cover the tail
    with pytest.raises(SupportRegimeError):
        r_term([make_naive(0.6), make_naive(0.6), make_naive(0.1)])


@pytest.mark.parametrize("two_m", [4, 6, 8, 12, 24, 48])
def test_higher_order_bounds_match_exact_oracle(two_m):
    # m slots of naive:v=1/(2m-1), each doubled, with_R at rank 50: the
    # moment is (2m-1)!! (1/3)^m + R and each slot's margin is 50 - 2m + 1/2
    m = two_m // 2
    slots = [make_naive(1.0 / (two_m - 1))] * m
    got = bound_moment(slots, G.SO_EVEN, [50], regime="with_R")[0].upper_bound
    moment = Fraction(double_factorial(two_m - 1), 3**m) + _irwin_hall_r(two_m, two_m - 1)
    exact = moment / Fraction(2 * 50 - 2 * two_m + 1, 2) ** two_m
    assert got == pytest.approx(float(exact), rel=1e-10, abs=0)


def test_higher_moment_beats_fourth_at_rank_10():
    # with_R at each order's largest naive support 1/(2m-1): the sixth moment
    # improves on the fourth by more than 2.5 times at rank 10, and the eighth
    # no longer improves on the sixth.  The abstract's tenfold gain at rank 10
    # needs the mock_gaussian regime (test_bounds.py, the abstract's claims).
    def bound(two_m):
        slots = [make_naive(1.0 / (two_m - 1))] * (two_m // 2)
        return bound_moment(slots, G.SO_EVEN, [10], regime="with_R")[0].upper_bound

    assert bound(4) == pytest.approx(1.8684e-4, rel=1e-4)
    assert bound(4) > 2.5 * bound(6)
    assert bound(8) > bound(6)


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
        phihat_coef = np.zeros(1)
        spec_string = "test:zero"
        phi0 = 0.0
        phihat0 = 0.0

        def phi(self, x):
            return 0.0

        def phihat(self, y):
            return 0.0

    assert r_term([naive_third, Zero()]) == 0.0


def test_r_term_transforms_a_repeated_function_once(monkeypatch):
    # four equal functions built separately are one function: one end piece,
    # and the R that one shared object gives, bit for bit; to the memo they
    # are one slot set, so the second call computes nothing
    divisions = []
    chebdiv = moments.chebyshev.chebdiv
    monkeypatch.setattr(moments.chebyshev, "chebdiv", lambda *a: divisions.append(a) or chebdiv(*a))
    repeated = r_term([make_naive(1.0 / 3.0)] * 4)
    separate = [make_naive(1.0 / 3.0) for _ in range(4)]
    assert r_term(separate) == repeated
    info = moments._r_term.cache_info()
    assert (info.misses, info.hits, len(divisions)) == (1, 1, 1)
    moments._r_term.cache_clear()
    assert r_term(separate) == repeated
    assert len(divisions) == 2


def test_r_term_needs_one(naive_third):
    # one function is the one-level tail R_1 = -int_1^s phihat, 0 within support 1
    assert r_term([naive_third]) == 0.0
    with pytest.raises(ValueError, match="at least one"):
        r_term([])


def test_r_term_of_one_triangle_is_its_tail():
    # R_1 = -int_1^(3/2) (2/3)(1 - 2y/3) dy = -1/18: delta = 1/2 is exact, and
    # one Chebyshev division, a one-node sum and the products round a few times
    r = r_term([make_naive(1.5)])
    assert abs(Fraction(r) + Fraction(1, 18)) <= 8 * Fraction(1, 2**53) / 18


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


def test_eighteenth_moment_of_identical_functions():
    # sigma2 = 1/3 for every Fejer function, so the 18th moment is 17!! / 3^9
    tfs = tuple(make_naive(1.0 / 13.0) for _ in range(18))
    res = centered_moment(MomentRequest(tfs, G.SO_EVEN, regime="mock_gaussian"))
    expected = double_factorial(17) / 3.0**9
    assert abs(res.value - expected) <= 1e-13 * expected


def test_mixed_slots_matching_structure(naive_third, naive_quarter):
    a, b = naive_quarter, naive_third
    req = MomentRequest((a, a, b, b), G.SO_EVEN, regime="mock_gaussian")
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
    req = MomentRequest((naive_quarter,) * 3, G.SO_EVEN, regime="mock_gaussian")
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
    req = MomentRequest(
        (gen_sinx2, gen_sinx2, naive_third, naive_third), G.SO_EVEN, regime="mock_gaussian"
    )
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
    # auto names both thresholds it missed, n and the weight
    with pytest.raises(SupportRegimeError, match=r"= 0.75 and the with_R .* = 1 \(n=2, weight k=2\)"):
        centered_moment(MomentRequest((make_naive(1.5),) * 2, G.SO_EVEN, regime="auto"))


def test_moment_request_validation(naive_third):
    with pytest.raises(ValueError):
        MomentRequest((naive_third,), G.SO_EVEN)
    with pytest.raises(ValueError):
        MomentRequest((naive_third,) * 2, G.U)
    with pytest.raises(ValueError):
        MomentRequest((naive_third,) * 2, G.SO_EVEN, weight_k=1)
    with pytest.raises(ValueError):
        MomentRequest((naive_third,) * 2, G.SO_EVEN, regime="bogus")


def test_weight_k_widens_mock_threshold():
    # n = 4: k = 2 gives 3/8, k -> large approaches 1/2
    assert support_threshold("mock_gaussian", 4, 2) == pytest.approx(3.0 / 8.0)
    assert support_threshold("mock_gaussian", 4, 9) == pytest.approx(17.0 / 36.0)


def test_double_factorial():
    assert [double_factorial(k) for k in (1, 3, 5, 7, 11)] == [1, 3, 15, 105, 10395]
