"""Exact-rational oracle for the records of naive (Fejer) test functions,
and for phi(0), phihat(0), sigma2 and the pair term of polynomial and
sin(t^2) generators.

Every expected number is built in exact rational arithmetic from the
float v that each spec parses to, with no machinery of the package:

* sigma2 of two triangles of supports lo <= hi is lo (2 hi - lo) / (3 hi^2);
* the matching sum is the hafnian of those values, summed over matchings
  by a recursion over the slots left;
* R = (-1)^n 2^(n-1) delta^(2n) / ((2n)! prod v_j^2), delta = sum v_j - 1,
  when delta > 0 (the convolution of the triangles' linear end pieces,
  which is Irwin-Hall's tail for equal v), and 0 otherwise;
* a slot's margin is r - 1/v - 1/2 (phi(0) = 1, phihat(0) = 1/v), the
  one-level expectation is 1/v + 1/2 for v <= 1 in both split families
  (:func:`_level1` past it), and the two-level one is a sum of
  polynomial integrals (:func:`_level2`);
* a generator's phihat is the autocorrelation of a polynomial with
  rational coefficients: of gen:poly itself, or of sin(t^2)'s Taylor
  polynomial at rational h, whose omitted alternating tail is bounded by
  its first term (:func:`_generator_oracle`).

The records come from the command line, run once in a child process, so
this module imports nothing of the package except ``from_spec_string``
(for the float v of each spec, and a generator's float coefficients and
half-support).  The generators' phi(0), phihat(0), sigma2 and pair term
are read in a child process too, from the functions themselves
(:func:`_pair_oracle`).

Budgets count units of u = 2^-53 of relative error.  An ulp of x is more
than |x| u, so a budget of k units admits at most k ulps.  Each budget is
the sum of the roundings on the way, named where it is set.
"""

import functools
import json
import math
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest

from momentbounds.testfunc import from_spec_string

U = Fraction(1, 2**53)
SRC = str(Path(sys.modules[from_spec_string.__module__].__file__).resolve().parents[1])

# sigma2 is a Gauss-Legendre sum taken in value space: two Chebyshev
# evaluations, the weights times 4y, and a dot product of two or three
# terms.  Equal triangles read 1/3 to within 3.3 ulps of 2^-54, about 5 u
# relative; 8 u leaves room for unequal pairs.
SIGMA2_BUDGET = 8


def _v(spec: str) -> Fraction:
    return Fraction(from_spec_string(spec).v)


def _sigma2(v1: Fraction, v2: Fraction) -> Fraction:
    lo, hi = sorted((v1, v2))
    return lo * (2 * hi - lo) / (3 * hi * hi)


def _hafnian(vs: list[Fraction]) -> Fraction:
    """Sum over the perfect matchings of the slots of prod sigma2: for 2m
    equal slots the (2m - 1)!! matchings all give sigma2^m, otherwise the
    sum over the matchings of the first slot's partner and the rest.  An
    odd number of slots has no matching."""
    if len(vs) % 2:
        return Fraction(0)
    if len(set(vs)) == 1:
        m = len(vs) // 2
        return prod(range(1, 2 * m, 2)) * _sigma2(vs[0], vs[0]) ** m
    memo = {}

    def haf(left: tuple[int, ...]) -> Fraction:
        if not left:
            return Fraction(1)
        if left not in memo:
            first, rest = left[0], left[1:]
            memo[left] = sum(
                _sigma2(vs[first], vs[j]) * haf(rest[:i] + rest[i + 1 :]) for i, j in enumerate(rest)
            )
        return memo[left]

    return haf(tuple(range(len(vs))))


def _r(vs: list[Fraction]) -> Fraction:
    n = len(vs)
    delta = sum(vs) - 1
    if delta <= 0:
        return Fraction(0)
    assert delta <= min(vs) * (1 + Fraction(1, 10**12))  # the end pieces cover the tail
    return (-1) ** n * 2 ** (n - 1) * delta ** (2 * n) / (factorial(2 * n) * prod(v * v for v in vs))


def _matching_budget(vs: list[Fraction]) -> int:
    """Each of the m sigma2 factors of a matching, then per level of the
    recursion one product of two roundings and a sum: one term per level for
    equal slots, at most 2m - 1 positive terms otherwise (m^2 in all)."""
    m = len(vs) // 2
    return m * SIGMA2_BUDGET + 2 * m + (m * m if len(set(vs)) > 1 else 0)


def _r_budget(vs: list[Fraction]) -> int:
    """delta = fsum(v) - 1 loses sum(v)/delta to cancellation, and R carries
    delta^(2n): 2n (sum(v)/delta + 1) units.  The end-piece convolution adds
    n - 1 Chebyshev interpolations and Gauss-Legendre sums of growing
    degree, whose error grows with n: 8 n^2 units (measured 0.3 at n = 4,
    90 at n = 7, 253 at n = 12 and about 2240 at n = 48)."""
    n = len(vs)
    delta = sum(vs) - 1
    return int(2 * n * (sum(vs) / delta + 1)) + 8 * n * n


def _margin_budget(v: Fraction, r: int) -> Fraction:
    """1/v and the sum with 1/2 round once each on the scale 1/v + 1/2,
    which the subtraction from r divides by the margin; then one more."""
    return 2 * (1 / v + Fraction(1, 2)) / (r - 1 / v - Fraction(1, 2)) + 1


def _integral(p: list[Fraction], a: Fraction, b: Fraction) -> Fraction:
    """int_a^b of the polynomial sum_k p[k] y^k."""
    return sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(p))


def _times(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _level2(v1: Fraction, v2: Fraction, sign: int) -> tuple[Fraction, Fraction]:
    """E_2 of two triangles (v <= 1) and its budget.

    E_2 = I_1 I_2 - 2 T - 2 eps C, plus I_1 + I_2 for SO(odd) (the point
    masses), with I_j = 1/v_j + eps/2 the one-level integrals, T = int
    (1 - |t|)_+ phihat_1 phihat_2 and C = (1/2) int int phihat_1(a)
    phihat_2(b) over the rhombus |a| + |b| < 1, integrated here directly.
    The package reads each term another way, within a few units of its
    size: I_j from a low-degree Chebyshev antiderivative, T as one sum on
    sigma2's rule in value space (as sigma2, within SIGMA2_BUDGET), and
    2C as phi_1(0) phi_2(0) - 2 R_2, where R_2 of two triangles (one step
    of the end-piece convolution) is a few units of R_2 and 2 R_2 is at
    most a fifth of 2C for supports within 1 (1/6 against 5/6 at v = 1).
    So 8 units of each term's size, which the cancellation between them
    divides by E_2; then one more for the quotient by the rank's integer
    coefficient.
    """
    tri1, tri2 = ([1 / v, -1 / (v * v)] for v in (v1, v2))  # phihat on [0, v]
    i1, i2 = (1 / v + Fraction(sign, 2) for v in (v1, v2))
    t = 2 * _integral(_times(_times([1, -1], tri1), tri2), 0, min(1, v1, v2))
    # 2 P_1(min(1 - b, v_1)), P_1(u) = int_0^u phihat_1: 1 up to b = 1 - v_1, then
    # 2 P_1(1 - b) = 2 (1 - b)/v_1 - (1 - b)^2/v_1^2
    b_max = min(v2, 1)
    split = min(max(1 - v1, 0), b_max)
    tail = [2 / v1 - 1 / (v1 * v1), -2 / v1 + 2 / (v1 * v1), -1 / (v1 * v1)]
    c = _integral(tri2, 0, split) + _integral(_times(tail, tri2), split, b_max)
    terms = [i1 * i2, -2 * t, -2 * sign * c] + ([i1, i2] if sign < 0 else [])
    value = sum(terms)
    return value, 8 * sum(abs(x) for x in terms) / abs(value) + 1


def _moment(vs: list[Fraction], sign: int, with_r: bool) -> tuple[Fraction, Fraction]:
    """The exact moment and its budget: the matching sum, plus sign * R in with_R."""
    matching = _hafnian(vs)
    if not with_r:
        return matching, Fraction(_matching_budget(vs))
    r = _r(vs)
    value = matching + sign * r
    budget = (_matching_budget(vs) * matching + _r_budget(vs) * abs(r)) / abs(value) + 1
    return value, budget


def _within(got: float, exact: Fraction, budget) -> bool:
    return abs(Fraction(got) - exact) <= budget * U * abs(exact)


# ---- the records ----

SIGN = {"so-even": 1, "so-odd": -1}


def _naive(q: str, count: int = 1) -> str:
    return " ".join([f"--testfn naive:v={q}"] * count)


# The naive ops of the benchmark workloads (perfbench/workloads.py), the
# README and CI bounds past 2m = 24, and the CI Irwin-Hall R commands.
BOUNDS = [
    "bound --family so-even --ranks 4,6,8,10,12 --method moment4 --testfn naive:v=1/3 --regime with_R",
    "bound --family so-odd --ranks 5,7,9,11 --method moment4 --testfn naive:v=1/3 --regime with_R",
    "bound --family so-even --ranks 6,8,10,12 --method moment2m:3 --testfn naive:v=1/5 --regime with_R",
    "bound --family so-odd --ranks 9,11 --method moment2m:4 --testfn naive:v=1/7 --regime with_R",
    "bound --family so-even --ranks 10,12 --method moment2m:5 --testfn naive:v=1/9 --regime with_R",
    "bound --family so-even --ranks 12 --method moment2m:6 --testfn naive:v=1/11 --regime with_R",
    "bound --family so-even --rank 20 --method moment4 --testfn naive:v=1/3 --regime mock_gaussian",
    "bound --family so-odd --rank 21 --method moment4 --testfn naive:v=1/3 --regime mock_gaussian",
    "bound --family so-even --rank 50 --method moment2m:23 --testfn naive:v=3/92 --regime mock_gaussian",
    "bound --family so-even --rank 100 --method moment2m:48 --testfn naive:v=1/64 --regime mock_gaussian",
]
LEVEL1 = [
    "bound --family so-even --ranks 6,8,10,12 --method level1 --testfn naive:v=1",
    "bound --family so-odd --ranks 5,7,9 --method level1 --testfn naive:v=1/2",
] + [
    # supports past 1, where the one-level integral stops at 1
    f"bound --family {family} --ranks {ranks} --method level1 --testfn naive:v={q}"
    for q in ("5/4", "3/2", "7/4", "2") for family, ranks in (("so-even", "4,6"), ("so-odd", "5,7"))
]
# All-polynomial and mock-Gaussian, as recorded in CI: (7)!! sigma2^4 / margin^8
POLY_BOUNDS = [
    "bound --family so-even --rank 30 --method moment2m:4 --testfn gen:poly:1,0,-50:half=1/20 "
    "--regime mock_gaussian",
]
LEVEL2 = [
    "bound --family so-odd --ranks 5,7,9,11 --method level2 --testfn naive:v=1/2",
    "bound --family so-even --ranks 6,8,10 --method level2 --testfn naive:v=1/3 --testfn naive:v=1/2",
    "bound --family so-even --ranks 4,6,8,10,12 --method level2 --testfn naive:v=1",
]
MOMENTS = [
    f"moment --family so-even --regime with_R {_naive('1/3', 4)}",
    "moment --family so-even --regime with_R "
    + " ".join(f"--testfn naive:v=1/{q}" for q in range(10, 20)),
    f"moment --family so-even --regime mock_gaussian {_naive('1/10', 8)}",
    f"moment --family so-even --regime mock_gaussian {_naive('1/10', 12)}",
    f"moment --family so-even --regime with_R {_naive('1/6', 7)}",
    f"moment --family so-even --regime with_R {_naive('1/11', 12)}",
]
TABLES = ["table T1", "table T2", "table T3", "table T4", "table T5"]

_RUN = """
import contextlib, io, json, shlex, sys
sys.path.insert(0, sys.argv[1])
from momentbounds import cli
out = {}
for command in json.loads(sys.stdin.read()):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(shlex.split(command))
    out[command] = [code, [json.loads(line) for line in buf.getvalue().splitlines()]]
print(json.dumps(out))
"""


# ---- generators: polynomials, and sin(t^2) as its Taylor polynomial ----

# Rational coefficients, unequal half-supports and unequal phihat degrees
# (2d - 1 for d coefficients), with transform supports within 1.
POLY_PAIRS = [
    ("gen:poly:1,0,-50:half=1/20", "gen:poly:3,-1/2,2/7,1/5:half=1/6"),
    ("gen:poly:1,1/3:half=1/4", "gen:poly:2,0,-3,0,1/2:half=3/10"),
    ("gen:poly:5/4,-1,1/9:half=1/2", "gen:poly:1:half=1/3"),
    ("gen:poly:1,0,0,0,0,0,-7/3:half=2/5", "gen:poly:-2,1,1/4:half=1/8"),
]
# sin(t^2) with itself at two rational h, and beside a polynomial
SINX2_PAIRS = [
    ("gen:sinx2:half=1/8", "gen:sinx2:half=1/8"),
    ("gen:sinx2:half=1/10", "gen:sinx2:half=1/10"),
    ("gen:sinx2:half=1/8", "gen:poly:1,0,-50:half=1/20"),
]


def _sinx2_taylor(h: Fraction) -> tuple[list[Fraction], Fraction, int]:
    """sin(t^2) on |t| < h as its Taylor polynomial in t, exactly.

    Returns the power coefficients, sum_j (-1)^j t^(4j+2) / (2j+1)! cut
    before the first term within 1e-17 of h^2 at t = h, that first omitted
    term tau, and the number of terms kept.  The terms fall (h <= 1), so
    |sin(t^2) - p(t)| <= tau on the support (an alternating tail).  The
    package's polynomial keeps tau's term as its last, so it too is within
    tau of this one.
    """
    coef: list[Fraction] = []
    j = 0
    while (tau := h ** (4 * j + 2) / factorial(2 * j + 1)) > Fraction(1, 10**17) * h * h:
        coef += [Fraction(0), Fraction(0), Fraction((-1) ** j, factorial(2 * j + 1)), Fraction(0)]
        j += 1
    return coef, tau, j


def _autocorrelation(c: list[Fraction], h: Fraction) -> list[Fraction]:
    """phihat(y) = int_(y-h)^h g(t) g(t - y) dt on [0, 2h] for g(t) = sum_i c_i t^i:
    one polynomial piece of degree 2d - 1, from the binomial expansions of
    (t - y)^j and (y - h)^(p+1)."""
    phihat = [Fraction(0)] * (2 * len(c))
    nonzero = [(i, ci) for i, ci in enumerate(c) if ci]
    for i, ci in nonzero:
        for j, cj in nonzero:
            for m in range(j + 1):
                # c_i c_j C(j, m) (-y)^(j-m) (h^(p+1) - (y - h)^(p+1)) / (p + 1), p = i + m
                p = i + m
                a = ci * cj * comb(j, m) * (-1) ** (j - m) / (p + 1)
                phihat[j - m] += a * h ** (p + 1)
                for r in range(p + 2):
                    phihat[j - m + r] -= a * comb(p + 1, r) * (-h) ** (p + 1 - r)
    return phihat


@functools.cache
def _generator_oracle(spec: str) -> tuple[list[Fraction], Fraction, Fraction, Fraction, Fraction]:
    """phihat of gen:poly or gen:sinx2 on [0, 2h], exactly, its error
    budget e on the whole support and its budget at 0, and phi(0) =
    (int g)^2, exactly, and its budget.

    The package's phihat is c^T T c with T a table of Chebyshev
    coefficients.  A polynomial basis has d weights c and d power
    coefficients; sin(t^2) is one weight on its Taylor polynomial of
    D = 4 (J + 1) - 1 power coefficients (:func:`_sinx2_taylor`).  The
    entries of T have degree at most 2D - 1, so no series is truncated:
    past that degree the chop at 1e-14 of an entry's Cauchy-Schwarz scale
    sqrt(G_kk G_ll) drops rounding noise, and a true coefficient below it,
    if any, is dropped with an error under 1e-14 of that scale.  A kept
    coefficient is a DCT of 128 samples, each a D-node Gauss-Legendre sum
    of products of two basis values of at most D roundings each: at most
    2 (2D + 128) units of the scale.  Each of the at most 2D coefficients
    is read at |T_j| <= 1, and sum |c_k c_l| sqrt(G_kk G_ll) <= d sum
    c_k^2 G_kk (Cauchy-Schwarz), so the chop and this rounding give
    |phihat - exact| <= 2D (1e-14 + 2 (2D + 128) u) S, S = d sum c_k^2 G_kk
    with G_kk = 2 h^(2k+1) / (2k + 1) for polynomials and S = int p^2 =
    phihat(0) for sin(t^2).  The chop level sets the floor.  phihat(0) is
    c^T G c with G = T(0) its own D-node sum, neither chopped nor
    interpolated: 2 (2D + 2) units of S.

    sin(t^2) adds two parts.  Its Taylor coefficients round by at most 3
    units a term (h^4, a product and a quotient), 3 (J + 1) on the last,
    in each of the two factors of T: 6 (J + 1) units of S.  And the
    package's polynomial is within tau of this one, which moves phihat by
    at most int (tau |p(t - y)| + |p(t)| tau) dt <= 4 h^3 tau, as |p| <= h^2
    on the support, and int g by at most 2 h tau.

    int g = sum_k c_k 2 h^(k+1) / (k+1) over even k is a closed form in the
    package: each term rounds in the power, the quotient and the product,
    and the sum adds a unit per term, D + 3 units of sum |term| (plus the
    Taylor coefficients' 3 (J + 1)).  Squaring adds one unit of phi(0).
    """
    gen = from_spec_string(spec).generator
    h = Fraction(gen.half_support)
    if gen.kind == "polynomial":
        c = [Fraction(x) for x in gen.coefficients]
        size, coef_units, tau = len(c), 0, Fraction(0)
    else:
        c, tau, terms = _sinx2_taylor(h)
        size, coef_units = len(c) + 3, 3 * (terms + 1)  # D = 4 (J + 1) - 1
    phihat = _autocorrelation(c, h)
    if gen.kind == "polynomial":
        scale = len(c) * sum(ck * ck * 2 * h ** (2 * k + 1) / (2 * k + 1) for k, ck in enumerate(c))
    else:
        scale = phihat[0]
    taylor = 2 * coef_units * U * scale + 4 * h**3 * tau
    error = 2 * size * (Fraction(1, 10**14) + 2 * (2 * size + 128) * U) * scale + taylor
    error_at_zero = 2 * (2 * size + 2) * U * scale + taylor
    int_terms = [ck * 2 * h ** (k + 1) / (k + 1) for k, ck in enumerate(c) if k % 2 == 0]
    int_g = sum(int_terms)
    int_error = (size + 3 + coef_units) * U * sum(abs(x) for x in int_terms) + 2 * h * tau
    phi0_error = 2 * abs(int_g) * int_error + int_error**2 + U * int_g**2
    return phihat, error, error_at_zero, int_g**2, phi0_error


def _pair_oracle(spec_a: str, spec_b: str) -> list[tuple[Fraction, Fraction]]:
    """(exact, allowed error) of sigma2 and of the pair term of two generators.

    sigma2 = 4 int_0^u y phihat_a phihat_b and T = 2 int_0^u (1 - y) phihat_a
    phihat_b, u = min(2 h_a, 2 h_b) <= 1, integrated exactly.  |phihat| <=
    phihat(0) (an autocorrelation), so S = int_0^u w(y) phihat_a(0) phihat_b(0),
    with w = 4y or 2 (1 - y), bounds each in size.  Each phihat's error
    budget e (:func:`_generator_oracle`) enters as int_0^u w (e_a phihat_b(0)
    + phihat_a(0) e_b).  The value-space Gauss-Legendre sum on sigma2's rule
    (basis values, two matrix-vector products of at most 14 terms, weights
    and a dot product of at most 13) rounds by at most 8 units of the
    value in these pairs, and |value| <= S: 16 units of S leave room.
    """
    (pa, ea, *_), (pb, eb, *_) = _generator_oracle(spec_a), _generator_oracle(spec_b)
    u = min(2 * Fraction(from_spec_string(s).generator.half_support) for s in (spec_a, spec_b))
    assert u <= 1
    product = _times(pa, pb)
    out = []
    for weight in ([0, 4], [2, -2]):
        size = _integral(weight, 0, u)
        exact = _integral(_times(weight, product), 0, u)
        out.append((exact, size * (ea * pb[0] + pa[0] * eb + 16 * U * pa[0] * pb[0])))
    return out


_PAIRS_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from momentbounds.testfunc import from_spec_string, pair_term, sigma2
out = []
for spec_a, spec_b in json.loads(sys.stdin.read()):
    a, b = from_spec_string(spec_a), from_spec_string(spec_b)
    out.append([[a.phi0, a.phihat0, b.phi0, b.phihat0],
                [sigma2(a, b), pair_term(a, b), sigma2(b, a), pair_term(b, a)]])
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def generator_pairs():
    pairs = POLY_PAIRS + SINX2_PAIRS
    done = subprocess.run(
        [sys.executable, "-c", _PAIRS_RUN, SRC], input=json.dumps(pairs),
        capture_output=True, text=True, check=True,
    )
    return dict(zip(pairs, json.loads(done.stdout)))


def test_poly_phihat_oracle_is_the_autocorrelation_at_zero():
    # phihat(0) = int g^2 and phihat(2h) = 0, exactly
    phihat, *_ = _generator_oracle("gen:poly:1,1/3:half=1/4")
    h, c1 = Fraction(1, 4), Fraction(1 / 3)
    assert phihat[0] == 2 * h + 2 * c1 * c1 * h**3 / 3
    assert sum(a * (2 * h) ** k for k, a in enumerate(phihat)) == 0


def test_sinx2_taylor_oracle_brackets_sin():
    # the cut polynomial and the next partial sum bracket sin(t^2) at t = h,
    # tau apart; at h = 1/8 four terms are kept
    h = Fraction(1, 8)
    coef, tau, terms = _sinx2_taylor(h)
    assert terms == 4 and tau == h**18 / factorial(9)
    value = sum(c * h**k for k, c in enumerate(coef))
    assert abs(float(value) - math.sin(1 / 64)) <= 2 * float(U) * float(value)


@pytest.mark.parametrize("pair", POLY_PAIRS + SINX2_PAIRS)
def test_generator_sigma2_and_pair_term_are_exact(generator_pairs, pair):
    # phi(0) and phihat(0) of each function, then both orders of the pair:
    # sigma2 (a, b), T (a, b), sigma2 (b, a), T (b, a)
    at_zero, pair_values = generator_pairs[pair]
    (pa, _, ea, phi0_a, fa), (pb, _, eb, phi0_b, fb) = (_generator_oracle(s) for s in pair)
    exact = [(phi0_a, fa), (pa[0], ea), (phi0_b, fb), (pb[0], eb)] + _pair_oracle(*pair) * 2
    for value, (want, allowed) in zip(at_zero + pair_values, exact):
        assert abs(Fraction(value) - want) <= allowed, (pair, value, float(want), float(allowed))


@pytest.fixture(scope="module")
def records():
    commands = BOUNDS + LEVEL1 + LEVEL2 + MOMENTS + TABLES + POLY_BOUNDS
    done = subprocess.run(
        [sys.executable, "-c", _RUN, SRC], input=json.dumps(commands),
        capture_output=True, text=True, check=True,
    )
    # the exit codes are left alone: a table whose cells drift exits 1, and
    # its records are what the table test reads
    return {command: recs for command, (_, recs) in json.loads(done.stdout).items()}


def _slots(command: str) -> list[str]:
    words = command.split()
    specs = [words[i + 1] for i, w in enumerate(words) if w == "--testfn"]
    method = words[words.index("--method") + 1] if "--method" in words else None
    if method and len(specs) == 1:
        specs *= (1 if method == "level1" else 2 if method in ("level2", "moment4")
                  else int(method.split(":")[1]))
    return specs


def _check_moment_bound(rec: dict, vs: list[Fraction], family: str, with_r: bool) -> None:
    """One moment bound record: the slots vs, each used twice."""
    r = rec["rank"]
    moment, moment_budget = _moment([v for v in vs for _ in range(2)], SIGN[family], with_r)
    den = prod((r - 1 / v - Fraction(1, 2)) ** 2 for v in vs)
    # each slot's margin, squared (one rounding) and multiplied in (one more)
    den_budget = sum(2 * _margin_budget(v, r) + 2 for v in vs)
    assert _within(rec["moment_value"], moment, moment_budget), (rec, float(moment))
    assert _within(rec["denominator"], den, den_budget), (rec, float(den))
    bound_budget = moment_budget + den_budget + 1
    assert _within(rec["upper_bound"], moment / den, bound_budget), (rec, float(moment / den))


@pytest.mark.parametrize("command", BOUNDS)
def test_naive_moment_bounds_are_exact(records, command):
    vs = [_v(spec) for spec in _slots(command)]
    family = command.split()[2]
    recs = records[command]
    assert recs
    for rec in recs:
        _check_moment_bound(rec, vs, family, "with_R" in command)


def _level1(v: Fraction, sign: int) -> tuple[Fraction, Fraction]:
    """E_1 of a triangle and its budget.

    E_1 = 1/v + eps int_0^min(1, v) phihat, plus phi(0) = 1 for SO(odd)
    (the point mass), with int_0^min(1, v) phihat = 1/2 for v <= 1 and
    (1/v)(1 - 1/(2v)) past it.  The package reads that integral as
    phi(0)/2 + R_1, R_1 of one triangle a one-node sum within a few units
    of its size; 1/v and each sum round once.  So 8 units of each term's
    size, which the cancellation between them divides by E_1; then one
    more for the quotient by the rank.
    """
    half = Fraction(1, 2) if v <= 1 else (1 / v) * (1 - 1 / (2 * v))
    terms = [1 / v, sign * half] + ([Fraction(1)] if sign < 0 else [])
    value = sum(terms)
    return value, 8 * sum(abs(x) for x in terms) / abs(value) + 1


@pytest.mark.parametrize("command", LEVEL1)
def test_naive_level1_bounds_are_exact(records, command):
    (v,) = [_v(spec) for spec in _slots(command)]
    value, budget = _level1(v, SIGN[command.split()[2]])
    assert records[command]
    for rec in records[command]:
        assert _within(rec["upper_bound"], value / rec["rank"], budget), (rec, float(value))


@pytest.mark.parametrize("command", POLY_BOUNDS)
def test_poly_mock_gaussian_bound_is_exact(records, command):
    # one slot used 2m = 8 times: the moment is (2m - 1)!! sigma2^m, and the
    # denominator the margin r phi(0) - phihat(0) - phi(0)/2 to the power 2m
    (spec,) = set(_slots(command))
    m = len(_slots(command))
    phihat, _, e_phihat, phi0, e_phi0 = _generator_oracle(spec)
    sigma, e_sigma = _pair_oracle(spec, spec)[0]
    (rec,) = records[command]
    r = rec["rank"]
    moment = prod(range(1, 2 * m, 2)) * sigma**m
    # m sigma2 factors, then a product and a sum per level of the recursion
    moment_budget = m * e_sigma / (U * sigma) + 2 * m
    margin = r * phi0 - phihat[0] - phi0 / 2
    # r phi(0), the sum and the difference round once each, on the terms' scale
    terms = r * phi0 + phihat[0] + phi0 / 2
    margin_budget = (Fraction(r + 1) * e_phi0 + e_phihat + 3 * U * terms) / (U * margin)
    den_budget = m * (2 * margin_budget + 2)  # each factor squared and multiplied in
    assert _within(rec["moment_value"], moment, moment_budget), (rec, float(moment))
    assert _within(rec["denominator"], margin ** (2 * m), den_budget), (rec, float(margin))
    bound_budget = moment_budget + den_budget + 1
    assert _within(rec["upper_bound"], moment / margin ** (2 * m), bound_budget), rec


def test_level2_of_the_unit_triangle_is_five_twelfths():
    assert _level2(Fraction(1), Fraction(1), 1)[0] == Fraction(5, 12)


@pytest.mark.parametrize("command", LEVEL2)
def test_naive_level2_bounds_are_exact(records, command):
    vs = [_v(spec) for spec in _slots(command)]
    value, budget = _level2(*vs, SIGN[command.split()[2]])
    for rec in records[command]:
        r = rec["rank"]
        coefficient = r * (r - 2) if r % 2 == 0 else (r - 1) ** 2
        assert _within(rec["upper_bound"], value / coefficient, budget), (rec, float(value))


@pytest.mark.parametrize("command", MOMENTS)
def test_naive_moments_are_exact(records, command):
    vs = [_v(spec) for spec in _slots(command)]
    (rec,) = records[command]
    with_r = rec["regime"] == "with_R"
    assert _within(rec["matching_sum"], _hafnian(vs), _matching_budget(vs)), rec
    if with_r:
        exact_r = _r(vs)
        if exact_r == 0:
            assert rec["r_term"] == 0.0
        else:
            assert _within(rec["r_term"], exact_r, _r_budget(vs)), (rec, float(exact_r))
    value, budget = _moment(vs, SIGN[rec["family"]], with_r)
    assert _within(rec["value"], value, budget), (rec, float(value))


@pytest.mark.parametrize("table", TABLES)
def test_naive_table_cells_are_exact(records, table):
    # the naive column: two slots of naive:v=1/3, each doubled, in with_R
    cells = [c for c in records[table] if c["column"] == "moment4_naive"]
    assert cells
    v = _v("naive:v=1/3")
    for cell in cells:
        r = cell["rank"]
        moment, moment_budget = _moment([v] * 4, SIGN[cell["family"]], True)
        den = (r - 1 / v - Fraction(1, 2)) ** 4
        budget = moment_budget + 2 * (2 * _margin_budget(v, r) + 2) + 1  # as in a moment bound
        assert _within(cell["computed"], moment / den, budget), (cell, float(moment / den))
