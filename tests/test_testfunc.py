"""Test functions: closed forms, autocorrelation, functionals, spec strings."""

import functools
import itertools
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial, chebyshev, legendre
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from momentbounds import (
    GeneratorBasis,
    GeneratorSpec,
    OptimizationProblem,
    SymmetryGroup,
    from_spec_string,
    make_from_generator,
    make_naive,
    min_rank,
    moments,
    objective,
    sigma2,
    testfunc,
)
from momentbounds.bounds import bound_moment
from momentbounds.kernels import expectation_1level, expectation_2level
from momentbounds.quadrature import chebyshev_points, legendre_rule
from momentbounds.testfunc import (
    NaiveTestFunction,
    _autocorrelation,
    _basis_tables,
    _sigma2_rule,
    pair_term,
    parse_rational,
)

# int g and int g^2 for g(x) = sin(x^2) on |x| < 1/8, via scipy.integrate.quad
# at 1e-15/1e-13 tolerances (independent of the package's own machinery).
SINX2_INT_G = 0.0013020606269783766
SINX2_INT_G2 = 1.2206479367578338e-05


def exact_naive_sigma2(v1, v2) -> Fraction:
    """Closed form of 2 int |y| phihat_{v1} phihat_{v2} dy for triangles,
    exact in the values of v1 and v2 (floats or Fractions)."""
    lo, hi = sorted((Fraction(v1), Fraction(v2)))
    return lo / (3 * hi * hi) * (2 * hi - lo)


def _rel_error(got: float, exact: Fraction) -> float:
    return float(abs(Fraction(got) / exact - 1))


# ---- naive family ----


def test_naive_values_at_origin(naive_third):
    assert naive_third.phi0 == pytest.approx(1.0, abs=1e-15)
    assert naive_third.phihat0 == pytest.approx(3.0, abs=1e-12)


def test_naive_triangle_point():
    tf = make_naive(1.0)
    assert float(tf.phihat(0.5)) == pytest.approx(0.5, abs=1e-15)
    assert float(tf.phihat(1.0)) == 0.0


@given(v=st.floats(0.05, 4.0))
@hyp_settings(max_examples=30, deadline=None)
def test_naive_quarter_period_value(v):
    tf = make_naive(v)
    assert float(tf.phi(1.0 / (2.0 * v))) == pytest.approx(4.0 / math.pi**2, rel=1e-12)


def test_naive_rejects_nonpositive_v():
    for v in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            make_naive(v)


@pytest.mark.parametrize("v", [1e-320, 5e-324, 1e-309, 1e308, np.float64(1e-320)])
def test_naive_refuses_v_whose_inverse_leaves_the_normal_range(v):
    # phihat(0) = 1/v would be inf (v below 1/max) or subnormal (v above
    # 1/min); refused by name, with no floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="1/v in the normal double range"):
            make_naive(v)
    for fine in (1e-300, 5.6e-309, 1e307):
        assert math.isfinite(make_naive(fine).phihat0)


# ---- generator-backed construction ----


def test_indicator_generator_reproduces_naive_one():
    # constant generator on (-1/2, 1/2): autocorrelation is the unit
    # triangle, i.e. exactly the v=1 pair
    gen = make_from_generator(GeneratorSpec("polynomial", (1.0,), 0.5))
    naive = make_naive(1.0)
    assert gen.support_bound == pytest.approx(1.0)
    ys = np.linspace(-1.2, 1.2, 241)
    assert np.allclose(gen.phihat(ys), naive.phihat(ys), atol=1e-10)
    xs = np.linspace(-30.0, 30.0, 301)
    assert np.allclose(gen.phi(xs), naive.phi(xs), atol=1e-10)


def test_sinx2_generator_scalars(gen_sinx2):
    assert gen_sinx2.phi0 == pytest.approx(SINX2_INT_G**2, rel=1e-10)
    assert gen_sinx2.phihat0 == pytest.approx(SINX2_INT_G2, rel=1e-10)
    assert gen_sinx2.phi0 == pytest.approx(1.7e-6, rel=0.01)


def test_generator_phihat_even_and_supported(gen_sinx2):
    ys = np.linspace(0.0, 0.3, 100)
    assert np.allclose(gen_sinx2.phihat(ys), gen_sinx2.phihat(-ys), atol=0)
    assert float(gen_sinx2.phihat(0.25)) == 0.0
    assert float(gen_sinx2.phihat(0.3)) == 0.0


def test_zero_integral_generator_rejected():
    # odd generators, and 1 - (pi/2) cos(pi t/2) on (-1, 1): the integral
    # vanishes, phi(0) = 0; the guard's scale is sqrt(2h int g^2) >= int |g|
    for spec in ("gen:poly:0,1:half=1/4", "gen:poly:0,1:half=1",
                 "gen:cos:1,-1.5707963267948966:half=1"):
        with pytest.raises(ValueError, match="integrates to zero"):
            from_spec_string(spec)
    assert from_spec_string("gen:cos:1,-1.5:half=1").phi0 > 0
    with pytest.raises(ValueError, match="identically zero"):
        make_from_generator(GeneratorSpec("polynomial", (0.0,), 0.25))


@pytest.mark.parametrize(
    "spec, reason",
    [
        ("gen:cos:1e160:half=1/6", "overflows"),  # int g^2 is inf
        ("gen:poly:1.2e153:half=6", "overflows"),  # phi(0) = 2e308, int g^2 = 1.7e307
        ("gen:cos:1e-200:half=1/6", "underflows"),  # int g^2 rounds to 0.0
        ("gen:poly:1e-160:half=1", "underflows"),  # phi(0) = 4e-320 is subnormal
        ("gen:cos:0,0,0:half=1/6", "identically zero"),
        ("gen:poly:0,1e-200:half=1/4", "integrates to zero"),
    ],
)
def test_generator_outside_the_double_range_is_refused_by_name(spec, reason):
    # a scale past the double range names itself, silently: no floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=reason):
            from_spec_string(spec)


def test_generator_scales_inside_the_double_range_build():
    for spec in ("gen:cos:1e150:half=1/6", "gen:cos:1e-150:half=1/6"):
        tf = from_spec_string(spec)
        assert tf.phihat0 / tf.phi0 == pytest.approx(3.0, rel=1e-13)


# (int g)^2 and int g^2 in 40-digit arithmetic; cos and poly are closed
# forms to rounding, sin(t^2) its Taylor polynomial's closed-form integral
# and exact Gauss-Legendre Gram entry
@pytest.mark.parametrize("spec, g, tol", [
    ("gen:cos:1,0.3,-0.2:half=1/20",
     lambda mp, t: 1 + mp.mpf(0.3) * mp.cos(10 * mp.pi * t) - mp.mpf(0.2) * mp.cos(20 * mp.pi * t),
     1e-15),
    ("gen:poly:1,0,-50:half=1/20", lambda mp, t: 1 - 50 * t**2, 1e-15),
] + [(f"gen:sinx2:half={h}", lambda mp, t: mp.sin(t * t), 2e-15) for h in ("1/10", "1/8", "1/2", "1")])
def test_generator_values_at_origin_match_mpmath(spec, g, tol):
    mpmath = pytest.importorskip("mpmath")
    g = functools.partial(g, mpmath)
    tf = from_spec_string(spec)
    h = mpmath.mpf(tf.generator.half_support)
    with mpmath.workdps(40):
        int_g = mpmath.quad(g, [-h, 0, h])
        int_g2 = mpmath.quad(lambda t: g(t) ** 2, [-h, 0, h])
        assert abs(tf.phi0 / int_g**2 - 1) <= tol
        assert abs(tf.phihat0 / int_g2 - 1) <= tol


def _ghat_mpmath(mp, gen: GeneratorSpec, x: float):
    """ghat(x) = int g(t) e^{2 pi i x t} dt in closed form, in mpmath."""
    h, w = mp.mpf(gen.half_support), 2 * mp.pi * mp.mpf(x)
    if gen.kind == "cosine-series":
        # cos(a t) cos(w t) = [cos((a - w) t) + cos((a + w) t)] / 2
        def part(b):
            return 2 * h if b == 0 else 2 * mp.sin(b * h) / b

        return sum(mp.mpf(c) * (part(k * mp.pi / (2 * h) - w) + part(k * mp.pi / (2 * h) + w)) / 2
                   for k, c in enumerate(gen.coefficients))
    if gen.kind == "polynomial":
        # I_k = int t^k e^{iwt} dt = [t^k e^{iwt} / (iw)] - k I_(k-1) / (iw)
        moments = [2 * mp.sin(w * h) / w]
        for k in range(1, len(gen.coefficients)):
            ends = h**k * mp.expj(w * h) - (-h) ** k * mp.expj(-w * h)
            moments.append((ends - k * moments[-1]) / (1j * w))
        return sum(mp.mpf(c) * i_k for c, i_k in zip(gen.coefficients, moments))
    # sin(t^2) cos(w t) is half the sum of sin((t +- w/2)^2 - w^2/4): Fresnel integrals
    def fresnel(f, u):
        return mp.sqrt(mp.pi / 2) * f(u * mp.sqrt(2 / mp.pi))

    total = 0
    for shift in (w / 2, -w / 2):
        lo, hi = shift - h, shift + h
        total += (mp.cos(w * w / 4) * (fresnel(mp.fresnels, hi) - fresnel(mp.fresnels, lo))
                  - mp.sin(w * w / 4) * (fresnel(mp.fresnelc, hi) - fresnel(mp.fresnelc, lo)))
    return total / 2


@pytest.mark.parametrize("spec", [
    "gen:cos:1,0.3,-0.2:half=1/20",
    "gen:cos:1,0.3,-0.2,0.1:half=1/8",
    "gen:cos:1,0.5,-0.4,0.3,-0.2,0.15,-0.1,0.08,-0.06,0.04,-0.03,0.02:half=1/8",
    "gen:poly:1,0,-50:half=1/20",
    "gen:poly:1,2,-50,30:half=1/8",
    "gen:sinx2:half=1/8",
    "gen:sinx2:half=1/2",
    "gen:sinx2:half=1",
])
def test_phi_matches_mpmath(spec):
    # phases 2 pi |x| h from 0.3 to 2250, past 900 as well: the closed form
    # has no phase limit
    mpmath = pytest.importorskip("mpmath")
    tf = from_spec_string(spec)
    xs = np.array([0.3, 2.0, 17.0, 130.0, 600.0, 899.0, 1500.0, 2250.0])
    xs /= 2.0 * math.pi * tf.generator.half_support
    with mpmath.workdps(40):
        exact = [float(abs(_ghat_mpmath(mpmath, tf.generator, x)) ** 2) for x in xs]
    assert np.abs(tf.phi(xs) - exact).max() <= 1e-15 * tf.phi0
    assert np.array_equal(tf.phi(-xs), tf.phi(xs))


@pytest.mark.parametrize("spec", [
    "gen:cos:1,-1.5,0.2:half=1/8",
    "gen:poly:1,0,-2.9:half=1",
    "gen:cos:1,-0.9,-0.9,1:half=0.3",
])
def test_phi_of_a_nearly_cancelling_generator_matches_mpmath_on_its_scale(spec):
    # these generators nearly integrate to zero, so phi(0) is far below phi
    # elsewhere and rounding in the larger values misses 1e-15 phi(0) (by
    # 200 times for the polynomial); the natural scale is 2h int g^2 =
    # 2h phihat(0), which bounds |ghat|^2 at every x by Cauchy-Schwarz
    mpmath = pytest.importorskip("mpmath")
    tf = from_spec_string(spec)
    h = tf.generator.half_support
    xs = np.array([0.3, 2.0, 17.0, 130.0, 600.0, 899.0, 1500.0, 2250.0]) / (2.0 * math.pi * h)
    with mpmath.workdps(40):
        exact = [float(abs(_ghat_mpmath(mpmath, tf.generator, x)) ** 2) for x in xs]
    assert np.abs(tf.phi(xs) - exact).max() <= 1e-15 * 2.0 * h * tf.phihat0


def test_cosine_phi_loads_no_scipy_in_a_fresh_process():
    # cosine phi is a sum of sinc pairs in numpy: no spherical Bessel function
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from momentbounds.testfunc import from_spec_string
tf = from_spec_string("gen:cos:1,0.3,-0.2:half=1/20")
values = tf.phi(np.linspace(-50.0, 50.0, 48_000))
print(bool(np.isfinite(values).all()), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(testfunc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "True []"


def test_bounds_never_build_the_phi_rule(monkeypatch):
    # phi(0) and phihat(0) come from the basis moments and Gram matrix, so
    # bounds, moments, expectations and the optimizer never build ghat's
    # Legendre series nor import scipy.special; only phi of a polynomial or
    # sin(t^2) generator away from 0 does, and cosine phi never does
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    tfs = [from_spec_string(spec) for spec in
           ("gen:cos:1,0.3,-0.2:half=1/20", "gen:poly:1,0,-50:half=1/20", "gen:sinx2:half=1/8")]
    for tf in tfs:
        (result,) = bound_moment([tf], SymmetryGroup.SO_EVEN, [30], regime="mock_gaussian")
        assert result.upper_bound > 0
        request = moments.MomentRequest((tf,) * 4, SymmetryGroup.SO_EVEN, regime="with_R")
        assert moments.centered_moment(request).value > 0
        assert expectation_1level(tf, SymmetryGroup.SO_ODD) > 0
        assert expectation_2level(tf, tfs[0], SymmetryGroup.SO_EVEN) > 0
    problem = OptimizationProblem(
        family=SymmetryGroup.SO_EVEN, rank=100,
        bases=(GeneratorBasis("cosine-series", dimension=4, half_support=0.125),
               make_naive(0.25)),
        support_budget=0.25, regime="mock_gaussian",
    )
    assert objective([(1.0, -0.75, 0.5, 0.5), ()], problem) < 1e-8
    assert not any("_ghat_series" in vars(tf) for tf in tfs)
    for tf in tfs[1:]:
        with pytest.raises(ImportError, match="scipy.special"):
            tf.phi(1.0)
    assert 0.0 < tfs[0].phi(1.0) < tfs[0].phi0
    assert "_ghat_series" not in vars(tfs[0])


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("unknown-kind", (1.0,), 0.5)
    with pytest.raises(ValueError):
        GeneratorSpec("polynomial", (1.0,), 0.0)
    with pytest.raises(ValueError):
        GeneratorSpec("sin-of-square", (1.0,), 0.5)
    with pytest.raises(ValueError, match="half_support <= 1"):
        GeneratorSpec("sin-of-square", (), 1.0 + 2.0**-52)
    assert GeneratorSpec("sin-of-square", (), 1.0).half_support == 1.0
    with pytest.raises(ValueError):
        GeneratorSpec("polynomial", (), 0.5)


def _off_grid_points(half: float) -> np.ndarray:
    """10,000 random points of the support [0, 2h], plus 500 in each of its
    first and last 1%, where a tabulated phihat goes wrong first."""
    rng = np.random.default_rng(6)
    two_h = 2.0 * half
    return np.concatenate(
        [
            rng.uniform(0.0, two_h, 10_000),
            rng.uniform(0.0, 0.01 * two_h, 500),
            rng.uniform(0.99 * two_h, two_h, 500),
        ]
    )


def test_polynomial_phihat_matches_exact_autocorrelation():
    coeffs, half = (1.0, -3.0, 20.0, 0.5), 0.125
    tf = make_from_generator(GeneratorSpec("polynomial", coeffs, half))
    p = Polynomial(coeffs)
    ys = _off_grid_points(half)
    # p(t - y) = sum_j t^j p^(j)(-y) / j!, so the integrand p(t) p(t - y) has
    # t-coefficients sum_{i+j=n} c_i p^(j)(-y) / j!, one column per y; the
    # antiderivative in t is read at both ends of the overlap (y - h, h)
    shifted = np.array([p.deriv(j)(-ys) / math.factorial(j) for j in range(len(coeffs))])
    integrand = np.zeros((2 * len(coeffs) - 1, ys.size))
    for i, c in enumerate(coeffs):
        integrand[i : i + len(coeffs)] += c * shifted
    antiderivative = np.vstack(
        [np.zeros(ys.size), integrand / np.arange(1, len(integrand) + 1)[:, None]]
    )
    exact = (np.polynomial.polynomial.polyval(half, antiderivative)
             - np.polynomial.polynomial.polyval(ys - half, antiderivative, tensor=False))
    assert np.max(np.abs(tf.phihat(ys) - exact)) <= 1e-13 * tf.phihat0


def test_cosine_phihat_matches_closed_form():
    coeffs, half = (1.0, -0.75, 0.5, 0.5), 0.125
    tf = make_from_generator(GeneratorSpec("cosine-series", coeffs, half))
    freq = np.arange(len(coeffs)) * math.pi / (2.0 * half)
    ys = _off_grid_points(half)

    def int_cos(alpha, beta, lo, hi):
        # int_lo^hi cos(alpha t + beta) dt, vectorized over beta and lo
        if alpha == 0.0:
            return (hi - lo) * np.cos(beta)
        return (np.sin(alpha * hi + beta) - np.sin(alpha * lo + beta)) / alpha

    # cos(a t) cos(b (t - y)) = [cos((a - b) t + b y) + cos((a + b) t - b y)] / 2
    exact = sum(
        ci * cj * 0.5
        * (int_cos(a - b, b * ys, ys - half, half) + int_cos(a + b, -b * ys, ys - half, half))
        for ci, a in zip(coeffs, freq)
        for cj, b in zip(coeffs, freq)
    )
    assert np.max(np.abs(tf.phihat(ys) - exact)) <= 1e-13 * tf.phihat0


def test_phihat_degrees():
    # polynomial generators: phihat is a polynomial of degree exactly 2d - 1;
    # the entire bases chop at modest degree
    for coeffs in ((1.0,), (1.0, -2.0), (1.0, -3.0, 20.0), (1.0, -3.0, 20.0, 0.5)):
        tf = make_from_generator(GeneratorSpec("polynomial", coeffs, 0.125))
        assert tf.phihat_degree == 2 * len(coeffs) - 1
    assert make_naive(0.25).phihat_degree == 1
    assert make_from_generator(GeneratorSpec("sin-of-square", (), 0.125)).phihat_degree <= 12
    cos4 = make_from_generator(GeneratorSpec("cosine-series", (1.0, -0.75, 0.5, 0.5), 0.125))
    assert cos4.phihat_degree <= 23


def test_basis_without_chebyshev_representation_is_refused():
    # 40 cosine terms need a degree far beyond the cap: refuse, never approximate
    with pytest.raises(ValueError, match="no Chebyshev representation"):
        make_from_generator(GeneratorSpec("cosine-series", (1.0,) + (0.0,) * 38 + (1.0,), 0.125))
    # sin(t^2) past h = 1, whose Taylor polynomial would cancel beyond
    # roundoff, is refused before any table is built
    before = _basis_tables.cache_info().misses
    with pytest.raises(ValueError, match="sin-of-square needs half_support <= 1, got 8.0"):
        from_spec_string("gen:sinx2:half=8")
    assert _basis_tables.cache_info().misses == before


def test_basis_autocorrelation_is_built_once_per_basis(rng):
    # half = 1/9 is used by no other test, so the first build is the only miss
    before = _basis_tables.cache_info()
    for _ in range(20):
        coeffs = (1.0, *rng.uniform(-0.5, 0.5, 3))
        make_from_generator(GeneratorSpec("cosine-series", coeffs, 1.0 / 9.0))
    after = _basis_tables.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 19
    table = _basis_tables("cosine-series", 4, 1.0 / 9.0)[2]
    assert np.shape(table)[1:] == (10,)  # the quadratic form's entries, k <= l
    assert np.shape(table)[0] <= 24
    # shared by every build, so immutable
    with pytest.raises(TypeError):
        table[0][0][0] = 1.0


def _reference_basis(kind: str, dim: int, half: float, t: np.ndarray) -> np.ndarray:
    """b_k(t) straight from each basis's definition, shape t.shape + (dim,)."""
    if kind == "sin-of-square":
        return np.sin(t * t)[..., None]
    if kind == "polynomial":
        return t[..., None] ** np.arange(dim)
    return np.cos(np.multiply.outer(t, np.arange(dim)) * (math.pi / (2.0 * half)))


def _quadratic_form(table: np.ndarray, dim: int) -> np.ndarray:
    """The entries T_kk and T_kl + T_lk, k < l, row-major, of (j, d, d) tables."""
    return np.stack([table[:, k, l] + table[:, l, k] if k < l else table[:, k, k]
                     for k in range(dim) for l in range(k, dim)], axis=1)


def _entry_scales(gram: np.ndarray, dim: int) -> np.ndarray:
    """Each quadratic-form entry's Cauchy-Schwarz scale sqrt(T_kk(0) T_ll(0)),
    doubled for T_kl + T_lk, from the entries of G."""
    norms = np.sqrt([gram[k * dim - k * (k - 1) // 2] for k in range(dim)])
    return np.array([(1 + (k < l)) * norms[k] * norms[l] for k in range(dim) for l in range(k, dim)])


def _series_gap(legendre_table: np.ndarray, chebyshev_table: np.ndarray) -> np.ndarray:
    """Per entry, the largest gap between a table's Legendre series and a
    Chebyshev one at 401 points of [-1, 1]."""
    x = np.linspace(-1.0, 1.0, 401)
    gap = legendre.legval(x, legendre_table) - chebyshev.chebval(x, chebyshev_table)
    return np.abs(gap).max(axis=-1)


def _reference_autocorrelation(kind: str, dim: int, half: float) -> np.ndarray:
    """The basis table's quadratic-form entries from a 128-node Gauss-Legendre
    sum at each of the 128 Chebyshev points, chopped and capped like the
    package's tables."""
    theta = math.pi * (np.arange(128) + 0.5) / 128
    y = half * (np.cos(theta) + 1.0)
    base, wts = map(np.asarray, legendre_rule(128))
    width = 2.0 * half - y
    t = (y - half)[:, None] + (base + 1.0) * 0.5 * width[:, None]
    left = (wts * 0.5 * width[:, None])[..., None] * _reference_basis(kind, dim, half, t)
    right = _reference_basis(kind, dim, half, t - y[:, None])
    values = np.swapaxes(left, 1, 2) @ right
    coef = np.cos(np.outer(np.arange(128), theta)) @ values.reshape(128, -1)
    coef *= 2.0 / 128
    coef[0] *= 0.5
    coef = _quadratic_form(coef.reshape(128, dim, dim), dim)
    above = np.abs(coef) > 1e-14 * _entry_scales(chebyshev.chebval(-1.0, coef), dim)
    degree = int(np.flatnonzero(above.any(axis=1)).max(initial=0))
    assert degree < 95
    return coef[: degree + 1]


REFERENCE_HALVES = (1.0 / 20.0, 1.0 / 9.0, 1.0 / 8.0, 1.0)


@pytest.mark.parametrize(
    "kind, dim",
    [("cosine-series", d) for d in range(1, 9)] + [("polynomial", d) for d in range(1, 6)]
    + [("sin-of-square", 1)],
)
def test_basis_autocorrelation_matches_reference(kind, dim):
    # closed forms and exact rules (sin(t^2) as its Taylor polynomial)
    # against the 128 x 128 quadrature grid of each basis's definition:
    # the same chopped degree, and every entry of the quadratic form, a
    # Legendre series in the package and a Chebyshev one in the reference,
    # within 5e-15 of its Cauchy-Schwarz scale sqrt(T_kk(0) T_ll(0)) (twice
    # that for T_kl + T_lk) at 401 points of [-1, 1]
    for half in REFERENCE_HALVES:
        ref = _reference_autocorrelation(kind, dim, half)
        got = np.asarray(_basis_tables.__wrapped__(kind, dim, half)[2])
        assert got.shape == ref.shape
        scale = _entry_scales(chebyshev.chebval(-1.0, ref), dim)
        assert np.all(_series_gap(got, ref) <= 5e-15 * scale)


CHOP_HALVES = (1 / 20, 1 / 10, 1 / 9, 1 / 8, 0.15, 1 / 6, 1 / 3, 0.4, 1 / 2, 1.0)


def _grid_size(kind: str, dim: int, half: float, degree: int) -> int:
    """The Chebyshev points a basis table of this chopped degree was sampled at:
    2D for a polynomial of D coefficients, else the first of 32, 64 and 128
    points with the degree below three quarters of them."""
    if kind == "polynomial":
        return 2 * dim
    if kind == "sin-of-square":
        return 2 * len(testfunc._sin_square_taylor(half))
    return next((n for n in (32, 64) if 4 * degree < 3 * n), 128)


@pytest.mark.parametrize(
    "kind, dim",
    [(kind, d) for kind in ("cosine-series", "polynomial") for d in range(1, 9)]
    + [("sin-of-square", 1)],
)
def test_chop_scale_from_the_alternating_sum_is_the_chebval_one(kind, dim):
    # T(0) read by Clenshaw at x = -1 of the sampled series and as the Gram
    # diagonal chop every table at the same degree, and the table is that
    # series, as a Legendre series, to rounding (numpy sums the DCT in its
    # own order)
    for half in CHOP_HALVES:
        got = np.asarray(_basis_tables.__wrapped__(kind, dim, half)[2])
        n = _grid_size(kind, dim, half, len(got) - 1)
        x, dct = map(np.asarray, chebyshev_points(n))
        values = np.array([_autocorrelation(kind, dim, half, half * (xj + 1.0)) for xj in x])
        coef = dct @ values
        scale = _entry_scales(chebyshev.chebval(-1.0, coef), dim)
        above = np.abs(coef) > 1e-14 * scale
        degree = int(np.flatnonzero(above.any(axis=1)).max(initial=0))
        assert got.shape == coef[: degree + 1].shape, half
        assert np.all(_series_gap(got, coef[: degree + 1]) <= 5e-15 * scale), half


def test_basis_autocorrelation_asks_only_for_exact_rules(monkeypatch):
    # a cosine table is a closed form, a polynomial one the d-node rule, and
    # sin(t^2) the rule of its Taylor polynomial's D coefficients (19 at h = 1/8)
    sizes = []

    def recording(n):
        sizes.append(n)
        return legendre_rule(n)

    monkeypatch.setattr(testfunc, "legendre_rule", recording)
    _basis_tables.__wrapped__("cosine-series", 4, 0.125)
    assert sizes == []
    for dim in (1, 3, 5):
        _basis_tables.__wrapped__("polynomial", dim, 0.05)
        assert set(sizes) == {dim}
        sizes.clear()
    _basis_tables.__wrapped__("sin-of-square", 1, 0.125)
    assert set(sizes) == {19}


def test_phihat_grid_independent_of_amplitude():
    # phihat is c^T T c: scaling g by a power of two scales every
    # coefficient, and so every value, by exactly its square
    ys = np.linspace(0.0, 0.25, 97)
    built = {
        c: make_from_generator(GeneratorSpec("polynomial", (c, -3.0 * c, 20.0 * c), 0.125))
        for c in (2.0**-40, 1.0, 2.0**40)
    }
    ref = built[1.0].phihat(ys)
    for c, tf in built.items():
        assert tf.phihat_degree == built[1.0].phihat_degree
        assert np.array_equal(tf.phihat(ys) / c**2, ref)


GENERATORS = [
    GeneratorSpec("polynomial", (1.0, -3.0, 20.0, 0.5), 0.125),
    GeneratorSpec("cosine-series", (1.0, -0.75, 0.5, 0.5), 0.125),
    GeneratorSpec("sin-of-square", (), 0.125),
]


def test_nonnegativity_on_dense_grid(gen_sinx2, naive_third):
    xs = np.linspace(-100.0, 100.0, 10_000)
    for tf in (naive_third, make_naive(2.0)):
        assert float(np.min(tf.phi(xs))) >= -1e-12
    # generator phi is |ghat|^2, so not even rounding makes it negative
    for tf in (gen_sinx2, *(make_from_generator(spec) for spec in GENERATORS)):
        assert float(np.min(tf.phi(xs))) >= 0.0


def test_support_exact_zero_outside(gen_sinx2, naive_third):
    for tf in (gen_sinx2, naive_third):
        s = tf.support_bound
        ys = np.array([s, s * 1.0001, 2 * s, 10.0])
        assert np.all(tf.phihat(ys) == 0.0)
        assert np.all(tf.phihat(-ys) == 0.0)


@pytest.mark.parametrize("spec", GENERATORS)
def test_phi_does_not_depend_on_call_history(spec):
    # ghat's series is built on the first phi; a point's value must not
    # depend on which call built it, nor on the batch around it
    xs = np.random.default_rng(5).uniform(-60.0, 60.0, 3000)
    first, second = make_from_generator(spec), make_from_generator(spec)
    one_first = (first.phi(800.0), first.phi(xs))
    batch_first = (second.phi(xs), second.phi(800.0))
    assert np.array_equal(one_first[0], batch_first[1])
    assert np.array_equal(one_first[1], batch_first[0])
    assert np.array_equal(first.phi(xs[::7]), batch_first[0][::7])
    # a batch of samples keeps its shape, as the naive phi does
    assert np.array_equal(first.phi(xs[:2000].reshape(40, 50)),
                          batch_first[0][:2000].reshape(40, 50))
    assert first.phi(xs[:1]).shape == (1,) and first.phi(xs[:0]).shape == (0,)


def test_phi_refuses_only_nonfinite_points():
    # any finite |x| is served, 2 pi |x| h of 1047 and 1e6 included
    tf = from_spec_string("gen:cos:1:half=1/6")
    values = tf.phi(np.array([0.0, -1000.0, 1e6]))
    assert values[0] == pytest.approx(tf.phi0, rel=1e-15)
    assert np.all(values[1:] >= 0.0) and np.all(values[1:] <= 1e-6 * tf.phi0)
    for x in (math.nan, np.array([1.0, math.nan]), math.inf, -math.inf):
        with pytest.raises(ValueError, match="needs finite x"):
            tf.phi(x)
    # sin(t^2) past h = 1 is refused at build, so phi has no check of its own
    with pytest.raises(ValueError, match="half_support <= 1"):
        from_spec_string("gen:sinx2:half=2")
    assert float(from_spec_string("gen:sinx2:half=1").phi(1.0)) > 0.0


def test_fourier_inversion_consistency(gen_sinx2):
    # invert the transform and compare with the direct |transform of g|^2
    # evaluation; the cosine factor needs about 40 degrees more than phihat
    nodes, weights = map(np.asarray, legendre_rule((gen_sinx2.phihat_degree + 40) // 2 + 1))
    half = 0.5 * gen_sinx2.support_bound
    y = half * (nodes + 1.0)
    for x in (0.0, 0.35, 1.2, 3.7):
        inverted = 2.0 * half * (weights @ (gen_sinx2.phihat(y) * np.cos(2.0 * math.pi * x * y)))
        assert abs(inverted - float(gen_sinx2.phi(x))) <= 1e-12 * gen_sinx2.phi0


# ---- sigma2 ----


@pytest.mark.parametrize("v", [1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5, 1.0])
def test_sigma2_naive_scale_invariance(v):
    tf = make_naive(v)
    assert exact_naive_sigma2(tf.v, tf.v) == Fraction(1, 3)
    assert _rel_error(sigma2(tf, tf), Fraction(1, 3)) <= 2e-15


def test_triangle_sigma2_and_pair_term_stay_within_their_ulps():
    # sigma2 of a triangle with itself is 1/3 for every v, and the pair term
    # of the unit triangle is 1/2: within 10/3 and 3 units of 2^-54 (the
    # spacing of the doubles in [1/4, 1/2)), the worst cases of the
    # Gauss-Legendre sums that the closed forms replaced
    unit = Fraction(1, 2**54)
    tfs = [from_spec_string(f"naive:v=1/{q}") for q in range(2, 200)]
    worst = max(abs(Fraction(sigma2(tf, tf)) - Fraction(1, 3)) for tf in tfs)
    assert worst <= Fraction(10, 3) * unit
    one = from_spec_string("naive:v=1")
    assert abs(Fraction(pair_term(one, one)) - Fraction(1, 2)) <= 3 * unit


def test_sigma2_cross_naive_closed_form():
    pairs = [(0.25, 1.0 / 3.0), (1.0 / 6.0, 0.5), (0.2, 0.2)]
    for v1, v2 in pairs:
        a, b = make_naive(v1), make_naive(v2)
        assert _rel_error(sigma2(a, b), exact_naive_sigma2(a.v, b.v)) <= 2e-15
    assert exact_naive_sigma2(Fraction(1, 4), Fraction(1, 3)) == Fraction(5, 16)


def test_sigma2_widely_different_supports():
    # the integrand lives on [0, 1/11]: the rule is taken there, not on the
    # wide triangle's support
    narrow, wide = from_spec_string("naive:v=1/11"), from_spec_string("naive:v=1")
    exact = exact_naive_sigma2(narrow.v, wide.v)
    assert _rel_error(sigma2(narrow, wide), exact) <= 2e-15
    assert _rel_error(sigma2(wide, narrow), exact) <= 2e-15


def test_sigma2_scale_invariant():
    # sigma2 is quartic in the generator amplitude; no absolute floor may
    # refuse or distort a small generator
    def scaled(c):
        tf = make_from_generator(GeneratorSpec("cosine-series", (c, -0.75 * c, 0.5 * c), 0.125))
        return sigma2(tf, tf) / c**4

    ref = scaled(1.0)
    for c in (1e-13, 1e-3, 1e3):
        assert scaled(c) == pytest.approx(ref, rel=1e-12, abs=0)


def test_sigma2_symmetric(gen_sinx2, naive_quarter):
    assert sigma2(gen_sinx2, naive_quarter) == pytest.approx(
        sigma2(naive_quarter, gen_sinx2), rel=1e-12
    )


# Mixed supports and phihat degrees (1 for the triangles, 3 and 7 for the
# polynomials, the chopped degrees of the entire bases), and the cosine
# slot the README's optimize command finds against naive:v=1/4.
SIGMA2_SPECS = [
    "naive:v=1/11",
    "naive:v=1/4",
    "naive:v=1",
    "gen:sinx2:half=1/8",
    "gen:cos:1,-0.75,0.5,0.5:half=1/8",
    "gen:cos:1,0.3:half=0.15",
    "gen:cos:1:half=1/6",
    "gen:poly:1,-3,20,0.5:half=1/8",
    "gen:poly:1,-2:half=1/3",
    "gen:cos:0.57580482646212,-0.9996651907165639,0.5441224236748538,"
    "-0.19813434406707434:half=1/8",
]


def _reference_sigma2(a, b) -> float:
    """sigma2 as one Gauss-Legendre sum of y phihat_a(y) phihat_b(y) on the
    common support, with phihat evaluated by each function."""
    nodes, weights = map(np.asarray, legendre_rule((1 + a.phihat_degree + b.phihat_degree) // 2 + 1))
    half = 0.5 * min(a.support_bound, b.support_bound)
    y = half * (nodes + 1.0)
    return 4.0 * half * float(weights @ (y * a.phihat(y) * b.phihat(y)))


def test_sigma2_matches_direct_rule():
    tfs = [from_spec_string(spec) for spec in SIGMA2_SPECS]
    for a, b in itertools.product(tfs, repeat=2):
        assert sigma2(a, b) == pytest.approx(_reference_sigma2(a, b), rel=1e-13, abs=0)


def test_sigma2_rule_is_built_once_per_support_pair(monkeypatch):
    # the README problem with the fixed slot narrowed to naive:v=1/5: a
    # 4-term cosine slot of support 1/4 and a triangle of support 1/5, so
    # three pairs of (support, degree), one of them of distinct supports
    problem = OptimizationProblem(
        family=SymmetryGroup.SO_EVEN,
        rank=100,
        bases=(
            GeneratorBasis("cosine-series", dimension=4, half_support=0.125),
            make_naive(0.2),
        ),
        support_budget=0.25,
        regime="mock_gaussian",
    )
    pairs = []

    def recording(a, b):
        pairs.append(frozenset({(a.support_bound, a.phihat_degree),
                                (b.support_bound, b.phihat_degree)}))
        return sigma2(a, b)

    monkeypatch.setattr(moments, "sigma2", recording)
    _sigma2_rule.cache_clear()
    rng = np.random.default_rng(17)
    for _ in range(20):
        objective(problem.split_params(rng.uniform(-1.0, 1.0, 4)), problem)
    info = _sigma2_rule.cache_info()
    computed = testfunc._pair_integral.cache_info()
    assert len(pairs) > 40 and len(set(pairs)) == 3  # feasible points make three calls
    # every sigma2 reads the pair memo.  It computes each cosine function
    # with itself and with the triangle, and the triangle with itself once;
    # a pair on one support is a closed form, and each cosine-triangle pair
    # reads the rule of their supports and degrees, built once
    assert computed.hits + computed.misses == len(pairs)
    assert computed.misses > 20 and computed.misses % 2 == 1
    assert (info.misses, info.hits) == (1, (computed.misses - 1) // 2 - 1)
    cos = problem.bases[0].build((1.0, -0.75, 0.5, 0.5))
    for array in _sigma2_rule(0.25, 0.2, cos.phihat_degree, 1):
        assert isinstance(array, tuple)
        with pytest.raises(TypeError):
            array[0] = 1.0


def test_sigma2_rules_of_a_distinct_14_moment_stay_cached():
    # the 2m = 14 moment of 14 distinct functions (7 triangles, 7 generators
    # on half-support 1/20), evaluated twice from its spec strings as two
    # commands in one process do: the first computes each of its 91 sigma2
    # values once, and the second computes none and builds no rule
    specs = [f"naive:v=1/{q}" for q in range(10, 17)] + [
        "gen:cos:1:half=1/20",
        "gen:cos:1,0.3:half=1/20",
        "gen:poly:1,-2:half=1/20",
        "gen:cos:1,-0.2,0.1:half=1/20",
        "gen:poly:1,0,-50:half=1/20",
        "gen:cos:1,0.5:half=1/20",
        "gen:poly:2,3:half=1/20",
    ]
    _sigma2_rule.cache_clear()
    values, misses, computed = [], [], []
    for _ in range(2):
        tfs = [from_spec_string(spec) for spec in specs]
        before = _sigma2_rule.cache_info().misses, testfunc._pair_integral.cache_info().misses
        values.append(moments.centered_moment(
            moments.MomentRequest(tfs, SymmetryGroup.SO_ODD, regime="mock_gaussian")).value)
        misses.append(_sigma2_rule.cache_info().misses - before[0])
        computed.append(testfunc._pair_integral.cache_info().misses - before[1])
    assert misses[0] > 32 and misses[1] == 0
    assert computed == [91, 0]
    assert values[0] == values[1]


# ---- min_rank ----


def test_min_rank_examples(naive_third, gen_sinx2):
    assert min_rank(naive_third) == 4  # ratio 3.5
    assert min_rank(make_naive(0.25)) == 5  # ratio 4.5
    assert min_rank(gen_sinx2) == 8  # ratio 7.69993


def test_min_rank_integer_boundary():
    # ratio exactly 4.0 (v = 2/7): the smallest integer strictly above is 5
    tf = make_naive(2.0 / 7.0)
    assert tf.phihat0 / tf.phi0 + 0.5 == pytest.approx(4.0, abs=1e-12)
    assert min_rank(tf) == 5


# ---- spec strings ----


def test_parse_naive_spec():
    tf = from_spec_string("naive:v=1/3")
    assert isinstance(tf, NaiveTestFunction)
    assert tf.v == pytest.approx(1.0 / 3.0)
    assert from_spec_string("naive:v=0.25").v == 0.25


def test_parse_generator_specs():
    tf = from_spec_string("gen:sinx2:half=1/8")
    assert tf.support_bound == pytest.approx(0.25)
    tf = from_spec_string("gen:poly:1:half=1/2")
    assert tf.support_bound == pytest.approx(1.0)
    tf = from_spec_string("gen:cos:0.3,-0.2,0.1:half=1/8")
    assert tf.support_bound == pytest.approx(0.25)


def test_parse_rejects_bad_specs():
    for bad in ("naive:v=0", "naive:v=-1", "naive", "gen:sinx2", "gen:poly::half=1/2",
                "wavelet:v=1", "naive:v=1/0", "", "gen:tab:1,2,3,4:half=1/8"):
        with pytest.raises(ValueError):
            from_spec_string(bad)


def test_spec_round_trip(gen_sinx2, naive_third):
    for tf in (naive_third, gen_sinx2):
        clone = from_spec_string(tf.spec_string)
        assert clone.spec_string == tf.spec_string
        assert clone.phi0 == pytest.approx(tf.phi0, rel=1e-12)


def test_parse_rational():
    assert parse_rational("1/3") == pytest.approx(1.0 / 3.0)
    assert parse_rational("0.125") == 0.125
    assert parse_rational(" 7/8 ") == 0.875


@pytest.mark.parametrize(
    "text, reason",
    [("1/0", "zero denominator"), ("0/0", "zero denominator"), ("1e400", "past the double range"),
     ("1/3x", "Invalid literal")],
)
def test_parse_rational_refuses_every_malformed_rational(text, reason):
    with pytest.raises(ValueError, match=reason):
        parse_rational(text)
    with pytest.raises(ValueError, match=reason):
        from_spec_string(f"gen:cos:1:half={text}")


@pytest.mark.parametrize(
    "spec",
    ["naive:v=1/3", "naive:v=0.1", "gen:cos:1,0.3,-0.2:half=1/20", "gen:poly:1,0,-50:half=1/20",
     "gen:sinx2:half=1/8"],
)
def test_a_test_function_is_its_spec(spec):
    # equal specs are equal functions however they were built, and hash
    # alike; a spec string is built once per process and shared
    tf = from_spec_string(spec)
    assert from_spec_string(spec) is tf
    clone = from_spec_string.__wrapped__(tf.spec_string)  # built afresh
    assert clone is not tf
    assert clone == tf and hash(clone) == hash(tf)
    assert len({tf, clone}) == 1
    other = from_spec_string("naive:v=1/4")
    assert tf != other and tf != tf.spec_string


def test_equal_specs_from_every_constructor():
    assert make_naive(0.25) == from_spec_string("naive:v=1/4") == make_naive(0.25)
    spec = GeneratorSpec("cosine-series", (1.0, 0.3), 0.125)
    assert make_from_generator(spec) == from_spec_string("gen:cos:1,0.3:half=1/8")
    assert make_from_generator(GeneratorSpec("sin-of-square", (), 0.125)) == from_spec_string(
        "gen:sinx2:half=0.125"
    )
    # the same phihat under another spec is another function
    assert make_from_generator(GeneratorSpec("polynomial", (1.0,), 0.5)) != make_naive(1.0)
