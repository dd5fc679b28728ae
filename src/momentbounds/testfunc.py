"""Admissible test functions and their scalar functionals.

A test function here is a Fourier pair ``(phi, phihat)`` with ``phi``
even and non-negative and ``phihat`` compactly supported.  Two
constructions are provided:

* the Fejer-type family ``phi(x) = (sin(pi v x)/(pi v x))^2`` whose
  transform is the triangle ``(1/v)(1 - |y|/v)`` on ``(-v, v)``, and
* generator-backed functions: for a real compactly supported ``g``,
  ``phihat = g`` correlated with itself, so that ``phi`` is the squared
  modulus of the inverse transform of ``g`` -- automatically even and
  non-negative, with ``phihat`` supported on twice the support of ``g``.
  A generator is a weighted sum ``g = sum_k c_k b_k`` of basis functions,
  so ``phihat(y) = c^T T(y) c`` with ``T(y)_kl = int b_k(t) b_l(t - y) dt``
  the basis autocorrelation.  sin(t^2) (half-support <= 1) is its Taylor
  polynomial, exact to roundoff while its largest term h^2 stays <= 1
  (:func:`_sin_square_taylor`), so each entry of ``T`` is a polynomial
  in y (polynomial and sin(t^2) bases) or an entire function that a
  Chebyshev series represents to roundoff at modest degree (cosine
  bases), and ``T`` is stored once per basis (kind, dimension, support)
  as a chopped table of Legendre coefficients on [0, 2h] and cached
  (:func:`_basis_tables`).  The table is interpolated from exact values
  of ``T`` at first-kind Chebyshev points, just enough for a polynomial
  and doubling from 32 for a cosine basis: a product-to-sum closed form
  for cosine bases, else the Gauss-Legendre rule of as many nodes as the
  polynomial has coefficients, exact for the integrand.  Each function's
  phihat is then the exact polynomial piece whose Legendre coefficients
  are ``c^T T_j c``.  The
  basis integrals ``m_k = int b_k`` (closed forms) and the Gram matrix
  ``G = T(0)`` are built and cached with ``T``, so a build sets
  ``phi(0) = (c.m)^2`` and ``phihat(0) = c^T G c`` and evaluates no basis
  function.  Only phi away from 0 needs more: it is |ghat|^2, and ghat
  has a closed form.  A cosine series gives, by product-to-sum as for T,
  the numpy sum ghat(x) = h sum_k c_k [sinc(u - k/2) + sinc(u + k/2)],
  u = 2|x|h.  For polynomial and sin(t^2) generators, with the polynomial
  g(hs) = sum_n l_n P_n(s) on (-1, 1), the Fourier transform of P_n
  (DLMF 18.17(v)) gives ghat(x) = 2h sum_n l_n i^n j_n(2 pi x h).
  Only their phi builds l and imports scipy.special.  phi is within
  1e-15 of 2h phihat(0) = 2h int g^2 (the Cauchy-Schwarz bound on
  |ghat|^2) of 40-digit arithmetic, and of phi(0) unless int g nearly
  cancels.  :mod:`rmt` calls phi away from 0 only with 2h < 1.

Support intervals are treated as open: the transforms vanish at their
support endpoints, so a function with ``support_bound == t`` satisfies a
"support strictly inside ``(-t, t)``" hypothesis.

The scalar functionals live at module level: :func:`sigma2` (the
pairwise variance ``2 int |y| phihat_a phihat_b dy``), :func:`pair_term`
(the two-level ``int (1 - |t|)_+ phihat_a phihat_b dt``) and
:func:`min_rank` (the smallest vanishing order the moment inequality
can see for a given function).  On a common support, sigma2 and the
pair term are closed forms in the two Legendre series (orthogonality);
on two supports they are exact Gauss-Legendre sums on one rule whose
nodes, weights and Legendre basis values depend only on the supports and
phihat degrees, so the rule is cached once per such pair.  A test
function is its spec, so each value is computed once per spec-ordered
pair of functions and kept for the process, and :func:`from_spec_string`
builds each spec string once.

Everything here but phi and phihat on arrays runs on Python floats, so
building a test function and its sigma2 loads no numpy: phi, phihat and
the ghat series import it where they are called.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter, mul, sub

from .quadrature import chebyshev_points, legendre_rule

# Each generator kind and its name in the spec-string and basis grammars.
GENERATOR_NAMES = {"sin-of-square": "sinx2", "polynomial": "poly", "cosine-series": "cos"}
GENERATOR_KINDS = tuple(GENERATOR_NAMES)

# Basis autocorrelation tables: the most Chebyshev sample points on
# [0, 2h] a cosine basis doubles up to, and the chop level relative to
# each entry's Cauchy-Schwarz scale sqrt(T_kk(0) T_ll(0)).  A series that
# is not below the chop level from _MAX_PHIHAT_DEGREE on is refused.
_CHEB_POINTS = 128
_MAX_PHIHAT_DEGREE = 95
_CHOP_TOL = 1e-14


def parse_rational(text: str) -> float:
    """Parse 'p/q' or a decimal literal into a float; ValueError for anything
    else, a zero denominator and a value past the double range included."""
    try:
        return float(Fraction(text.strip()))
    except ZeroDivisionError:
        raise ValueError(f"rational {text.strip()!r} has a zero denominator") from None
    except OverflowError:
        raise ValueError(f"rational {text.strip()!r} is past the double range") from None


@dataclass(frozen=True)
class GeneratorSpec:
    """A real generator ``g`` supported on ``(-half_support, half_support)``.

    Kinds:

    * ``sin-of-square``: g(t) = sin(t^2); no coefficients, half_support <= 1.
    * ``polynomial``: g(t) = sum_i c_i t^i.
    * ``cosine-series``: g(t) = sum_i c_i cos(i pi t / (2 half_support)).

    Generators must be real but are not required to be even or
    non-negative: reality alone already makes the resulting test function
    even and non-negative.
    """

    kind: str
    coefficients: tuple[float, ...] = ()
    half_support: float = 0.0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not self.half_support > 0:
            raise ValueError("half_support must be positive")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if self.kind == "sin-of-square":
            if self.coefficients:
                raise ValueError("sin-of-square takes no coefficients")
            if self.half_support > 1.0:
                raise ValueError(
                    f"sin-of-square needs half_support <= 1, got {self.half_support!r}: past it "
                    "the Taylor terms of sin(t^2) exceed 1 and cancel beyond roundoff"
                )
        elif not self.coefficients:
            raise ValueError(f"{self.kind} generator needs coefficients")
        if self.coefficients and not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("coefficients must be finite")

    @property
    def dimension(self) -> int:
        """Number of basis functions d (1 for sin-of-square)."""
        return len(self.coefficients) or 1

    @property
    def weights(self) -> tuple[float, ...]:
        """Basis weights c with g = sum_k c_k b_k (the single weight 1 for sin-of-square)."""
        return self.coefficients or (1.0,)


@lru_cache(maxsize=16)
def _sin_square_taylor(h: float) -> tuple[float, ...]:
    """Power coefficients p_k in s = t/h of sin(t^2)'s Taylor polynomial on |t| < h:
    sin(h^2 s^2) = sum_j (-1)^j (h s)^(4j + 2) / (2j + 1)!, cut after the
    first term within 1e-17 of h^2, so the first omitted term, which bounds
    the alternating tail, is below 1e-18 h^2 (h <= 1).  Cached."""
    terms = [h * h]
    while terms[-1] > 1e-17 * terms[0]:
        j = len(terms)
        terms.append(terms[-1] * h**4 / (2 * j * (2 * j + 1)))
    power = [0.0] * (4 * len(terms) - 1)
    power[2::4] = [-term if j % 2 else term for j, term in enumerate(terms)]
    return tuple(power)


def _horner(z: float, coefficients: tuple[float, ...]) -> float:
    """sum_k coefficients[k] z^k by Horner's rule."""
    value = 0.0
    for c in reversed(coefficients):
        value = value * z + c
    return value


def _sinc(z: float) -> float:
    """sin(pi z) / (pi z), and 1 at z = 0."""
    if z == 0.0:
        return 1.0
    z *= math.pi
    return math.sin(z) / z


def _autocorrelation(kind: str, dim: int, h: float, y: float) -> list[float]:
    """The quadratic form of T(y)_kl = int b_k(t) b_l(t - y) dt at one point y
    of [0, 2h]: for k <= l in row-major order, T_kk and T_kl + T_lk, so
    that c^T T(y) c is their sum weighted by c_k c_l.

    Cosine bases b_k(t) = cos(k a t), a = pi / (2h), by product-to-sum on
    the overlap (y - h, h) of midpoint y/2 and half-width u = h - y/2:
    T_kl = u [cos(a(k - l)y/2) sinc(a(k + l)u/pi) + cos(a(k + l)y/2) sinc(a(k - l)u/pi)],
    from one cosine and one sinc per k + l and |k - l|; it is symmetric.
    Polynomial bases (the powers t^k), and sin(t^2) as its Taylor
    polynomial, by the Gauss-Legendre rule on the overlap of as many
    nodes, d, as the polynomial has coefficients: exact for the
    integrand's degree 2d - 2.  There t -> y - t gives T_lk = (-1)^(k+l) T_kl,
    so T_kl + T_lk is 2 T_kl for even k + l and 0 for odd.
    """
    if kind == "cosine-series":
        u = h - 0.5 * y
        phase = y * (math.pi / (4.0 * h))  # a y / 2
        ratio = u / (2.0 * h)  # a u / pi
        cos = [math.cos(phase * j) for j in range(2 * dim - 1)]
        sinc = [_sinc(j * ratio) for j in range(2 * dim - 1)]
        return [(1.0 if k == l else 2.0) * u * (cos[l - k] * sinc[k + l] + cos[k + l] * sinc[l - k])
                for k in range(dim) for l in range(k, dim)]
    nodes, weights = legendre_rule(dim if kind == "polynomial" else len(_sin_square_taylor(h)))
    width = 2.0 * h - y
    # the rule is symmetric, so t_i - y = -t_(n-1-i): each basis function is
    # read at the nodes once, and b_l(-t) = (-1)^l b_l(t) (sin(t^2) is even)
    ts = [(y - h) + (node + 1.0) * 0.5 * width for node in nodes]
    if kind == "polynomial":
        values = [[t**k for k in range(dim)] for t in ts]
    else:
        terms = _sin_square_taylor(h)[2::4]  # of s^2 (s^4)^j
        values = [[u * _horner(u * u, terms)] for u in [(t / h) * (t / h) for t in ts]]
    scaled = [weight * 0.5 * width for weight in weights]
    mirrored = list(zip(scaled, values, reversed(values)))
    return [(1.0 if k == l else 2.0) * (-1.0) ** l
            * sum(w * left[k] * right[l] for w, left, right in mirrored)
            if (k + l) % 2 == 0 else 0.0
            for k in range(dim) for l in range(k, dim)]


@lru_cache(maxsize=16)
def _basis_tables(kind: str, dim: int, half_support: float) -> tuple[tuple, tuple, tuple]:
    """One basis's ``(m, G, T)``, built once and shared read-only.

    m_k = int b_k is in closed form: 2h sinc(k/2) for cosine bases (exactly
    0 for even k > 0), 2h^(k+1)/(k+1) for polynomial ones (0 for odd k),
    and 2h sum_k p_k/(k+1) over even k for sin(t^2), from its Taylor
    polynomial in s = t/h (:func:`_sin_square_taylor`).  The Gram matrix
    G = T(0) and T(y)_kl = int b_k(t) b_l(t - y) dt come from
    :func:`_autocorrelation` (a closed form for cosine bases, else the
    Gauss-Legendre rule of the integrand's degree), sampled at the
    first-kind Chebyshev points of [0, 2h] and taken by the DCT of
    :func:`.quadrature.chebyshev_points` to Chebyshev coefficients on
    [0, 2h], chopped where every entry's tail falls below roundoff.  The
    grid: for polynomial and sin(t^2) bases T is a polynomial of degree
    2D - 1, D the basis polynomials' coefficient count, so its 2D points
    interpolate it exactly.  A cosine basis's T is entire, so its grid
    doubles from 32 points, up to 128, until the chopped degree is below
    three quarters of the points: the top quarter of the sampled series
    then lies below the chop, and what aliases onto a kept coefficient
    (the series from 2n - degree on, n points) lies far below roundoff,
    as the coefficients fall faster than geometrically past the chop.  The
    kept series are then rewritten as Legendre series of the same degree
    (:func:`_legendre_series`), the form sigma2 integrates in closed form.
    G and each T_j hold the d(d + 1)/2 entries of their quadratic forms
    (:func:`_autocorrelation`), each T_kl + T_lk chopped at twice the
    scale of T_kl, and T has degree + 1 rows.  A generator with weights c
    has phi(0) = (c.m)^2, phihat(0) = c^T G c and phihat coefficients
    c^T T_j c, each the entries weighted by c_k c_l.  Raises ValueError
    when the series does not chop below the degree cap, rather than
    represent phihat approximately.
    """
    h = half_support
    if kind == "cosine-series":
        m = (2.0 * h,) + tuple(4.0 * h / math.pi * (-1.0) ** (k // 2) / k if k % 2 else 0.0
                               for k in range(1, dim))
        sizes = (_CHEB_POINTS // 4, _CHEB_POINTS // 2, _CHEB_POINTS)
    elif kind == "polynomial":
        m = tuple(0.0 if k % 2 else 2.0 * h ** (k + 1) / (k + 1) for k in range(dim))
        sizes = (2 * dim,)
    else:  # sin-of-square: h int_{-1}^{1} sum_k p_k s^k ds
        power = _sin_square_taylor(h)
        m = (2.0 * h * sum(p / (k + 1) for k, p in enumerate(power) if k % 2 == 0),)
        sizes = (2 * len(power),)
    gram = tuple(_autocorrelation(kind, dim, h, 0.0))
    norms = [math.sqrt(gram[k * dim - k * (k - 1) // 2]) for k in range(dim)]
    chop = [(1.0 if k == l else 2.0) * _CHOP_TOL * (norms[k] * norms[l])
            for k in range(dim) for l in range(k, dim)]
    for n in sizes:
        x, dct = chebyshev_points(n)
        samples = [_autocorrelation(kind, dim, h, h * (xj + 1.0)) for xj in x]
        entries = list(zip(*samples))
        coef = [[sum(map(mul, dct_row, entry)) for entry in entries] for dct_row in dct]
        degree = max((j for j, c in enumerate(coef) if any(map(float.__gt__, map(abs, c), chop))),
                     default=0)
        if 4 * degree < 3 * n:
            break
    if degree >= _MAX_PHIHAT_DEGREE:
        raise ValueError(
            f"the {kind} basis of dimension {dim} on half-support {h!r} has no "
            f"Chebyshev representation below degree {_MAX_PHIHAT_DEGREE}"
        )
    entries = _legendre_series(list(zip(*coef[: degree + 1])))  # one series per entry
    return m, gram, tuple(zip(*entries))


class TestFunction:
    """Base class: an admissible pair (phi, phihat).

    A transform is described once, by ``phihat_coef``: the Legendre
    coefficients of phihat on ``[0, support_bound]`` as one polynomial
    piece, whose degree sizes every integral of it.  ``phihat`` reads that
    piece (even, zero from the support bound on).  Each constructor sets
    the piece, the support bound, ``phi0 = phi(0)``, ``phihat0 =
    phihat(0)`` and a round-trippable spec string; subclasses provide a
    vectorized ``phi``.  A spec string is an exact round trip (floats
    print by ``repr``), so a test function is its spec: two are equal,
    and hash alike, when their specs are, however they were built.
    """

    support_bound: float
    phihat_coef: tuple[float, ...]
    phi0: float
    phihat0: float
    spec_string: str

    @property
    def phihat_degree(self) -> int:
        return len(self.phihat_coef) - 1

    def phi(self, x):
        raise NotImplementedError

    def phihat(self, y):
        import numpy as np
        from numpy.polynomial import legendre

        y = np.abs(np.asarray(y, dtype=float))
        inside = y < self.support_bound
        x = np.where(inside, y, 0.0) * (2.0 / self.support_bound) - 1.0
        return np.where(inside, legendre.legval(x, self.phihat_coef), 0.0)

    def __eq__(self, other):
        return isinstance(other, TestFunction) and self.spec_string == other.spec_string

    def __hash__(self):
        return hash(self.spec_string)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string!r})"


class NaiveTestFunction(TestFunction):
    """The Fejer pair: phi = (sin(pi v x)/(pi v x))^2, phihat the triangle on (-v, v);
    a v whose 1/v = phihat(0) leaves the normal double range is refused."""

    def __init__(self, v: float):
        v = float(v)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"naive test function needs v > 0, got {v!r}")
        if not sys.float_info.min <= 1.0 / v <= sys.float_info.max:
            raise ValueError(f"naive test function needs 1/v in the normal double range, got {v!r}")
        self.v = v
        self.support_bound = self.v
        self.phihat_coef = (0.5 / self.v, -0.5 / self.v)  # (1 - x) / (2v), x = 2y/v - 1
        self.phi0 = 1.0
        self.phihat0 = 1.0 / self.v
        self.spec_string = f"naive:v={self.v!r}"

    def phi(self, x):
        import numpy as np

        return np.sinc(self.v * np.asarray(x, dtype=float)) ** 2


class GeneratorBackedTestFunction(TestFunction):
    """phi = |inverse transform of g|^2, phihat = autocorrelation of g.

    Construction reads one cached per-basis build and the generator's
    weights ``c``: ``phihat_coef`` is the Legendre series on
    [0, 2*half_support] with coefficients ``c^T T_j c``, from the basis
    autocorrelation table ``T``; ``phi0 = (c.m)^2`` and
    ``phihat0 = c^T G c``, from the basis integrals ``m`` and Gram matrix
    ``G = T(0)`` (:func:`_basis_tables`), each the table's quadratic-form
    entries against the products c_k c_l, on Python floats.  A generator
    whose integral is below 1e-12 of sqrt(2h c^T G c), a bound on
    int |g|, is refused, as is one whose phi(0), int g^2, a coefficient
    or a product c_k c_l leaves the normal double range (named as an
    overflow or an underflow; an overflow is an inf or nan found by an
    explicit check, never a floating-point warning).

    phi is |ghat|^2 with ghat(x) = int g(t) e^{2 pi i x t} dt.  For a
    cosine series ghat is real, h sum_k c_k [sinc(u - k/2) + sinc(u + k/2)]
    with u = 2|x|h.  Otherwise ghat = 2h sum_n l_n i^n j_n(2 pi |x| h) up to
    conjugation, so Re ghat is the sum over even orders and Im ghat the
    sum over odd ones (:attr:`_ghat_series`).  A point's value is a fixed
    sum at that point, at any |x|; NaN and infinite x are refused.
    """

    def __init__(self, generator: GeneratorSpec):
        self.generator = generator
        h = generator.half_support
        c = generator.weights
        self.support_bound = 2.0 * h
        m, gram, table = _basis_tables(generator.kind, generator.dimension, h)
        int_g = sum(map(mul, c, m))
        cc = [ck * cl for k, ck in enumerate(c) for cl in c[k:]]
        int_g2 = sum(map(mul, gram, cc))
        self.phihat_coef = tuple([sum(map(mul, t, cc)) for t in table])
        if not all(map(math.isfinite, (int_g * int_g, int_g2, *self.phihat_coef))):
            raise ValueError(
                "generator overflows: phi(0) or int g^2 exceeds the double range; "
                "scale its coefficients towards 1, which leaves every bound unchanged"
            )
        self.phi0 = int_g * int_g
        if int_g2 <= 0.0 and not any(c):
            raise ValueError("generator is identically zero")
        # sqrt(2h int g^2) >= int |g| by Cauchy-Schwarz
        if abs(int_g) <= 1e-12 * math.sqrt(2.0 * h * max(int_g2, 0.0)):
            raise ValueError(
                "generator integrates to zero: phi(0) vanishes and every "
                "bound denominator would vanish with it"
            )
        if min(self.phi0, int_g2) < sys.float_info.min:
            raise ValueError(
                "generator underflows: phi(0) or int g^2 is below the normal double range; "
                "scale its coefficients towards 1, which leaves every bound unchanged"
            )
        self.phihat0 = int_g2
        self.spec_string = _generator_spec_string(generator)

    @cached_property
    def _ghat_series(self) -> tuple[list, list]:
        """ghat's coefficients on j_n(2 pi |x| h), split by parity: ``(even, odd)``.

        Each part lists (order n, coefficient) pairs, zeros left out.  Built
        on the first phi of a polynomial or sin(t^2) generator from the
        Legendre series g(hs) = sum_n l_n P_n(s) of its power series in s
        (sin(t^2)'s is :func:`_sin_square_taylor`): a coefficient is 2h l_n
        times (-1)^(n // 2), the real factor of i^n, chopped where its tail
        falls below 1e-17 of sum |l|.
        """
        import numpy as np
        from numpy.polynomial import legendre

        gen = self.generator
        h = gen.half_support
        if gen.kind == "polynomial":
            power = np.array(gen.weights) * h ** np.arange(gen.dimension)
        else:
            power = _sin_square_taylor(h)
        ell = legendre.poly2leg(power)
        last = int(np.flatnonzero(np.abs(ell) > 1e-17 * np.abs(ell).sum()).max())
        coef = 2.0 * h * ell[: last + 1] * (-1.0) ** (np.arange(last + 1) // 2)
        return tuple([(n, a) for n, a in enumerate(coef) if a and n % 2 == odd] for odd in (0, 1))

    def phi(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError(f"phi of {self.spec_string} needs finite x")
        h = self.generator.half_support
        if self.generator.kind == "cosine-series":
            u = np.abs(x) * (2.0 * h)
            c = self.generator.coefficients
            ghat = 2.0 * c[0] * np.sinc(u)
            for k in range(1, len(c)):
                ghat += c[k] * (np.sinc(u - 0.5 * k) + np.sinc(u + 0.5 * k))
            return (h * ghat) ** 2
        from scipy.special import spherical_jn

        z = np.abs(x) * (2.0 * math.pi * h)
        re, im = (sum(a * spherical_jn(n, z) for n, a in part) for part in self._ghat_series)
        return re**2 + im**2


def _generator_spec_string(g: GeneratorSpec) -> str:
    coeffs = ",".join(repr(c) for c in g.coefficients)  # empty for sin-of-square
    return ":".join(filter(None, ("gen", GENERATOR_NAMES[g.kind], coeffs, f"half={g.half_support!r}")))


def make_naive(v: float) -> NaiveTestFunction:
    """Fejer-type test function with transform support (-v, v)."""
    return NaiveTestFunction(v)


def make_from_generator(g: GeneratorSpec) -> GeneratorBackedTestFunction:
    """Test function with phihat the self-correlation of the generator g."""
    return GeneratorBackedTestFunction(g)


@lru_cache(maxsize=256)
def from_spec_string(spec: str) -> TestFunction:
    """Build a test function from its CLI spec string.

    Grammar::

        naive:v=<rational>
        gen:sinx2:half=<rational>
        gen:cos:<c0,c1,...>:half=<rational>
        gen:poly:<c0,c1,...>:half=<rational>

    Rationals may be written ``p/q`` or as decimals.  Text the grammar
    does not match is a ValueError that cannot parse it and names the
    grammar; a well-formed spec whose constructor refuses it is a
    ValueError that names the spec and the constructor's reason.  Each
    spec string is built once per process and its one test function
    shared by every caller; a refusal is not kept, so it is raised again
    on every call.
    """
    parts = spec.strip().split(":")
    try:
        if parts[0] == "naive" and len(parts) == 2 and parts[1].startswith("v="):
            kind, v = "naive", parse_rational(parts[1][2:])
        elif parts[0] == "gen" and parts[-1].startswith("half="):
            half = parse_rational(parts[-1][5:])
            kind = {name: kind for kind, name in GENERATOR_NAMES.items()}.get(parts[1])
            if kind is None or len(parts) != (3 if kind == "sin-of-square" else 4):
                raise ValueError
            coeffs = tuple(parse_rational(c) for field in parts[2:-1] for c in field.split(","))
        else:
            raise ValueError
    except ValueError as exc:
        hint = (
            "expected one of: naive:v=<rational> | gen:sinx2:half=<rational> | "
            "gen:cos:<c0,c1,...>:half=<rational> | gen:poly:<c0,c1,...>:half=<rational>"
        )
        msg = f"cannot parse test function spec {spec!r} ({hint})"
        raise ValueError(f"{msg}: {exc}" if str(exc) else msg) from None
    try:
        if kind == "naive":
            return make_naive(v)
        return make_from_generator(GeneratorSpec(kind, coeffs, half))
    except ValueError as exc:
        raise ValueError(f"test function spec {spec!r} is refused: {exc}") from None


def spec_order(tfs) -> list:
    """The functions sorted by spec string, the one order every multi-function sum takes."""
    return sorted(tfs, key=attrgetter("spec_string"))


def sigma2(a: TestFunction, b: TestFunction) -> float:
    """Pairwise variance ``2 int |y| phihat_a(y) phihat_b(y) dy``.

    The integrand vanishes outside the intersection of the transform
    supports, so only ``[0, min(support_a, support_b)]`` is integrated
    (doubled by evenness).  There both transforms are polynomial pieces,
    so the Gauss-Legendre sum of the integrand's degree is exact.  The
    pair is taken in spec order, so sigma2(a, b) equals sigma2(b, a) to
    the last bit, and its value is computed once per process
    (:func:`_pair_integral`).
    """
    return _pair_integral(*spec_order((a, b)), False)


def pair_term(a: TestFunction, b: TestFunction) -> float:
    """``int (1 - |t|)_+ phihat_a phihat_b dt`` for supports within 1: the sum
    sigma2 takes, with weights ``2 w (1 - y)``, in spec order and computed
    once per process (:func:`_pair_integral`)."""
    return _pair_integral(*spec_order((a, b)), True)


# Holds every pair of the largest matching sum the state cap admits (24
# distinct functions, 276 pairs) with room to spare.
@lru_cache(maxsize=512)
def _pair_integral(a: TestFunction, b: TestFunction, pair: bool) -> float:
    """sigma2 of a spec-ordered pair, or its pair term when ``pair`` is true.

    On a common support s both transforms are Legendre series p_a, p_b in
    x = 2y/s - 1, and the integrals are closed forms in their
    coefficients: with A = int p_a p_b = sum_j a_j b_j 2/(2j + 1) and B =
    int x p_a p_b = sum_j (a_j b_(j+1) + a_(j+1) b_j) 2(j + 1)/((2j + 1)(2j + 3))
    (orthogonality, and one step of the three-term recurrence for x),
    sigma2 = 4 int_0^s y phihat_a phihat_b = s^2 (A + B) and the pair term
    2 int_0^s (1 - y) phihat_a phihat_b = s A - s^2 (A + B)/2.  Otherwise
    they are sums on the pair's cached rule (:func:`_sigma2_rule`) of the
    weight times phihat_a times phihat_b at each node.  Keyed by the two
    functions, which are their specs, so each value is computed once per
    process, and only when it is asked for: a search reads sigma2 alone, a
    level-2 bound the pair term.
    """
    if a.support_bound == b.support_bound:
        s, ca, cb = a.support_bound, a.phihat_coef, b.phihat_coef
        norms, steps = _legendre_products(max(len(ca), len(cb)))
        within = sum(map(mul, map(mul, ca, cb), norms))
        across = (sum(map(mul, map(mul, ca, cb[1:]), steps))
                  + sum(map(mul, map(mul, ca[1:], cb), steps)))
        return s * within - 0.5 * s * s * (within + across) if pair else s * s * (within + across)
    wy, wt, va, vb = _sigma2_rule(a.support_bound, b.support_bound,
                                  a.phihat_degree, b.phihat_degree)
    fa = [sum(map(mul, row, a.phihat_coef)) for row in va]
    fb = [sum(map(mul, row, b.phihat_coef)) for row in vb]
    return sum(map(mul, map(mul, wt if pair else wy, fa), fb))


@lru_cache(maxsize=16)
def _legendre_products(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """int P_j^2 = 2/(2j + 1) and int x P_j P_(j+1) = 2(j + 1)/((2j + 1)(2j + 3))
    on [-1, 1], for j < n."""
    return (tuple(2.0 / (2 * j + 1) for j in range(n)),
            tuple(2.0 * (j + 1) / ((2 * j + 1) * (2 * j + 3)) for j in range(n)))


# Only pairs of distinct supports read a rule: each naive v with each
# other support, far fewer than this per run.
@lru_cache(maxsize=128)
def _sigma2_rule(support_a: float, support_b: float, degree_a: int, degree_b: int) -> tuple:
    """The sigma2 rule of one support and degree pair: ``(4 w y, 2 w (1 - y), V_a, V_b)``.

    ``y`` and ``w`` are the nodes and weights of the Gauss-Legendre rule
    of ``(1 + degree_a + degree_b) // 2 + 1`` nodes on
    ``[0, min(support_a, support_b)]``, exact for the integrands, and
    ``V_a`` holds one row per node: the Legendre polynomials
    ``P_0, ..., P_degree_a`` at ``y`` mapped from ``[0, support_a]`` to
    ``[-1, 1]``, so that a row's dot product with phihat_coef is phihat
    there; likewise ``V_b``.  Tuples, shared by every pair of functions
    with these supports and degrees.
    """
    nodes, weights = legendre_rule((1 + degree_a + degree_b) // 2 + 1)
    half = 0.5 * min(support_a, support_b)
    y = [half * (node + 1.0) for node in nodes]
    wy = tuple(4.0 * w * half * yi for w, yi in zip(weights, y))
    wt = tuple(2.0 * w * half * (1.0 - yi) for w, yi in zip(weights, y))
    return wy, wt, *(tuple(_legendre_row(yi * (2.0 / support) - 1.0, degree) for yi in y)
                     for support, degree in ((support_a, degree_a), (support_b, degree_b)))


def _legendre_row(x: float, degree: int) -> tuple[float, ...]:
    """P_0(x), ..., P_degree(x) by (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1)."""
    row = [1.0, x]
    for k in range(1, degree):
        row.append(((2 * k + 1) * x * row[-1] - k * row[-2]) / (k + 1))
    return tuple(row[: degree + 1])


def _legendre_series(chebyshev_series: list) -> list[tuple[float, ...]]:
    """Chebyshev series of one length n to Legendre series on [-1, 1]: the
    coefficient of P_k is sum_j c_j C_jk with C_jk that of P_k in T_j
    (:func:`_chebyshev_in_legendre`), which is zero for k > j, so a tail
    coefficient takes only the series' tail and keeps its relative accuracy."""
    columns = list(zip(*_chebyshev_in_legendre(len(chebyshev_series[0]))))
    return [tuple(sum(map(mul, coef, column)) for column in columns) for coef in chebyshev_series]


@lru_cache(maxsize=16)
def _chebyshev_in_legendre(n: int) -> tuple[tuple[float, ...], ...]:
    """Row j < n: T_j's Legendre coefficients, by T_(j+1) = 2x T_j - T_(j-1)
    and 2x P_k = (2(k + 1) P_(k+1) + 2k P_(k-1)) / (2k + 1)."""
    rows = [[1.0] + [0.0] * n, [0.0, 1.0] + [0.0] * (n - 1)]
    for j in range(1, n - 1):
        twice_x = [0.0] * (n + 1)
        for k, a in enumerate(rows[j][: j + 1]):
            twice_x[k + 1] += a * (2 * (k + 1)) / (2 * k + 1)
            if k:
                twice_x[k - 1] += a * (2 * k) / (2 * k + 1)
        rows.append(list(map(sub, twice_x, rows[j - 1])))
    return tuple(tuple(row[:n]) for row in rows[:n])


def min_rank(tf: TestFunction) -> int:
    """Smallest integer strictly greater than phihat(0)/phi(0) + 1/2.

    Below this rank the moment-method inequality loses its direction:
    the per-zero margin ``r*phi(0) - (phihat(0) + phi(0)/2)`` must be
    strictly positive.
    """
    phi0 = tf.phi0
    if not phi0 > 0:
        raise ValueError("min_rank needs phi(0) > 0")
    ratio = tf.phihat0 / phi0 + 0.5
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-9:
        return int(nearest) + 1
    return math.floor(ratio) + 1
