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
  the basis autocorrelation.  ``T`` is tabulated once per basis (kind,
  dimension, support and grid) and cached; only the contraction with the
  weights is done per function.

Support intervals are treated as open: the transforms vanish at their
support endpoints, so a function with ``support_bound == t`` satisfies a
"support strictly inside ``(-t, t)``" hypothesis.

The scalar functionals live at module level: :func:`sigma2` (the
pairwise variance ``2 int |y| phihat_a phihat_b dy``) and
:func:`min_rank` (the smallest vanishing order the moment inequality
can see for a given function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, integrate

GENERATOR_KINDS = ("sin-of-square", "polynomial", "cosine-series")


@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # leggauss solves an eigenproblem; cache it, the rules are reused heavily
    return np.polynomial.legendre.leggauss(n)

# phihat tabulation for generator-backed functions: start here and double
# until sigma2 stabilizes to SIGMA2_GRID_TOL relative to its value.
_BASE_GRID_NODES = 4097
_MAX_GRID_NODES = 65537
SIGMA2_GRID_TOL = 1e-10
# Gauss-Legendre nodes per overlap interval of the basis autocorrelation,
# and the size of the (rows, nodes, d, d) products built at a time
# (4 MB: 256 grid rows at d = 4).
_AUTOCORR_NODES = 128
_AUTOCORR_CHUNK_ELEMS = 2**19


def parse_rational(text: str) -> float:
    """Parse 'p/q' or a decimal literal into a float."""
    return float(Fraction(text.strip()))


@dataclass(frozen=True)
class GeneratorSpec:
    """A real generator ``g`` supported on ``(-half_support, half_support)``.

    Kinds:

    * ``sin-of-square``: g(t) = sin(t^2); no coefficients.
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
        elif not self.coefficients:
            raise ValueError(f"{self.kind} generator needs coefficients")
        if self.coefficients and not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("coefficients must be finite")

    @property
    def dimension(self) -> int:
        """Number of basis functions d (1 for sin-of-square)."""
        return len(self.coefficients) or 1

    @property
    def weights(self) -> np.ndarray:
        """Basis weights c with g = sum_k c_k b_k (the single weight 1 for sin-of-square)."""
        return np.asarray(self.coefficients or (1.0,))

    def basis(self, t) -> np.ndarray:
        """Basis values b_k(t), shape ``t.shape + (d,)``; zero outside the open support."""
        return _basis_values(self.kind, self.dimension, self.half_support, t)

    def evaluate(self, t) -> np.ndarray:
        """g(t) = basis(t) @ weights, vectorized; zero outside the open support interval."""
        return self.basis(t) @ self.weights


def _basis_values(kind: str, dim: int, half_support: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if kind == "sin-of-square":
        vals = np.sin(t * t)[..., None]
    elif kind == "polynomial":
        vals = t[..., None] ** np.arange(dim)
    else:  # cosine-series
        vals = np.cos(np.multiply.outer(t, np.arange(dim)) * (math.pi / (2.0 * half_support)))
    return np.where((np.abs(t) < half_support)[..., None], vals, 0.0)


@lru_cache(maxsize=16)
def _basis_autocorrelation(kind: str, dim: int, half_support: float, n: int) -> np.ndarray:
    """T[i, k, l] = int b_k(t) b_l(t - y_i) dt on the grid y = linspace(0, 2h, n).

    One Gauss-Legendre rule per y on the overlap interval (y - h, h).
    Shape (n, d, d), read-only: it is shared by every generator of the
    same basis, whose phihat is then c^T T(y) c.
    """
    h = half_support
    ys = np.linspace(0.0, 2.0 * h, n)
    base, wts = _leggauss(_AUTOCORR_NODES)
    out = np.empty((n, dim, dim))
    rows = max(1, _AUTOCORR_CHUNK_ELEMS // (_AUTOCORR_NODES * dim * dim))
    for start in range(0, n, rows):
        y = ys[start : start + rows]
        lo = y - h
        width = np.maximum(h - lo, 0.0)
        t = lo[:, None] + (base[None, :] + 1.0) * 0.5 * width[:, None]
        w = wts[None, :] * 0.5 * width[:, None]
        left = w[..., None] * _basis_values(kind, dim, h, t)
        right = _basis_values(kind, dim, h, t - y[:, None])
        out[start : start + y.size] = (left[..., :, None] * right[..., None, :]).sum(axis=1)
    out.flags.writeable = False
    return out


class TestFunction:
    """Base class: an admissible pair (phi, phihat).

    Subclasses provide vectorized ``phi``/``phihat``, the support bound
    of the transform and a round-trippable spec string.
    """

    support_bound: float
    spec_string: str

    def phi(self, x) -> np.ndarray:
        raise NotImplementedError

    def phihat(self, y) -> np.ndarray:
        raise NotImplementedError

    @property
    def phi0(self) -> float:
        return float(self.phi(0.0))

    @property
    def phihat0(self) -> float:
        return float(self.phihat(0.0))

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string!r})"


class NaiveTestFunction(TestFunction):
    """The Fejer pair: phi = (sin(pi v x)/(pi v x))^2, phihat the triangle on (-v, v)."""

    def __init__(self, v: float):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"naive test function needs v > 0, got {v!r}")
        self.v = float(v)
        self.support_bound = self.v
        self.spec_string = f"naive:v={self.v!r}"

    def phi(self, x):
        return np.sinc(self.v * np.asarray(x, dtype=float)) ** 2

    def phihat(self, y):
        y = np.abs(np.asarray(y, dtype=float))
        return np.where(y < self.v, (1.0 / self.v) * (1.0 - y / self.v), 0.0)


class GeneratorBackedTestFunction(TestFunction):
    """phi = |inverse transform of g|^2, phihat = autocorrelation of g.

    ``phihat`` is sampled on a uniform grid over [0, 2*half_support] as
    ``c^T T(y) c``, from the cached basis autocorrelation ``T`` and the
    generator's weights ``c`` (node count doubled until the self-variance
    sigma2 stabilizes relative to its value), and evaluated through a
    cubic spline; phi is evaluated directly by Gauss-Legendre quadrature
    of the oscillatory transform integral.
    """

    _GL_NODES = 512

    def __init__(self, generator: GeneratorSpec):
        self.generator = generator
        h = generator.half_support
        self.support_bound = 2.0 * h

        # Fixed Gauss-Legendre rule on the generator support; g is smooth
        # there, so the rule is exact to machine precision for the
        # non-oscillatory factors.
        nodes, weights = _leggauss(self._GL_NODES)
        t = 0.5 * (nodes + 1.0) * (2 * h) - h
        w = weights * h
        g = np.asarray(generator.evaluate(t), dtype=float)

        int_g = float(w @ g)
        int_abs_g = float(w @ np.abs(g))
        int_g2 = float(w @ g**2)
        if int_g2 <= 0.0:
            raise ValueError("generator is identically zero")
        if abs(int_g) <= 1e-12 * max(1.0, int_abs_g):
            raise ValueError(
                "generator integrates to zero: phi(0) vanishes and every "
                "bound denominator would vanish with it"
            )
        self._phi0 = int_g**2
        self._phihat0 = int_g2

        # The rule is symmetric about 0: fold it onto its positive nodes,
        # so phi needs half the trigonometric evaluations.
        half = self._GL_NODES // 2
        wg = w * g
        self._t_pos = t[half:]
        self._wg_even = wg[half:] + wg[half - 1 :: -1]
        self._wg_odd = wg[half:] - wg[half - 1 :: -1]

        self._spline = self._tabulate_phihat()
        self.spec_string = _generator_spec_string(generator)

    def _autocorrelation(self, n: int) -> np.ndarray:
        """int g(t) g(t - y) dt = c^T T(y) c on the grid y = linspace(0, 2h, n)."""
        g = self.generator
        table = _basis_autocorrelation(g.kind, g.dimension, g.half_support, n)
        return (table @ g.weights) @ g.weights

    def _tabulate_phihat(self) -> CubicSpline:
        two_h = self.support_bound
        n = _BASE_GRID_NODES
        ys = np.linspace(0.0, two_h, n)
        vals = self._autocorrelation(n)
        vals[-1] = 0.0
        spline = CubicSpline(ys, vals, bc_type="natural")
        s2 = _grid_self_sigma2(spline, two_h)
        # One rung down the refinement ladder is free: the half grid is a
        # subsample of the values already computed.
        coarse = CubicSpline(ys[::2], vals[::2], bc_type="natural")
        prev_sigma2 = _grid_self_sigma2(coarse, two_h)
        while abs(s2 - prev_sigma2) > SIGMA2_GRID_TOL * abs(s2) and n < _MAX_GRID_NODES:
            prev_sigma2 = s2
            n = 2 * n - 1
            ys = np.linspace(0.0, two_h, n)
            vals = self._autocorrelation(n)
            vals[-1] = 0.0
            spline = CubicSpline(ys, vals, bc_type="natural")
            s2 = _grid_self_sigma2(spline, two_h)
        return spline

    def phi(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        phase = 2.0 * math.pi * np.multiply.outer(x, self._t_pos)
        re = np.cos(phase) @ self._wg_even
        im = np.sin(phase) @ self._wg_odd
        out = re**2 + im**2
        return out if out.size > 1 else out.reshape(())

    def phihat(self, y):
        y = np.abs(np.asarray(y, dtype=float))
        inside = y < self.support_bound
        vals = self._spline(np.where(inside, y, 0.0))
        return np.where(inside, vals, 0.0)

    @property
    def phi0(self) -> float:
        return self._phi0

    @property
    def phihat0(self) -> float:
        return self._phihat0


def _grid_self_sigma2(spline: CubicSpline, two_h: float) -> float:
    """2 int |y| phihat^2 over (-2h, 2h) by Gauss-Legendre on the half line."""
    base, wts = _leggauss(256)
    y = (base + 1.0) * 0.5 * two_h
    w = wts * 0.5 * two_h
    return 4.0 * float(w @ (y * spline(y) ** 2))


def _generator_spec_string(g: GeneratorSpec) -> str:
    half = repr(g.half_support)
    if g.kind == "sin-of-square":
        return f"gen:sinx2:half={half}"
    if g.kind == "polynomial":
        coeffs = ",".join(repr(c) for c in g.coefficients)
        return f"gen:poly:{coeffs}:half={half}"
    coeffs = ",".join(repr(c) for c in g.coefficients)
    return f"gen:cos:{coeffs}:half={half}"


def make_naive(v: float) -> NaiveTestFunction:
    """Fejer-type test function with transform support (-v, v)."""
    return NaiveTestFunction(v)


def make_from_generator(g: GeneratorSpec) -> GeneratorBackedTestFunction:
    """Test function with phihat the self-correlation of the generator g."""
    return GeneratorBackedTestFunction(g)


def from_spec_string(spec: str) -> TestFunction:
    """Build a test function from its CLI spec string.

    Grammar::

        naive:v=<rational>
        gen:sinx2:half=<rational>
        gen:cos:<c0,c1,...>:half=<rational>
        gen:poly:<c0,c1,...>:half=<rational>

    Rationals may be written ``p/q`` or as decimals.
    """
    parts = spec.strip().split(":")
    try:
        if not parts or not parts[-1]:
            raise ValueError
        if parts[0] == "naive":
            if len(parts) != 2 or not parts[1].startswith("v="):
                raise ValueError
            return make_naive(parse_rational(parts[1][2:]))
        if parts[0] == "gen":
            if parts[-1].startswith("half="):
                half = parse_rational(parts[-1][5:])
            else:
                raise ValueError
            if parts[1] == "sinx2" and len(parts) == 3:
                return make_from_generator(GeneratorSpec("sin-of-square", (), half))
            if parts[1] in ("cos", "poly") and len(parts) == 4:
                kind = {"cos": "cosine-series", "poly": "polynomial"}[parts[1]]
                coeffs = tuple(parse_rational(c) for c in parts[2].split(","))
                return make_from_generator(GeneratorSpec(kind, coeffs, half))
        raise ValueError
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        detail = str(exc)
        hint = (
            "expected one of: naive:v=<rational> | gen:sinx2:half=<rational> | "
            "gen:cos:<c0,c1,...>:half=<rational> | gen:poly:<c0,c1,...>:half=<rational>"
        )
        msg = f"cannot parse test function spec {spec!r} ({hint})"
        if detail and detail != spec:
            msg = f"{msg}: {detail}"
        raise ValueError(msg) from None


def sigma2(
    a: TestFunction,
    b: TestFunction,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Pairwise variance ``2 int |y| phihat_a(y) phihat_b(y) dy``.

    The integrand vanishes outside the intersection of the transform
    supports, so only ``[0, min(support_a, support_b)]`` is integrated
    (doubled by evenness).  The transforms are smooth inside their
    supports, so a vectorized Gauss-Legendre ladder (node count doubled
    until two levels agree to ``rel_tol`` of the pair's natural scale
    ``2 s^2 |phihat_a(0) phihat_b(0)|``) is used first, with adaptive
    quadrature as the fallback.
    """
    s = min(a.support_bound, b.support_bound)
    if s <= 0:
        return 0.0
    tol = settings.rel_tol * 2.0 * s * s * abs(a.phihat0 * b.phihat0)

    def gl_value(n: int) -> float:
        base, wts = _leggauss(n)
        y = 0.5 * s + 0.5 * s * base
        integrand = y * np.asarray(a.phihat(y)) * np.asarray(b.phihat(y))
        return 2.0 * 2.0 * float((0.5 * s * wts * integrand).sum())

    prev = gl_value(64)
    for n in (128, 256, 512):
        cur = gl_value(n)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur

    val, _ = integrate(
        lambda y: 2.0 * y * float(a.phihat(y)) * float(b.phihat(y)),
        0.0,
        s,
        settings,
    )
    return 2.0 * val


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
