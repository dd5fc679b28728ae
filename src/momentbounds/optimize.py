"""Search over generator space for test functions that tighten a bound.

Rather than varying the test function directly (hard to parametrize:
it must stay even and non-negative with a compactly supported
transform), the search varies the generator ``g``: any real compactly
supported ``g`` yields an admissible test function whose transform is
supported on twice the generator's support.  Each slot of the moment
bound gets its own generator basis, slots are optimized jointly, and the
objective is the bound itself.

The objective involves nested quadrature and is noisy at the 1e-10
level, so the local search is a derivative-free simplex (Nelder-Mead)
restarted from uniform random points inside the coefficient box.
Restarts own deterministic random substreams derived from
(seed, restart index), so results are reproducible and independent of
scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .bounds import RankTooSmallError, bound_moment
from .kernels import SymmetryGroup
from .moments import SupportRegimeError
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings
from .testfunc import GeneratorSpec, TestFunction, make_from_generator

PENALTY_SCALE = 1e6

BASIS_KINDS = ("cosine-series", "polynomial", "sin-of-square", "fixed")


class NoFeasiblePointError(RuntimeError):
    """Every evaluated point fell in the penalty branch."""


@dataclass(frozen=True)
class GeneratorBasis:
    """Parametrization of one slot's generator.

    ``cosine-series`` and ``polynomial`` expose ``dimension`` free
    coefficients constrained to ``coefficient_box``; ``sin-of-square``
    and ``fixed`` are parameter-free (the latter pins a prebuilt test
    function).
    """

    kind: str
    dimension: int = 0
    coefficient_box: tuple[tuple[float, float], ...] = ()
    half_support: float = 0.0
    fixed_function: TestFunction | None = None

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "fixed":
            if self.fixed_function is None:
                raise ValueError("fixed basis needs fixed_function")
            return
        if not self.half_support > 0:
            raise ValueError("half_support must be positive")
        if self.kind == "sin-of-square":
            return
        if self.dimension < 1:
            raise ValueError(f"{self.kind} basis needs dimension >= 1")
        box = self.coefficient_box or tuple((-1.0, 1.0) for _ in range(self.dimension))
        if len(box) != self.dimension:
            raise ValueError("coefficient_box length must equal dimension")
        for lo, hi in box:
            if not lo < hi:
                raise ValueError("coefficient_box entries need lo < hi")
        object.__setattr__(self, "coefficient_box", tuple((float(lo), float(hi)) for lo, hi in box))

    @property
    def n_params(self) -> int:
        if self.kind in ("fixed", "sin-of-square"):
            return 0
        return self.dimension

    @property
    def support_bound(self) -> float:
        if self.kind == "fixed":
            return self.fixed_function.support_bound
        return 2.0 * self.half_support

    def build(self, coeffs: Sequence[float]) -> TestFunction:
        """Test function at the given coefficient vector (may raise for
        degenerate generators, e.g. integral zero)."""
        if self.kind == "fixed":
            return self.fixed_function
        if self.kind == "sin-of-square":
            return make_from_generator(GeneratorSpec("sin-of-square", (), self.half_support))
        spec_kind = "cosine-series" if self.kind == "cosine-series" else "polynomial"
        return make_from_generator(GeneratorSpec(spec_kind, tuple(coeffs), self.half_support))


@dataclass(frozen=True)
class OptimizationProblem:
    """A bound-minimization problem at fixed family, rank and moment order.

    ``moment_order`` is 2m; there are m slot bases, each slot used twice
    in the moment.  ``support_budget`` caps every slot's transform
    support and must satisfy the support hypothesis of the chosen regime.
    """

    family: SymmetryGroup
    rank: int
    moment_order: int
    bases: tuple[GeneratorBasis, ...]
    support_budget: float
    weight_k: int = 2
    regime: str = "auto"

    def __post_init__(self):
        if self.moment_order < 2 or self.moment_order % 2 != 0:
            raise ValueError("moment_order must be an even integer >= 2")
        m = self.moment_order // 2
        if len(self.bases) != m:
            raise ValueError(f"need {m} slot bases for moment order {self.moment_order}")
        if not self.support_budget > 0:
            raise ValueError("support_budget must be positive")
        for basis in self.bases:
            if basis.support_bound > self.support_budget * (1 + 1e-12):
                raise ValueError(
                    f"slot support {basis.support_bound:.6g} exceeds the budget "
                    f"{self.support_budget:.6g}"
                )
        n = self.moment_order
        with_r = 1.0 / (n - 1)
        mock = (2.0 * self.weight_k - 1.0) / (n * self.weight_k)
        thresholds = {"with_R": with_r, "mock_gaussian": mock, "auto": max(with_r, mock)}
        limit = thresholds[self.regime] if self.regime in thresholds else max(with_r, mock)
        if self.support_budget > limit * (1 + 1e-12):
            raise ValueError(
                f"support budget {self.support_budget:.6g} violates the "
                f"{self.regime} support hypothesis ({limit:.6g}) at moment order {n}"
            )

    @property
    def n_params(self) -> int:
        return sum(b.n_params for b in self.bases)

    def split_params(self, x: Sequence[float]) -> list[tuple[float, ...]]:
        out = []
        i = 0
        for basis in self.bases:
            out.append(tuple(x[i : i + basis.n_params]))
            i += basis.n_params
        return out

    def box(self) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        for basis in self.bases:
            out.extend(basis.coefficient_box[: basis.n_params])
        return out


def objective(
    coeffs_per_slot: Sequence[Sequence[float]],
    problem: OptimizationProblem,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """The moment bound at the given slot coefficients.

    Infeasible points (degenerate generator, rank below the minimum
    usable rank, support violation) return a large penalty instead of
    raising, so the simplex can move through them.
    """
    try:
        slots = [
            basis.build(coeffs)
            for basis, coeffs in zip(problem.bases, coeffs_per_slot, strict=True)
        ]
    except ValueError:
        return PENALTY_SCALE
    try:
        result = bound_moment(
            slots,
            problem.family,
            problem.rank,
            weight_k=problem.weight_k,
            regime=problem.regime,
            settings=settings,
        )
    except SupportRegimeError:
        return PENALTY_SCALE
    except RankTooSmallError:
        # rank below c_phi: penalize by the violation magnitude
        magnitude = 0.0
        for tf in slots:
            margin = problem.rank * tf.phi0 - (tf.phihat0 + 0.5 * tf.phi0)
            if margin <= 0 and tf.phi0 > 0:
                magnitude = max(magnitude, -margin / tf.phi0)
        return PENALTY_SCALE * (1.0 + magnitude)
    return result.upper_bound


@dataclass(frozen=True)
class SearchSettings:
    restarts: int = 16
    seed: int = 0
    max_evals: int = 2000
    simplex_tolerance: float = 1e-12


@dataclass(frozen=True)
class RestartTrace:
    restart: int
    start: tuple[float, ...]
    start_value: float
    final_value: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class SearchResult:
    coefficients: tuple[tuple[float, ...], ...]
    bound: float
    trace: tuple[RestartTrace, ...] = field(repr=False)


def search(
    problem: OptimizationProblem,
    settings: SearchSettings = SearchSettings(),
    quad_settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> SearchResult:
    """Minimize the bound over the coefficient box.

    Deterministic given the seed; the reported best is the minimum over
    every point evaluated in any restart and never comes from the
    penalty branch.
    """
    n = problem.n_params

    best_value = math.inf
    best_x: np.ndarray | None = None

    def evaluate(x: np.ndarray) -> float:
        nonlocal best_value, best_x
        value = objective(problem.split_params(x), problem, quad_settings)
        if value < best_value:
            best_value = value
            best_x = np.array(x, dtype=float)
        return value

    traces: list[RestartTrace] = []
    if n == 0:
        value = evaluate(np.empty(0))
        traces.append(RestartTrace(0, (), value, value, 1, True))
    else:
        box = problem.box()
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        streams = np.random.SeedSequence(settings.seed).spawn(settings.restarts)
        for i in range(settings.restarts):
            rng = np.random.default_rng(streams[i])
            x0 = lo + rng.random(n) * (hi - lo)
            start_value = evaluate(x0)
            result = minimize(
                evaluate,
                x0,
                method="Nelder-Mead",
                bounds=list(zip(lo, hi)),
                options={
                    "maxfev": settings.max_evals,
                    "fatol": settings.simplex_tolerance,
                    "xatol": 1e-10,
                },
            )
            traces.append(
                RestartTrace(
                    i,
                    tuple(float(v) for v in x0),
                    start_value,
                    float(result.fun),
                    int(result.nfev),
                    bool(result.success),
                )
            )

    if best_x is None or best_value >= PENALTY_SCALE:
        raise NoFeasiblePointError(
            "no feasible point found in any restart; every evaluation hit the penalty branch"
        )
    return SearchResult(
        coefficients=tuple(problem.split_params(best_x)),
        bound=best_value,
        trace=tuple(traces),
    )
