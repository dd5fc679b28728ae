"""Search over generator space for test functions that tighten a bound.

Rather than varying the test function directly (hard to parametrize:
it must stay even and non-negative with a compactly supported
transform), the search varies the generator ``g``: any real compactly
supported ``g`` yields an admissible test function whose transform is
supported on twice the generator's support.  Each slot of the moment
bound is a generator basis or a fixed test function, the bases'
coefficients are searched jointly, and the objective is the bound itself.

Every quantity in the objective is exact up to rounding: the integrals
are Gauss-Legendre sums and the correction term R is multilinear in the
transforms' end pieces.  Infeasible points return a flat penalty, so the
local search is a derivative-free simplex (Nelder-Mead, with fixed
stopping tolerances) restarted from uniform random points with every
coefficient in [-1, 1], where the simplex stays.  The bound does not
move under g -> c g, so one fixed box loses no test function.
Restarts own deterministic random substreams derived from
(seed, restart index), so results are reproducible and independent of
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .bounds import RankTooSmallError, UncertifiedBoundError, bound_moment, zero_margin
from .kernels import SymmetryGroup
from .moments import SupportRegimeError, support_threshold, support_within
from .testfunc import GeneratorSpec, TestFunction, make_from_generator

PENALTY_SCALE = 1e6
COEFFICIENT_BOX = (-1.0, 1.0)  # every free coefficient's search interval


class NoFeasiblePointError(RuntimeError):
    """Every evaluated point fell in the penalty branch."""


@dataclass(frozen=True)
class GeneratorBasis:
    """Parametrization of one searched slot's generator.

    ``cosine-series`` and ``polynomial`` expose ``dimension`` free
    coefficients, each searched over ``COEFFICIENT_BOX``.  A slot with
    nothing to search is its :class:`TestFunction`, not a basis.
    """

    kind: str
    dimension: int = 0
    half_support: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cosine-series", "polynomial"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not self.half_support > 0:
            raise ValueError("half_support must be positive")
        if self.dimension < 1:
            raise ValueError(f"{self.kind} basis needs dimension >= 1")

    @property
    def support_bound(self) -> float:
        return 2.0 * self.half_support

    def build(self, coeffs: Sequence[float]) -> TestFunction:
        """Test function at the given coefficient vector (may raise for
        degenerate generators, e.g. integral zero)."""
        return make_from_generator(GeneratorSpec(self.kind, tuple(coeffs), self.half_support))


@dataclass(frozen=True)
class OptimizationProblem:
    """A bound-minimization problem at fixed family and rank.

    Each slot, a :class:`GeneratorBasis` to search or a fixed
    :class:`TestFunction`, is used twice: m slots give moment order 2m.
    ``support_budget`` caps every slot's transform support and must
    satisfy the support hypothesis of the chosen regime.
    """

    family: SymmetryGroup
    rank: int
    bases: tuple[GeneratorBasis | TestFunction, ...]
    support_budget: float
    weight_k: int = 2
    regime: str = "auto"

    def __post_init__(self):
        if not self.bases:
            raise ValueError("an optimization problem needs at least one slot")
        if not self.support_budget > 0:
            raise ValueError("support_budget must be positive")
        for basis in self.bases:
            if not support_within(basis.support_bound, self.support_budget):
                raise ValueError(
                    f"slot support {basis.support_bound:.6g} exceeds the budget "
                    f"{self.support_budget:.6g}"
                )
        # checked before the threshold, which divides by k
        if self.weight_k < 2:
            raise ValueError("weight_k must be an integer >= 2")
        limit = support_threshold(self.regime, self.moment_order, self.weight_k)
        if not support_within(self.support_budget, limit):
            raise ValueError(
                f"support budget {self.support_budget:.6g} violates the {self.regime} "
                f"support hypothesis ({limit:.6g}) at moment order {self.moment_order}"
            )

    @property
    def moment_order(self) -> int:
        return 2 * len(self.bases)

    @property
    def n_params(self) -> int:
        return sum(b.dimension for b in self.bases if isinstance(b, GeneratorBasis))

    def split_params(self, x: Sequence[float]) -> list[tuple[float, ...]]:
        """One coefficient tuple per slot; a fixed test function takes none."""
        out = []
        i = 0
        for basis in self.bases:
            n = basis.dimension if isinstance(basis, GeneratorBasis) else 0
            out.append(tuple(x[i : i + n]))
            i += n
        return out


def objective(
    coeffs_per_slot: Sequence[Sequence[float]],
    problem: OptimizationProblem,
) -> float:
    """The moment bound at the given slot coefficients.

    Infeasible points (degenerate generator, rank below the minimum
    usable rank, support violation) and points whose bound cannot be
    certified (:class:`UncertifiedBoundError`) return a large penalty
    instead of raising, so the simplex can move through them and none of
    them is reported as a bound.
    """
    try:
        slots = [
            basis.build(coeffs) if isinstance(basis, GeneratorBasis) else basis
            for basis, coeffs in zip(problem.bases, coeffs_per_slot, strict=True)
        ]
    except ValueError:
        return PENALTY_SCALE
    try:
        (result,) = bound_moment(
            slots,
            problem.family,
            [problem.rank],
            weight_k=problem.weight_k,
            regime=problem.regime,
        )
    except (SupportRegimeError, UncertifiedBoundError):
        return PENALTY_SCALE
    except RankTooSmallError:
        # rank below c_phi: penalize by the violation magnitude
        magnitude = 0.0
        for tf in slots:
            margin = zero_margin(tf, problem.rank)
            if margin <= 0:
                magnitude = max(magnitude, -margin / tf.phi0)
        return PENALTY_SCALE * (1.0 + magnitude)
    return result.upper_bound


@dataclass(frozen=True)
class RestartTrace:
    restart: int
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
    *,
    restarts: int = 16,
    seed: int = 0,
    max_evals: int = 2000,
) -> SearchResult:
    """Minimize the bound with every coefficient in ``COEFFICIENT_BOX``.

    Deterministic given the seed; the reported best is the minimum over
    every point evaluated in any restart and never comes from the
    penalty branch.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {max_evals}")
    # imported here so the bound commands never load numpy or scipy
    import numpy as np
    from scipy.optimize import minimize

    n = problem.n_params
    evaluated: list[tuple[float, np.ndarray]] = []  # (value, point) of every call, in order

    def evaluate(x: np.ndarray) -> float:
        value = objective(problem.split_params(x), problem)
        evaluated.append((value, np.array(x, dtype=float)))
        return value

    traces: list[RestartTrace] = []
    if n == 0:
        value = evaluate(np.empty(0))
        traces.append(RestartTrace(0, value, value, 1, True))
    else:
        lo, hi = COEFFICIENT_BOX
        streams = np.random.SeedSequence(seed).spawn(restarts)
        for i in range(restarts):
            rng = np.random.default_rng(streams[i])
            x0 = lo + rng.random(n) * (hi - lo)
            first = len(evaluated)  # the simplex's first call is at x0
            result = minimize(
                evaluate,
                x0,
                method="Nelder-Mead",
                bounds=[COEFFICIENT_BOX] * n,
                options={
                    "maxfev": max_evals,
                    "fatol": 1e-12,
                    "xatol": 1e-10,
                },
            )
            start = evaluated[first][0]
            traces.append(
                RestartTrace(i, start, float(result.fun), int(result.nfev), bool(result.success))
            )

    # the first call of least value; a penalty value bounds nothing
    best_value, best_x = min(evaluated, key=lambda e: e[0])
    if best_value >= PENALTY_SCALE:
        raise NoFeasiblePointError(
            "no feasible point found in any restart; every evaluation hit the penalty branch"
        )
    return SearchResult(
        coefficients=tuple(problem.split_params(best_x.tolist())),
        bound=float(best_value),
        trace=tuple(traces),
    )
