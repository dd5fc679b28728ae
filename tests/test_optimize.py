"""Generator-space search: objective values, penalties, search behavior."""

import pytest

from momentbounds import (
    GeneratorBasis,
    GeneratorSpec,
    MomentResult,
    NoFeasiblePointError,
    OptimizationProblem,
    SearchSettings,
    SymmetryGroup,
    make_from_generator,
    make_naive,
    objective,
    search,
)
from momentbounds import bounds
from momentbounds.optimize import PENALTY_SCALE

G = SymmetryGroup

# Published mixed-pair value at rank 100 (even family), 5 printed digits.
MIXED_R100 = 3.7858e-9
# A 4-coefficient cosine point found by a coarse grid scan over the box
# [-1,1]^4 (c0 fixed to 1 by scale invariance); strictly better than the
# sin(x^2) generator at rank 100.
COSINE_GRID_POINT = (1.0, -0.75, 0.5, 0.5)
COSINE_GRID_VALUE = 2.6825e-9


@pytest.fixture(scope="module")
def fixed_naive_quarter_basis():
    return GeneratorBasis("fixed", fixed_function=make_naive(0.25))


def _sinx2_basis(half):
    """The parameter-free sin(t^2) slot, as the CLI's sinx2:half=<r> builds it."""
    return GeneratorBasis(
        "fixed", fixed_function=make_from_generator(GeneratorSpec("sin-of-square", (), half))
    )


@pytest.fixture(scope="module")
def mixed_problem(fixed_naive_quarter_basis):
    return OptimizationProblem(
        family=G.SO_EVEN,
        rank=100,
        moment_order=4,
        bases=(_sinx2_basis(0.125), fixed_naive_quarter_basis),
        support_budget=0.25,
        regime="mock_gaussian",
    )


@pytest.fixture(scope="module")
def cosine_problem(fixed_naive_quarter_basis):
    return OptimizationProblem(
        family=G.SO_EVEN,
        rank=100,
        moment_order=4,
        bases=(
            GeneratorBasis("cosine-series", dimension=4, half_support=0.125),
            fixed_naive_quarter_basis,
        ),
        support_budget=0.25,
        regime="mock_gaussian",
    )


def test_objective_at_known_mixed_pair(mixed_problem):
    value = objective([(), ()], mixed_problem)
    assert value == pytest.approx(MIXED_R100, rel=1e-3)


def test_objective_naive_equivalent_generators():
    # indicator generators on (-1/6, 1/6) reproduce the naive table value
    basis = GeneratorBasis("polynomial", dimension=1, half_support=1.0 / 6.0)
    problem = OptimizationProblem(
        family=G.SO_EVEN,
        rank=20,
        moment_order=4,
        bases=(basis, basis),
        support_budget=1.0 / 3.0,
        regime="with_R",
    )
    value = objective([(1.0,), (1.0,)], problem)
    assert value == pytest.approx(4.49988e-6, rel=1e-4)


def test_objective_penalty_branches(cosine_problem, fixed_naive_quarter_basis):
    # degenerate generator: integral ~ 0
    assert objective([(0.0, 0.0, 0.0, 0.0), ()], cosine_problem) >= PENALTY_SCALE
    # rank below the minimum usable rank of the second slot (naive 1/4 has c=5)
    low_rank = OptimizationProblem(
        family=G.SO_EVEN,
        rank=4,
        moment_order=4,
        bases=(
            GeneratorBasis("cosine-series", dimension=4, half_support=0.125),
            fixed_naive_quarter_basis,
        ),
        support_budget=0.25,
        regime="mock_gaussian",
    )
    assert objective([COSINE_GRID_POINT, ()], low_rank) >= PENALTY_SCALE


def test_negative_moment_is_penalized_not_reported(cosine_problem, monkeypatch):
    def negative_moment(request):
        return MomentResult(-1e-20, -1e-20, 0.0, 1, request.regime)

    monkeypatch.setattr(bounds, "centered_moment", negative_moment)
    assert objective([COSINE_GRID_POINT, ()], cosine_problem) == PENALTY_SCALE


def test_grid_scan_point_beats_sin_of_square(cosine_problem, mixed_problem):
    # oracle for the search: the frozen coarse-grid point is already
    # better than the sin(x^2) generator
    reference = objective([(), ()], mixed_problem)
    at_grid_point = objective([COSINE_GRID_POINT, ()], cosine_problem)
    assert at_grid_point == pytest.approx(COSINE_GRID_VALUE, rel=1e-3)
    assert at_grid_point < reference


def test_singleton_search_returns_fixed_value(mixed_problem):
    res = search(mixed_problem, SearchSettings(restarts=1, seed=3, max_evals=5))
    assert res.bound == pytest.approx(MIXED_R100, rel=1e-3)
    assert res.coefficients == ((), ())
    assert len(res.trace) == 1


@pytest.mark.slow
def test_search_improves_and_is_deterministic(cosine_problem):
    settings = SearchSettings(restarts=2, seed=7, max_evals=60)
    res = search(cosine_problem, settings)
    again = search(cosine_problem, settings)
    assert res.bound == again.bound
    assert [t.final_value for t in res.trace] == [t.final_value for t in again.trace]
    # improvement: never worse than any restart's starting point
    assert all(res.bound <= t.start_value for t in res.trace)
    # feasibility: the winner is a real bound, not a penalty value
    assert res.bound < 1.0


def test_search_raises_when_nothing_feasible(fixed_naive_quarter_basis):
    problem = OptimizationProblem(
        family=G.SO_EVEN,
        rank=4,  # below the naive quarter's minimum usable rank 5
        moment_order=4,
        bases=(
            GeneratorBasis("cosine-series", dimension=2, half_support=0.125),
            fixed_naive_quarter_basis,
        ),
        support_budget=0.25,
        regime="mock_gaussian",
    )
    with pytest.raises(NoFeasiblePointError):
        search(problem, SearchSettings(restarts=1, seed=0, max_evals=8))


def test_problem_validation(fixed_naive_quarter_basis):
    with pytest.raises(ValueError, match="slot bases"):
        OptimizationProblem(G.SO_EVEN, 100, 4, (fixed_naive_quarter_basis,), 0.25)
    with pytest.raises(ValueError, match="budget"):
        OptimizationProblem(
            G.SO_EVEN,
            100,
            4,
            (_sinx2_basis(0.2), fixed_naive_quarter_basis),
            0.25,
        )
    with pytest.raises(ValueError, match="support hypothesis"):
        OptimizationProblem(
            G.SO_EVEN,
            100,
            4,
            (_sinx2_basis(0.3), fixed_naive_quarter_basis),
            0.6,
        )


def test_unknown_regime_is_refused(fixed_naive_quarter_basis):
    with pytest.raises(ValueError, match="regime must be one of"):
        OptimizationProblem(
            G.SO_EVEN, 100, 4, (fixed_naive_quarter_basis, fixed_naive_quarter_basis), 0.25,
            regime="bogus",
        )


def test_basis_validation():
    with pytest.raises(ValueError):
        GeneratorBasis("fixed")
    with pytest.raises(ValueError):
        GeneratorBasis("cosine-series", dimension=0, half_support=0.1)
    basis = GeneratorBasis("cosine-series", dimension=3, half_support=0.1)
    assert basis.n_params == 3
    assert _sinx2_basis(0.1).n_params == 0
    with pytest.raises(ValueError, match="unknown basis kind"):
        GeneratorBasis("sin-of-square", half_support=0.1)
