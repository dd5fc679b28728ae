"""Generator-space search: objective values, penalties, search behavior."""

import pytest

from momentbounds import (
    GeneratorBasis,
    GeneratorSpec,
    MomentResult,
    NoFeasiblePointError,
    OptimizationProblem,
    SymmetryGroup,
    make_from_generator,
    make_naive,
    objective,
    search,
)
from momentbounds import bounds, moments, optimize, testfunc
from momentbounds.optimize import PENALTY_SCALE

G = SymmetryGroup

# Published mixed-pair value at rank 100 (even family), 5 printed digits.
MIXED_R100 = 3.7858e-9
# A 4-coefficient cosine point found by a coarse grid scan over the box
# [-1,1]^4 (c0 fixed to 1 by scale invariance); strictly better than the
# sin(x^2) generator at rank 100.
COSINE_GRID_POINT = (1.0, -0.75, 0.5, 0.5)
COSINE_GRID_VALUE = 2.6825e-9


def _sinx2(half):
    """The parameter-free sin(t^2) slot, as the CLI's sinx2:half=<r> builds it."""
    return make_from_generator(GeneratorSpec("sin-of-square", (), half))


@pytest.fixture(scope="module")
def mixed_problem(naive_quarter):
    return OptimizationProblem(
        family=G.SO_EVEN,
        rank=100,
        bases=(_sinx2(0.125), naive_quarter),
        support_budget=0.25,
        regime="mock_gaussian",
    )


@pytest.fixture(scope="module")
def cosine_problem(naive_quarter):
    return OptimizationProblem(
        family=G.SO_EVEN,
        rank=100,
        bases=(
            GeneratorBasis("cosine-series", dimension=4, half_support=0.125),
            naive_quarter,
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
        bases=(basis, basis),
        support_budget=1.0 / 3.0,
        regime="with_R",
    )
    value = objective([(1.0,), (1.0,)], problem)
    assert value == pytest.approx(4.49988e-6, rel=1e-4)


def test_objective_penalty_branches(cosine_problem, naive_quarter):
    # degenerate generator: integral ~ 0
    assert objective([(0.0, 0.0, 0.0, 0.0), ()], cosine_problem) >= PENALTY_SCALE
    # rank below the minimum usable rank of the second slot (naive 1/4 has c=5)
    low_rank = OptimizationProblem(
        family=G.SO_EVEN,
        rank=4,
        bases=(
            GeneratorBasis("cosine-series", dimension=4, half_support=0.125),
            naive_quarter,
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
    res = search(mixed_problem, restarts=1, seed=3, max_evals=5)
    assert res.bound == pytest.approx(MIXED_R100, rel=1e-3)
    assert res.coefficients == ((), ())
    assert len(res.trace) == 1


@pytest.mark.slow
def test_search_improves_and_is_deterministic(cosine_problem):
    settings = dict(restarts=2, seed=7, max_evals=60)
    res = search(cosine_problem, **settings)
    again = search(cosine_problem, **settings)
    assert res.bound == again.bound
    assert [t.final_value for t in res.trace] == [t.final_value for t in again.trace]
    # improvement: never worse than any restart's starting point
    assert all(res.bound <= t.start_value for t in res.trace)
    # feasibility: the winner is a real bound, not a penalty value
    assert res.bound < 1.0


def test_search_evaluates_each_start_point_once(cosine_problem, monkeypatch):
    # the benchmark's search op: 2 restarts of at most 30 evaluations, seed 1
    calls = []

    def recording(coeffs_per_slot, problem):
        value = objective(coeffs_per_slot, problem)
        calls.append((coeffs_per_slot, value))
        return value

    monkeypatch.setattr(optimize, "objective", recording)
    res = search(cosine_problem, restarts=2, seed=1, max_evals=30)
    assert len(calls) == sum(t.evaluations for t in res.trace) == 60
    first = 0
    for t in res.trace:
        # the start value is the simplex's first call, and that point is not called again next
        assert t.start_value == calls[first][1]
        assert calls[first + 1][0] != calls[first][0]
        first += t.evaluations


def test_search_computes_each_spec_pair_once(cosine_problem, monkeypatch):
    # the README search at 30 evaluations a restart reads the fixed
    # naive:v=1/4 pair at every feasible point; the process computes it, and
    # every other spec pair the search reads, once
    pairs = []
    sigma2 = moments.sigma2

    def recording(a, b):
        pairs.append(frozenset((a.spec_string, b.spec_string)))
        return sigma2(a, b)

    monkeypatch.setattr(moments, "sigma2", recording)
    search(cosine_problem, restarts=2, seed=1, max_evals=30)
    assert pairs.count(frozenset({"naive:v=0.25"})) > 30
    assert testfunc._pair_integral.cache_info().misses == len(set(pairs)) < len(pairs)


def test_search_raises_when_nothing_feasible(naive_quarter):
    problem = OptimizationProblem(
        family=G.SO_EVEN,
        rank=4,  # below the naive quarter's minimum usable rank 5
        bases=(
            GeneratorBasis("cosine-series", dimension=2, half_support=0.125),
            naive_quarter,
        ),
        support_budget=0.25,
        regime="mock_gaussian",
    )
    with pytest.raises(NoFeasiblePointError):
        search(problem, restarts=1, seed=0, max_evals=8)


def test_problem_validation(naive_quarter):
    with pytest.raises(ValueError, match="at least one slot"):
        OptimizationProblem(G.SO_EVEN, 100, (), 0.25)
    with pytest.raises(ValueError, match="budget"):
        OptimizationProblem(
            G.SO_EVEN,
            100,
            (_sinx2(0.2), naive_quarter),
            0.25,
        )
    with pytest.raises(ValueError, match="support hypothesis"):
        OptimizationProblem(
            G.SO_EVEN,
            100,
            (_sinx2(0.3), naive_quarter),
            0.6,
        )


def test_moment_order_is_twice_the_slot_count(naive_quarter):
    basis = GeneratorBasis("cosine-series", dimension=2, half_support=0.125)
    problem = OptimizationProblem(G.SO_EVEN, 100, (basis, naive_quarter, basis), 0.25)
    assert problem.moment_order == 6
    assert problem.n_params == 4
    assert problem.split_params((1.0, 2.0, 3.0, 4.0)) == [(1.0, 2.0), (), (3.0, 4.0)]


def test_unknown_regime_is_refused(naive_quarter):
    with pytest.raises(ValueError, match="regime must be one of"):
        OptimizationProblem(
            G.SO_EVEN, 100, (naive_quarter, naive_quarter), 0.25,
            regime="bogus",
        )


def test_basis_validation():
    with pytest.raises(ValueError):
        GeneratorBasis("fixed")
    with pytest.raises(ValueError):
        GeneratorBasis("cosine-series", dimension=0, half_support=0.1)
    basis = GeneratorBasis("cosine-series", dimension=3, half_support=0.1)
    assert basis.support_bound == pytest.approx(0.2)
    with pytest.raises(ValueError, match="unknown basis kind"):
        GeneratorBasis("sin-of-square", half_support=0.1)
