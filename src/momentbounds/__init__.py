"""Upper bounds on central vanishing orders for orthogonal families,
via density expectations and centered moments of random-matrix linear
statistics, with a generator-space optimizer and Monte Carlo
verification."""

from .bounds import (
    BoundCandidate,
    BoundResult,
    ParityError,
    RankTooSmallError,
    best_bound,
    bound_level1,
    bound_level2,
    bound_moment,
    reproduce_table,
)
from .kernels import (
    SymmetryGroup,
    expectation_1level,
    expectation_2level,
)
from .moments import (
    Matching,
    MomentRequest,
    MomentResult,
    SupportRegimeError,
    centered_moment,
    enumerate_matchings,
    r_term,
)
from .optimize import (
    GeneratorBasis,
    NoFeasiblePointError,
    OptimizationProblem,
    SearchSettings,
    objective,
    search,
)
from .quadrature import (
    QuadratureError,
    QuadratureSettings,
    integrate,
)
from .rmt import (
    EnsembleSpec,
    EmpiricalMoments,
    empirical_moments,
    linear_statistic,
    predicted_moment,
    sample_haar,
    verify_moments,
)
from .testfunc import (
    GeneratorSpec,
    TestFunction,
    from_spec_string,
    make_from_generator,
    make_naive,
    min_rank,
    sigma2,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCandidate",
    "BoundResult",
    "EmpiricalMoments",
    "EnsembleSpec",
    "GeneratorBasis",
    "GeneratorSpec",
    "Matching",
    "MomentRequest",
    "MomentResult",
    "NoFeasiblePointError",
    "OptimizationProblem",
    "ParityError",
    "QuadratureError",
    "QuadratureSettings",
    "RankTooSmallError",
    "SearchSettings",
    "SupportRegimeError",
    "SymmetryGroup",
    "TestFunction",
    "best_bound",
    "bound_level1",
    "bound_level2",
    "bound_moment",
    "centered_moment",
    "empirical_moments",
    "enumerate_matchings",
    "expectation_1level",
    "expectation_2level",
    "from_spec_string",
    "integrate",
    "linear_statistic",
    "make_from_generator",
    "make_naive",
    "min_rank",
    "objective",
    "predicted_moment",
    "r_term",
    "reproduce_table",
    "sample_haar",
    "search",
    "sigma2",
    "verify_moments",
]
