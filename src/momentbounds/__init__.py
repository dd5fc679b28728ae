"""Upper bounds on central vanishing orders for orthogonal families,
via density expectations and centered moments of random-matrix linear
statistics, with a generator-space optimizer and Monte Carlo
verification."""

from .bounds import (
    BoundResult,
    ParityError,
    RankTooSmallError,
    UncertifiedBoundError,
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
    MomentRequest,
    MomentResult,
    SupportRegimeError,
    centered_moment,
    r_term,
)
from .optimize import (
    GeneratorBasis,
    NoFeasiblePointError,
    OptimizationProblem,
    objective,
    search,
)
from .rmt import (
    EnsembleSpec,
    EmpiricalMoments,
    empirical_moments,
    linear_statistic,
    predicted_moment,
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
    "BoundResult",
    "EmpiricalMoments",
    "EnsembleSpec",
    "GeneratorBasis",
    "GeneratorSpec",
    "MomentRequest",
    "MomentResult",
    "NoFeasiblePointError",
    "OptimizationProblem",
    "ParityError",
    "RankTooSmallError",
    "SupportRegimeError",
    "SymmetryGroup",
    "TestFunction",
    "UncertifiedBoundError",
    "bound_level1",
    "bound_level2",
    "bound_moment",
    "centered_moment",
    "empirical_moments",
    "expectation_1level",
    "expectation_2level",
    "from_spec_string",
    "linear_statistic",
    "make_from_generator",
    "make_naive",
    "min_rank",
    "objective",
    "predicted_moment",
    "r_term",
    "reproduce_table",
    "search",
    "sigma2",
    "verify_moments",
]
