"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion; each test also prints a [criterion N] summary line.
"""

import itertools

import pytest

from momentbounds import (
    GeneratorBasis,
    MomentRequest,
    OptimizationProblem,
    ParityError,
    SearchSettings,
    SymmetryGroup,
    bound_level1,
    bound_moment,
    centered_moment,
    enumerate_matchings,
    make_from_generator,
    make_naive,
    search,
    sigma2,
)
from momentbounds.bounds import level2_coefficient
from momentbounds.moments import double_factorial
from momentbounds.reference import expectation_level1, expectation_level2, table_cells
from momentbounds.rmt import EnsembleSpec, verify_moments
from momentbounds.testfunc import GeneratorSpec

G = SymmetryGroup


@pytest.fixture(scope="module")
def naive_slots():
    tf = make_naive(1.0 / 3.0)
    return (tf, tf)


@pytest.fixture(scope="module")
def mixed_slots():
    return (
        make_from_generator(GeneratorSpec("sin-of-square", (), 0.125)),
        make_naive(0.25),
    )


def test_criterion_1_even_family_naive_moment_column(naive_slots):
    """Tables 2-3, fourth-moment naive column, +R sign, 1e-4 relative."""
    expected = {
        6: 0.00853841,
        8: 0.00081336,
        10: 0.00018684,
        20: 4.49988e-6,
        50: 7.13387e-8,
        100: 3.84617e-9,
        200: 2.23711e-10,
        300: 4.31557e-11,
        800: 8.28694e-13,
        900: 5.16340e-13,
        1000: 3.38242e-13,
        2020: 2.01718e-14,
    }
    worst = 0.0
    for rank, printed in expected.items():
        got = bound_moment(naive_slots, G.SO_EVEN, rank, regime="with_R").upper_bound
        dev = abs(got - printed) / printed
        worst = max(worst, dev)
        assert dev <= 1e-4, (rank, got, printed)
    print(f"[criterion 1] PASS: {len(expected)} even-family naive cells, worst rel dev {worst:.2e}")


def test_criterion_2_odd_family_naive_moment_column(naive_slots):
    """Tables 4-5, fourth-moment naive column, -R sign, 1e-4 relative."""
    expected = {49: 7.77275e-8, 999: 3.39199e-13}
    worst = 0.0
    for rank, printed in expected.items():
        got = bound_moment(naive_slots, G.SO_ODD, rank, regime="with_R").upper_bound
        dev = abs(got - printed) / printed
        worst = max(worst, dev)
        assert dev <= 1e-4, (rank, got, printed)
    print(f"[criterion 2] PASS: odd-family naive cells at ranks 49, 999, worst rel dev {worst:.2e}")


def test_criterion_3_mixed_pair_mock_gaussian_column(mixed_slots):
    """Tables 3/5 mixed column in the mock-Gaussian regime, 1e-3 relative."""
    cases = [
        (G.SO_EVEN, 100, 3.7858e-9),
        (G.SO_EVEN, 1000, 3.0144e-13),
        (G.SO_ODD, 99, 3.95151e-9),
    ]
    worst = 0.0
    for family, rank, printed in cases:
        got = bound_moment(mixed_slots, family, rank, regime="mock_gaussian").upper_bound
        dev = abs(got - printed) / printed
        worst = max(worst, dev)
        assert dev <= 1e-3, (family, rank, got, printed)
    print(f"[criterion 3] PASS: mixed-pair cells at ranks 100/1000/99, worst rel dev {worst:.2e}")


def test_criterion_4_minimum_rank_constant(mixed_slots):
    """(phihat(0) + phi(0)/2) / phi(0) for the sin(x^2) generator."""
    gen = mixed_slots[0]
    ratio = (gen.phihat0 + 0.5 * gen.phi0) / gen.phi0
    assert ratio == pytest.approx(7.69993, abs=1e-4)
    print(f"[criterion 4] PASS: threshold constant {ratio:.6f} vs 7.69993")


def test_criterion_5_level_columns_row_constant():
    """bound*rank and bound*coefficient are row-constant, recovering the
    reference expectations (which are inputs, not reproduced)."""
    assert expectation_level1(G.SO_EVEN) == pytest.approx(0.86454, rel=1e-4)
    assert expectation_level2(G.SO_EVEN) == pytest.approx(0.378449, rel=1e-4)
    checked = 0
    for table in ("T1", "T2", "T3", "T4", "T5"):
        for cell in table_cells(table):
            if cell.column == "level1":
                constant = expectation_level1(cell.family)
                product = cell.value * cell.rank
            elif cell.column == "level2":
                constant = expectation_level2(cell.family)
                product = cell.value * level2_coefficient(cell.rank)
            else:
                continue
            # 5-figure agreement, widened to print precision for cells
            # published with fewer digits
            tol = max(5e-5, 1.5 * cell.print_ulp / abs(cell.value))
            assert abs(product - constant) / constant <= tol, (table, cell.rank, cell.column)
            checked += 1
    print(f"[criterion 5] PASS: {checked} level-column cells row-constant around the reference expectations")


def test_criterion_6_property_suite(naive_slots):
    """Combinatorics, scale invariance, reductions, parity rejection."""
    # matching counts (2m-1)!! for m <= 6
    for m in range(1, 7):
        assert len(enumerate_matchings(2 * m)) == double_factorial(2 * m - 1)
    # sigma2 scale invariance across the naive family
    for v in (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5, 1.0):
        tf = make_naive(v)
        assert sigma2(tf, tf) == pytest.approx(1.0 / 3.0, abs=1e-10)
    # generalized moment reduces to the identical-function form
    tf = naive_slots[0]
    res = centered_moment(MomentRequest((tf,) * 4, G.SO_EVEN, regime="with_R"))
    s2 = sigma2(tf, tf)
    assert res.matching_sum == pytest.approx(3.0 * s2 * s2, abs=1e-10)
    assert res.value == pytest.approx(3.0 * s2 * s2 + res.r_term, abs=1e-12)
    # permutation invariance
    a, b = make_naive(0.25), tf
    base = (a, a, b, b)
    ref = centered_moment(MomentRequest(base, G.SO_EVEN, regime="with_R")).value
    for perm in set(itertools.permutations(base)):
        got = centered_moment(MomentRequest(perm, G.SO_EVEN, regime="with_R")).value
        assert got == pytest.approx(ref, abs=1e-12)
    # rank monotonicity
    values = [
        bound_moment(naive_slots, G.SO_EVEN, r, regime="with_R").upper_bound
        for r in (6, 8, 10, 20, 50)
    ]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    # scale invariance of the bound under generator rescaling
    scaled = []
    for c in (1e-2, 1.0, 3.0):
        tf = make_from_generator(GeneratorSpec("polynomial", (c,), 1.0 / 6.0))
        scaled.append(bound_moment((tf, tf), G.SO_EVEN, 20, regime="with_R").upper_bound)
    assert scaled == pytest.approx([scaled[1]] * 3, rel=1e-9, abs=0)
    assert scaled[1] == pytest.approx(
        bound_moment(naive_slots, G.SO_EVEN, 20, regime="with_R").upper_bound, rel=1e-8, abs=0
    )
    # parity rejection
    with pytest.raises(ParityError):
        bound_moment(naive_slots, G.SO_ODD, 20, regime="with_R")
    with pytest.raises(ParityError):
        bound_level1(None, G.SO_EVEN, 5, expectation=0.86454)
    print("[criterion 6] PASS: matchings, sigma2 invariance, reduction, permutation, monotonicity, scaling, parity")


@pytest.mark.slow
def test_criterion_7_monte_carlo_mock_gaussian(naive_slots):
    """SO(2N) and SO(2N+1) at N=40, 2e5 samples: centered moments of
    orders 2, 3, 4 match predictions within 3 standard errors plus the
    calibrated finite-size allowance."""
    tf = naive_slots[0]
    lines = []
    for group, seed in ((G.SO_EVEN, 7), (G.SO_ODD, 8)):
        spec = EnsembleSpec(group, 40, 200_000, seed=seed)
        comparisons = verify_moments(spec, tf, (2, 3, 4))
        for comp in comparisons:
            assert comp.passed, (group, comp)
            lines.append(
                f"{group.value} order {comp.order}: emp {comp.empirical:+.6f} "
                f"pred {comp.predicted:+.6f} band {comp.allowance:.5f} z {comp.z_score:+.2f}"
            )
    print("[criterion 7] PASS: " + "; ".join(lines))


@pytest.mark.slow
def test_criterion_8_optimizer_regression(mixed_slots, naive_slots):
    """Search finds the published mixed pair; the naive-only space
    returns the tables' naive value."""
    fixed_quarter = GeneratorBasis("fixed", fixed_function=mixed_slots[1])
    with_pair = OptimizationProblem(
        family=G.SO_EVEN,
        rank=100,
        moment_order=4,
        bases=(GeneratorBasis("sin-of-square", half_support=0.125), fixed_quarter),
        support_budget=0.25,
        regime="mock_gaussian",
    )
    res_pair = search(with_pair, SearchSettings(restarts=1, seed=5, max_evals=10))
    assert res_pair.bound <= 3.7858e-9 * (1.0 + 1e-3)

    naive_only = OptimizationProblem(
        family=G.SO_EVEN,
        rank=100,
        moment_order=4,
        bases=(
            GeneratorBasis("fixed", fixed_function=naive_slots[0]),
            GeneratorBasis("fixed", fixed_function=naive_slots[1]),
        ),
        support_budget=1.0 / 3.0,
        regime="with_R",
    )
    res_naive = search(naive_only, SearchSettings(restarts=1, seed=5, max_evals=10))
    assert res_naive.bound == pytest.approx(3.84617e-9, rel=1e-4)
    print(
        f"[criterion 8] PASS: pair search {res_pair.bound:.5e} <= 3.7858e-9(1+1e-3); "
        f"naive-only search {res_naive.bound:.6e} vs 3.84617e-9"
    )
