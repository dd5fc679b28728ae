"""Bound pipeline: coefficients, golden tables, candidate selection."""

import pytest

from momentbounds import (
    BoundCandidate,
    ParityError,
    RankTooSmallError,
    SymmetryGroup,
    best_bound,
    bound_level1,
    bound_level2,
    bound_moment,
    make_from_generator,
    make_naive,
    reproduce_table,
)
from momentbounds.bounds import NoValidCandidateError, level2_coefficient, table_tolerance
from momentbounds.reference import expectation_level1, expectation_level2, table_cells
from momentbounds.testfunc import GeneratorSpec

G = SymmetryGroup


# ---- level-1 bounds ----


def test_level1_reference_even():
    res = bound_level1(None, G.SO_EVEN, 10, expectation=0.86454)
    assert res.upper_bound == pytest.approx(0.086454, rel=1e-12)
    assert res.method == "level1"


def test_level1_reference_odd():
    res = bound_level1(None, G.SO_ODD, 5, expectation=1.11454)
    assert res.upper_bound == pytest.approx(0.222908, rel=1e-10)


def test_level1_computed_from_naive(naive_one):
    res = bound_level1(naive_one, G.SO_EVEN, 6)
    assert res.upper_bound == pytest.approx(1.5 / 6.0, rel=1e-10)


def test_level1_parity_and_family_errors(naive_one):
    with pytest.raises(ParityError):
        bound_level1(naive_one, G.SO_EVEN, 5)
    with pytest.raises(ParityError):
        bound_level1(naive_one, G.SO_ODD, 6)
    with pytest.raises(ValueError):
        bound_level1(naive_one, G.U, 2)
    with pytest.raises(ValueError):
        bound_level1(naive_one, G.SO_ODD, 0)


# ---- level-2 bounds ----


def test_level2_coefficients():
    assert level2_coefficient(6) == 24
    assert level2_coefficient(8) == 48
    assert level2_coefficient(9) == 64
    assert level2_coefficient(2) == 0
    assert level2_coefficient(1) == 0


def test_level2_reference_values():
    res = bound_level2(None, None, G.SO_EVEN, 8, expectation=0.378449)
    assert res.upper_bound == pytest.approx(0.00788434, rel=2e-6)
    res = bound_level2(None, None, G.SO_ODD, 7, expectation=expectation_level2(G.SO_ODD))
    assert res.upper_bound == pytest.approx(0.0299746, rel=1e-5)


def test_level2_zero_coefficient_rejected(naive_one):
    with pytest.raises(ValueError, match="coefficient"):
        bound_level2(None, None, G.SO_EVEN, 2, expectation=1.0)


# ---- moment bounds ----


def test_moment_bound_table2_rows(naive_third):
    slots = (naive_third, naive_third)
    for rank, printed in ((20, 4.49988e-6), (50, 7.13387e-8), (6, 0.00853841)):
        res = bound_moment(slots, G.SO_EVEN, rank, regime="with_R")
        assert res.upper_bound == pytest.approx(printed, rel=1e-4)
        assert res.method == "moment4"
        assert res.moment_value == pytest.approx(1.0 / 3.0 + 1.0 / 5040.0, abs=1e-9)


def test_moment_bound_minimum_rank_error(naive_third):
    # c for the 1/3 function is 4: rank 4 works (even family), rank 2 does not
    res = bound_moment((naive_third, naive_third), G.SO_EVEN, 4, regime="with_R")
    assert res.upper_bound > 0
    # denominator (4 - 3.5)^4 = 1/16
    assert res.denominator == pytest.approx(1.0 / 16.0, rel=1e-12)
    with pytest.raises(RankTooSmallError, match="minimum usable rank"):
        bound_moment((naive_third, naive_third), G.SO_EVEN, 2, regime="with_R")


def test_moment_bound_parity(naive_third):
    with pytest.raises(ParityError):
        bound_moment((naive_third, naive_third), G.SO_ODD, 20, regime="with_R")


def test_rank_monotonicity(naive_third):
    slots = (naive_third, naive_third)
    bounds = [
        bound_moment(slots, G.SO_EVEN, r, regime="with_R").upper_bound
        for r in (6, 8, 10, 20, 50)
    ]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    lev1 = [bound_level1(None, G.SO_EVEN, r, expectation=0.86454).upper_bound for r in (6, 8, 10)]
    assert lev1[0] > lev1[1] > lev1[2]


def test_scale_invariance_of_bounds():
    # g -> c g scales the test function by c^2; every bound is invariant.
    # The supports of four such functions sum to 4/3, so R enters the moment.
    def bounds(c):
        tf = make_from_generator(GeneratorSpec("polynomial", (c,), 1.0 / 6.0))
        return (
            bound_moment((tf, tf), G.SO_EVEN, 20, regime="with_R").upper_bound,
            bound_level1(tf, G.SO_EVEN, 6).upper_bound,
            bound_level2(tf, tf, G.SO_EVEN, 6).upper_bound,
        )

    reference = bounds(1.0)
    for c in (1e-2, 3.0):
        assert bounds(c) == pytest.approx(reference, rel=1e-10, abs=0)


def test_with_r_equals_mock_gaussian_when_supports_sum_to_one(gen_sinx2):
    # four copies of support 1/4: R vanishes identically
    slots = (gen_sinx2, gen_sinx2)
    with_r = bound_moment(slots, G.SO_EVEN, 20, regime="with_R")
    mock = bound_moment(slots, G.SO_EVEN, 20, regime="mock_gaussian")
    assert with_r.upper_bound == mock.upper_bound
    assert with_r.upper_bound == pytest.approx(3.09e-5, rel=1e-3)


def test_indicator_generator_matches_naive_bound(naive_third):
    # generator route to the same bound: indicator on (-1/6, 1/6) is the
    # 1/3 triangle up to scale
    gen = make_from_generator(GeneratorSpec("polynomial", (1.0,), 1.0 / 6.0))
    direct = bound_moment((naive_third, naive_third), G.SO_EVEN, 20, regime="with_R").upper_bound
    via_gen = bound_moment((gen, gen), G.SO_EVEN, 20, regime="with_R").upper_bound
    assert via_gen == pytest.approx(direct, rel=1e-8)


def test_tail_dominance(naive_third, naive_one):
    # moment4 < level2 < level1 for the same naive inputs across the
    # even-family table range
    for r in (8, 10, 20, 50):
        m4 = bound_moment((naive_third, naive_third), G.SO_EVEN, r, regime="with_R").upper_bound
        l2 = bound_level2(naive_one, naive_one, G.SO_EVEN, r).upper_bound
        l1 = bound_level1(naive_one, G.SO_EVEN, r).upper_bound
        assert m4 < l2 < l1


# ---- best_bound ----


def test_best_bound_odd_rank5(naive_third):
    candidates = [
        BoundCandidate("level1"),
        BoundCandidate("level2"),
        BoundCandidate("moment", (naive_third, naive_third), regime="with_R"),
    ]
    res = best_bound(5, G.SO_ODD, candidates)
    assert res.method == "moment4"
    assert res.upper_bound == pytest.approx(0.0658044, rel=1e-4)


def test_best_bound_skips_infeasible(naive_third):
    # rank 4 is exactly the minimum usable rank: the moment candidate is valid
    candidates = [BoundCandidate("moment", (naive_third, naive_third), regime="with_R")]
    res = best_bound(4, G.SO_EVEN, candidates)
    assert res.upper_bound == pytest.approx((1.0 / 3.0 + 1.0 / 5040.0) * 16.0, rel=1e-6)


def test_best_bound_empty_and_all_rejected(naive_third):
    with pytest.raises(NoValidCandidateError):
        best_bound(6, G.SO_EVEN, [])
    with pytest.raises(NoValidCandidateError) as excinfo:
        best_bound(
            2,
            G.SO_EVEN,
            [BoundCandidate("moment", (naive_third, naive_third), regime="with_R")],
        )
    assert "minimum usable rank" in str(excinfo.value)


# ---- golden tables ----


@pytest.mark.parametrize("table", ["T1", "T2", "T3", "T4", "T5"])
def test_reproduce_tables_within_print_precision(table):
    cells = reproduce_table(table)
    assert cells, "table produced no cells"
    printed = {(c.rank, c.column) for c in table_cells(table)}
    assert {(c.rank, c.column) for c in cells} == printed
    for cell in cells:
        tol = table_tolerance(cell)
        assert abs(cell.rel_dev) <= tol, (
            f"{table} r={cell.rank} {cell.column}: computed {cell.computed:.8e} "
            f"vs printed {cell.printed} (rel dev {cell.rel_dev:.2e} > {tol:.2e})"
        )


def test_row_constant_products_match_reference_constants():
    # within each table the level columns are a single expectation divided
    # by the rank coefficient; products recover the stored constants
    for table in ("T2", "T5"):
        for cell in table_cells(table):
            if cell.column == "level1":
                constant = expectation_level1(cell.family)
                product = cell.value * cell.rank
            elif cell.column == "level2":
                constant = expectation_level2(cell.family)
                product = cell.value * level2_coefficient(cell.rank)
            else:
                continue
            tol = max(5e-5, 1.5 * cell.print_ulp / abs(cell.value))
            assert abs(product - constant) / constant <= tol
