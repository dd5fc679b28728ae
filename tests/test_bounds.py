"""Bound pipeline: coefficients and golden tables."""

import json
import math
import warnings

import pytest

from momentbounds import (
    MomentResult,
    ParityError,
    RankTooSmallError,
    SupportRegimeError,
    SymmetryGroup,
    UncertifiedBoundError,
    bound_level1,
    bound_level2,
    bound_moment,
    make_from_generator,
    make_naive,
    reproduce_table,
)
from momentbounds import bounds as bounds_module
from momentbounds.bounds import level2_coefficient
from momentbounds.reference import expectation_level1, expectation_level2, table_cells
from momentbounds.testfunc import GeneratorSpec, from_spec_string

G = SymmetryGroup


# ---- level-1 bounds ----


def test_level1_reference_even():
    (res,) = bound_level1(None, G.SO_EVEN, [10])
    assert res.test_functions == ("reference:so-even:level1",)
    assert res.upper_bound == pytest.approx(0.086454, rel=1e-12)
    assert res.method == "level1"


def test_level1_reference_odd():
    (res,) = bound_level1(None, G.SO_ODD, [5])
    assert res.upper_bound == pytest.approx(0.222908, rel=1e-10)


def test_level1_computed_from_naive(naive_one):
    (res,) = bound_level1(naive_one, G.SO_EVEN, [6])
    assert res.upper_bound == pytest.approx(1.5 / 6.0, rel=1e-10)


@pytest.mark.parametrize(
    "spec, support",
    [("naive:v=3", "3"), ("naive:v=2.000001", "2.000001"), ("gen:poly:1,-1:half=5/4", "2.5")],
)
def test_level1_refuses_a_support_above_two(monkeypatch, spec, support):
    # past support 2 the one-level density theorem gives nothing: naive:v=3
    # reads 0.1528 at rank 4, below the optimum 0.216135 over supports
    # within 2.  A generator too is refused before any expectation
    def refuse(*args):
        raise AssertionError("computed an expectation")

    monkeypatch.setattr(bounds_module, "expectation_1level", refuse)
    tf = from_spec_string(spec)
    with pytest.raises(SupportRegimeError, match=f"^the one-level bound needs a transform support "
                       f"within 2; {tf.spec_string} has support {support}$"):
        bound_level1(tf, G.SO_EVEN, [4])


def test_level1_accepts_support_two():
    # support exactly 2 is inside: the transform vanishes at its end
    (res,) = bound_level1(make_naive(2.0), G.SO_EVEN, [4])
    assert res.upper_bound == 0.21875  # E_1 = 7/8


def test_level1_parity_and_family_errors(naive_one):
    with pytest.raises(ParityError):
        bound_level1(naive_one, G.SO_EVEN, [5])
    with pytest.raises(ParityError):
        bound_level1(naive_one, G.SO_ODD, [6])
    with pytest.raises(ValueError):
        bound_level1(naive_one, G.U, [2])
    with pytest.raises(ValueError):
        bound_level1(naive_one, G.SO_ODD, [0])


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("family,ranks", [(G.SO_EVEN, [6, 10, 8]), (G.SO_ODD, [9, 5, 7])])
def test_level_sweep_matches_one_rank_runs_with_one_expectation(
    monkeypatch, reference, family, ranks
):
    tf = None if reference else make_naive(0.5)
    sweeps = [
        (lambda rs: bound_level1(tf, family, rs), "expectation_level1", "expectation_1level"),
        (lambda rs: bound_level2(tf, tf, family, rs), "expectation_level2", "expectation_2level"),
    ]
    for bound, reference_name, computed_name in sweeps:
        name = reference_name if reference else computed_name
        calls = []
        original = getattr(bounds_module, name)
        monkeypatch.setattr(bounds_module, name, lambda *a, f=original: calls.append(a) or f(*a))
        together = bound(ranks)
        assert len(calls) == 1  # one expectation for all the ranks
        assert [r.rank for r in together] == ranks
        apart = [bound([r])[0] for r in ranks]
        assert [json.dumps(r.record()) for r in together] == [
            json.dumps(r.record()) for r in apart
        ]


# ---- level-2 bounds ----


def test_level2_coefficients():
    assert level2_coefficient(6) == 24
    assert level2_coefficient(8) == 48
    assert level2_coefficient(9) == 64
    assert level2_coefficient(2) == 0
    assert level2_coefficient(1) == 0


def test_level2_reference_values():
    (res,) = bound_level2(None, None, G.SO_EVEN, [8])
    assert res.upper_bound == pytest.approx(0.00788434, rel=2e-6)
    (res,) = bound_level2(None, None, G.SO_ODD, [7])
    assert res.upper_bound == pytest.approx(0.0299746, rel=1e-5)


def test_level2_zero_coefficient_rejected(naive_one):
    with pytest.raises(ValueError, match="coefficient"):
        bound_level2(None, None, G.SO_EVEN, [2])
    with pytest.raises(ValueError, match="two test functions"):
        bound_level2(naive_one, None, G.SO_EVEN, [6])


# ---- moment bounds ----


def test_moment_bound_table2_rows(naive_third):
    slots = (naive_third, naive_third)
    for rank, printed in ((20, 4.49988e-6), (50, 7.13387e-8), (6, 0.00853841)):
        res = bound_moment(slots, G.SO_EVEN, [rank], regime="with_R")[0]
        assert res.upper_bound == pytest.approx(printed, rel=1e-4)
        assert res.method == "moment4"
        assert res.moment_value == pytest.approx(1.0 / 3.0 + 1.0 / 5040.0, abs=1e-9)


def test_moment_bound_minimum_rank_error(naive_third):
    # c for the 1/3 function is 4: rank 4 works (even family), rank 2 does not
    res = bound_moment((naive_third, naive_third), G.SO_EVEN, [4], regime="with_R")[0]
    assert res.upper_bound > 0
    # denominator (4 - 3.5)^4 = 1/16
    assert res.denominator == pytest.approx(1.0 / 16.0, rel=1e-12)
    with pytest.raises(RankTooSmallError, match="minimum usable rank"):
        bound_moment((naive_third, naive_third), G.SO_EVEN, [2], regime="with_R")


def test_moment_bound_parity(naive_third):
    with pytest.raises(ParityError):
        bound_moment((naive_third, naive_third), G.SO_ODD, [20], regime="with_R")


def test_multi_rank_call_matches_one_rank_calls(naive_third, gen_sinx2, moment_calls):
    cases = [
        ((naive_third, naive_third), G.SO_EVEN, [4, 6, 8, 20], "with_R"),
        ((naive_third, naive_third), G.SO_ODD, [9, 5, 7], "with_R"),
        ((gen_sinx2, make_naive(0.25)), G.SO_EVEN, [100, 300, 200], "mock_gaussian"),
    ]
    for slots, family, ranks, regime in cases:
        moment_calls.clear()
        together = bound_moment(slots, family, ranks, regime=regime)
        assert len(moment_calls) == 1  # one moment for all the ranks
        assert [r.rank for r in together] == ranks
        apart = [bound_moment(slots, family, [r], regime=regime)[0] for r in ranks]
        assert [json.dumps(r.record()) for r in together] == [
            json.dumps(r.record()) for r in apart
        ]
    assert bound_moment((naive_third,), G.SO_EVEN, []) == []


def test_rank_errors_name_the_first_failing_rank_in_order(naive_third, moment_calls):
    slots = (naive_third, naive_third)
    with pytest.raises(RankTooSmallError, match="^rank 2 is below"):
        bound_moment(slots, G.SO_EVEN, [6, 2], regime="with_R")
    with pytest.raises(ParityError, match="^rank 5 has the wrong parity"):
        bound_moment(slots, G.SO_EVEN, [6, 5], regime="with_R")
    with pytest.raises(RankTooSmallError, match="^rank 2 is below"):
        bound_moment(slots, G.SO_EVEN, [2, 4], regime="with_R")
    # every rank is checked before the moment is computed
    assert moment_calls == []


@pytest.mark.parametrize("method", ["level1", "level2", "moment"])
def test_repeated_rank_is_refused_before_the_numerator(
    naive_third, moment_calls, monkeypatch, method
):
    # a repeated rank would print its record twice
    def refuse(*args):
        raise RuntimeError("computed an expectation")

    for name in ("expectation_1level", "expectation_2level"):
        monkeypatch.setattr(bounds_module, name, refuse)
    sweeps = {
        "level1": lambda ranks: bound_level1(naive_third, G.SO_EVEN, ranks),
        "level2": lambda ranks: bound_level2(naive_third, naive_third, G.SO_EVEN, ranks),
        "moment": lambda ranks: bound_moment((naive_third,) * 2, G.SO_EVEN, ranks, regime="with_R"),
    }
    with pytest.raises(ValueError, match=r"^rank 6 is repeated in ranks \[6, 4, 6\]$"):
        sweeps[method]([6, 4, 6])
    assert moment_calls == []


@pytest.mark.parametrize(
    "table,moments",
    [
        ("T1", [("so-even", "with_R"), ("so-odd", "with_R")]),  # naive column, both families
        ("T3", [("so-even", "mock_gaussian"), ("so-even", "with_R")]),  # naive and mixed
    ],
)
def test_reproduce_table_computes_one_moment_per_column_and_family(moment_calls, table, moments):
    reproduce_table(table)
    assert sorted((r.family.value, r.regime) for r in moment_calls) == moments


@pytest.mark.parametrize("value", [-1e-20, float("nan"), float("inf")])
def test_negative_or_nonfinite_moment_is_refused(naive_third, monkeypatch, value):
    def bad_moment(request):
        return MomentResult(value, value, 0.0, 1, request.regime)

    monkeypatch.setattr(bounds_module, "centered_moment", bad_moment)
    with pytest.raises(UncertifiedBoundError):
        bound_moment((naive_third, naive_third), G.SO_EVEN, [20], regime="with_R")


_UNCERTIFIED = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-20, 5e-324, 1e-310]


def _level1(tf):
    return bound_level1(tf, G.SO_EVEN, [20, 22])


def _level2(tf):
    return bound_level2(tf, tf, G.SO_EVEN, [20, 22])


def _moment4(tf):
    return bound_moment((tf, tf), G.SO_EVEN, [20, 22], regime="with_R")


@pytest.mark.parametrize("value", _UNCERTIFIED)
@pytest.mark.parametrize(
    "method, attr, name",
    [(_level1, "expectation_1level", "expectation"), (_level2, "expectation_2level", "expectation"),
     (_moment4, "centered_moment", "moment")],
)
def test_sweep_refuses_every_uncertified_numerator(naive_third, monkeypatch, method, attr, name, value):
    # each bound's numerator goes through the one sweep, which refuses it by name
    if name == "moment":
        fake = lambda request: MomentResult(value, value, 0.0, 1, request.regime)  # noqa: E731
    else:
        fake = lambda *args: value  # noqa: E731
    monkeypatch.setattr(bounds_module, attr, fake)
    with pytest.raises(UncertifiedBoundError, match=f"^{name} {value!r} of naive:v="):
        method(naive_third)


@pytest.mark.parametrize("value", _UNCERTIFIED)
@pytest.mark.parametrize("method", ["level1", "level2", "moment4"])
def test_sweep_refuses_every_uncertified_denominator(method, value):
    # before the numerator is computed
    def numerator():
        raise AssertionError("numerator computed after a bad denominator")

    with pytest.raises(UncertifiedBoundError, match=f"^denominator {value!r} of f at rank 4 "):
        bounds_module._sweep(method, ("f",), G.SO_EVEN, [4], lambda r: value, numerator)


@pytest.mark.parametrize("numerator, denominator", [(1e-300, 1e100), (1e300, 1e-100)])
def test_sweep_refuses_a_quotient_outside_the_double_range(numerator, denominator):
    # both certified, but the bound itself would print 0.0 or inf
    with pytest.raises(UncertifiedBoundError, match="^upper bound .* at rank 4 "):
        bounds_module._sweep("moment4", ("f",), G.SO_EVEN, [4], lambda r: denominator,
                             lambda: numerator)


def test_level2_expectation_overflowing_on_the_way_is_refused():
    # phihat of gen:cos:1e100 is about 1e200, so E_2's products overflow:
    # refused by name with no floating-point warning, never printed as NaN
    tf = from_spec_string("gen:cos:1e100:half=1/6")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UncertifiedBoundError, match="^expectation of gen:cos:1e\\+100"):
            bound_level2(tf, tf, G.SO_EVEN, [20])
    assert bound_level1(tf, G.SO_EVEN, [20])[0].upper_bound == pytest.approx(0.175, rel=1e-12)


def test_rank_monotonicity(naive_third):
    slots = (naive_third, naive_third)
    bounds = [
        bound_moment(slots, G.SO_EVEN, [r], regime="with_R")[0].upper_bound
        for r in (6, 8, 10, 20, 50)
    ]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    lev1 = [res.upper_bound for res in bound_level1(None, G.SO_EVEN, [6, 8, 10])]
    assert lev1[0] > lev1[1] > lev1[2]


def test_scale_invariance_of_bounds():
    # g -> c g scales the test function by c^2; every bound is invariant.
    # The supports of four such functions sum to 4/3, so R enters the moment.
    def bounds(c):
        tf = make_from_generator(GeneratorSpec("polynomial", (c,), 1.0 / 6.0))
        return (
            bound_moment((tf, tf), G.SO_EVEN, [20], regime="with_R")[0].upper_bound,
            bound_level1(tf, G.SO_EVEN, [6])[0].upper_bound,
            bound_level2(tf, tf, G.SO_EVEN, [6])[0].upper_bound,
        )

    reference = bounds(1.0)
    for c in (1e-2, 3.0):
        assert bounds(c) == pytest.approx(reference, rel=1e-10, abs=0)


def _cos_bound(coeffs, half, rank, slots, regime):
    tf = from_spec_string(f"gen:cos:{coeffs}:half={half}")
    return bound_moment((tf,) * slots, G.SO_EVEN, [rank], regime=regime)[0].upper_bound


@pytest.mark.parametrize("regime", ["with_R", "mock_gaussian"])
def test_scale_invariance_far_from_one(regime):
    # c = 1e-30 and 1e30 move phi(0) by 1e-60 and 1e60, the moment and
    # the denominator by 1e-240 and 1e240; their quotient stays put
    reference = _cos_bound("1", "1/6", 20, 2, regime)
    for c in ("1e-30", "1e30"):
        assert _cos_bound(c, "1/6", 20, 2, regime) == pytest.approx(reference, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "coeffs, half, rank, slots, regime, reason",
    [
        # the denominator is subnormal and the moment rounds to 0.0: the
        # quotient printed 0.0
        ("1e-40", "1/6", 20, 2, "with_R", "denominator 1.12973e-319"),
        # the denominator rounds to 0.0: the quotient divided by zero
        ("1e-60", "1/6", 20, 2, "with_R", "denominator 0.0"),
        ("1e-40,3e-41,-2e-41", "1/20", 30, 4, "mock_gaussian", "denominator 0.0"),
        ("1e60", "1/6", 20, 2, "with_R", "denominator inf"),
        # rank 4 sits just above this generator's minimum usable rank, so
        # its margins are small: the moment overflows, the denominator not
        ("3e39,-2.1573e39", "1/6", 4, 2, "with_R", "overflows"),
        ("3e39,-2.1573e39", "1/6", 4, 2, "mock_gaussian", "moment inf"),
    ],
)
def test_bound_outside_the_double_range_is_refused(coeffs, half, rank, slots, regime, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UncertifiedBoundError, match=reason):
            _cos_bound(coeffs, half, rank, slots, regime)


def test_with_r_equals_mock_gaussian_when_supports_sum_to_one(gen_sinx2):
    # four copies of support 1/4: R vanishes identically
    slots = (gen_sinx2, gen_sinx2)
    with_r = bound_moment(slots, G.SO_EVEN, [20], regime="with_R")[0]
    mock = bound_moment(slots, G.SO_EVEN, [20], regime="mock_gaussian")[0]
    assert with_r.upper_bound == mock.upper_bound
    assert with_r.upper_bound == pytest.approx(3.09e-5, rel=1e-3)


def test_indicator_generator_matches_naive_bound(naive_third):
    # generator route to the same bound: indicator on (-1/6, 1/6) is the
    # 1/3 triangle up to scale
    gen = make_from_generator(GeneratorSpec("polynomial", (1.0,), 1.0 / 6.0))
    direct = bound_moment(
        (naive_third, naive_third), G.SO_EVEN, [20], regime="with_R"
    )[0].upper_bound
    via_gen = bound_moment((gen, gen), G.SO_EVEN, [20], regime="with_R")[0].upper_bound
    assert via_gen == pytest.approx(direct, rel=1e-8)


def test_tail_dominance(naive_third, naive_one):
    # moment4 < level2 < level1 for the same naive inputs across the
    # even-family table range
    for r in (8, 10, 20, 50):
        m4 = bound_moment(
            (naive_third, naive_third), G.SO_EVEN, [r], regime="with_R"
        )[0].upper_bound
        l2 = bound_level2(naive_one, naive_one, G.SO_EVEN, [r])[0].upper_bound
        l1 = bound_level1(naive_one, G.SO_EVEN, [r])[0].upper_bound
        assert m4 < l2 < l1


# ---- golden tables ----


@pytest.mark.parametrize("table", ["T1", "T2", "T3", "T4", "T5"])
def test_reproduce_tables_within_print_precision(table):
    cells = reproduce_table(table)
    assert cells, "table produced no cells"
    printed = {(c.rank, c.column) for c in table_cells(table)}
    assert {(c.rank, c.column) for c in cells} == printed
    for cell in cells:
        assert cell.within_tolerance, (
            f"{table} r={cell.rank} {cell.column}: computed {cell.computed:.8e} "
            f"vs printed {cell.printed} (rel dev {cell.rel_dev:.2e} > {cell.tolerance:.2e})"
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


# ---- the abstract's claims, against printed table cells ----


def _printed(table, rank, column):
    (cell,) = [c for c in table_cells(table) if (c.rank, c.column) == (rank, column)]
    return cell.value


def test_claim_improvement_as_early_as_rank_5(naive_third):
    """"Improvement as early as the 5th order": at rank 5 (so-odd) the fourth
    moment bound is below the two-level one, printed and computed."""
    moment4, level2 = _printed("T1", 5, "moment4_naive"), _printed("T1", 5, "level2")
    assert moment4 < level2
    (computed,) = bound_moment([naive_third] * 2, G.SO_ODD, [5], regime="with_R")
    (two_level,) = bound_level2(None, None, G.SO_ODD, [5])
    assert computed.upper_bound == pytest.approx(moment4, rel=1e-4)
    assert two_level.upper_bound == pytest.approx(level2, rel=1e-4)
    assert computed.upper_bound < two_level.upper_bound


@pytest.mark.parametrize(
    "rank,slots,v,expected,factor",
    [
        (10, 4, 3 / 16, 1.4269e-5, 1e1),
        (50, 12, 1 / 16, 1.491e-31, 1e4),
        (50, 23, 3 / 92, 6.0806e-42, 1e34),
    ],
)
def test_claim_higher_moments_beat_the_fourth_by_orders_of_magnitude(
    rank, slots, v, expected, factor
):
    """"More than one order of magnitude better for rank 10 and more than four
    orders of magnitude for rank 50": the 8th, 24th and 46th moments of naive
    slots in the mock_gaussian regime against Table 2's fourth-moment cell
    (so-even).  At rank 50 the 46th moment, each slot at the widest support
    3/92 the regime admits, is the best naive order: 34 orders of magnitude."""
    (res,) = bound_moment([make_naive(v)] * slots, G.SO_EVEN, [rank], regime="mock_gaussian")
    assert res.method == f"moment{2 * slots}"
    assert res.upper_bound == pytest.approx(expected, rel=1e-4)
    assert res.upper_bound * factor < _printed("T2", rank, "moment4_naive")
