"""Upper bounds on the proportion of forms vanishing to order at least r.

Every bound has the shape  numerator / denominator  where the numerator
is a density expectation or a centered moment and the denominator counts
the contribution of the central zeros:

* one-level:  E_1 / r,
* two-level:  E_2 / (r (r-2)) for even r,  E_2 / (r-1)^2 for odd r,
* 2m-th centered moment with slot functions phi_1..phi_m (each used
  twice):  M / prod_s (r phi_s(0) - (phihat_s(0) + phi_s(0)/2))^2,
  valid once r clears every slot's minimum usable rank.  M does not
  depend on r, so :func:`bound_moment` takes a sequence of ranks and
  computes one moment per slot set, then one denominator per rank.

Even vanishing orders belong to the even split family and odd orders to
the odd one; a parity mismatch is a hard error, never a silent zero.

:func:`reproduce_table` recomputes every computable cell of the published
tables: moment columns from first principles, one-/two-level columns from
the stored reference expectations (deriving those optimal test functions
is out of scope here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import reference
from .kernels import SymmetryGroup, expectation_1level, expectation_2level
from .moments import MomentRequest, MomentResult, centered_moment
from .testfunc import GeneratorSpec, TestFunction, make_from_generator, make_naive, min_rank


class ParityError(ValueError):
    """Vanishing-order parity does not match the family."""


class RankTooSmallError(ValueError):
    """Rank below the minimum usable rank of a slot function."""


class UncertifiedBoundError(ArithmeticError):
    """A moment came out negative or non-finite, so its quotient is no upper bound."""


@dataclass(frozen=True)
class BoundResult:
    family: SymmetryGroup
    rank: int
    method: str
    test_functions: tuple[str, ...]
    upper_bound: float
    denominator: float
    moment_value: float | None = None

    def record(self) -> dict:
        """Flat, serializable form for the CLI."""
        return {
            "family": self.family.value,
            "rank": self.rank,
            "method": self.method,
            "test_functions": list(self.test_functions),
            "upper_bound": self.upper_bound,
            "denominator": self.denominator,
            "moment_value": self.moment_value,
        }


def _check_parity(family: SymmetryGroup, r: int) -> None:
    if r < 1:
        raise ValueError(f"rank must be a positive integer, got {r}")
    if (-1) ** r != family.sign:
        raise ParityError(
            f"rank {r} has the wrong parity for {family.value}: the even family "
            "admits only even central vanishing orders and the odd family only odd ones"
        )


def _tf_labels(tfs: Sequence[TestFunction]) -> tuple[str, ...]:
    return tuple(tf.spec_string for tf in tfs)


def bound_level1(
    tf: TestFunction | None,
    family: SymmetryGroup,
    r: int,
    expectation: float | None = None,
) -> BoundResult:
    """One-level bound E_1 / r.

    Pass ``expectation`` to use a precomputed reference expectation (the
    published optimal-test-function columns) instead of evaluating one
    for ``tf``.
    """
    _check_parity(family, r)
    if expectation is None:
        if tf is None:
            raise ValueError("bound_level1 needs a test function or an expectation")
        expectation = expectation_1level(tf, family)
        labels = _tf_labels([tf])
    else:
        labels = (f"reference:{family.value}:level1",)
    return BoundResult(family, r, "level1", labels, expectation / r, float(r))


def level2_coefficient(r: int) -> int:
    """r (r-2) for even vanishing order r = 2m, (r-1)^2 for odd r = 2m+1."""
    if r % 2 == 0:
        return r * (r - 2)
    return (r - 1) ** 2


def bound_level2(
    tf1: TestFunction | None,
    tf2: TestFunction | None,
    family: SymmetryGroup,
    r: int,
    expectation: float | None = None,
) -> BoundResult:
    """Two-level bound E_2 / (r (r-2)) (even r) or E_2 / (r-1)^2 (odd r)."""
    _check_parity(family, r)
    coeff = level2_coefficient(r)
    if coeff == 0:
        raise ValueError(
            f"the two-level coefficient vanishes at rank {r}; no bound is available"
        )
    if expectation is None:
        if tf1 is None or tf2 is None:
            raise ValueError("bound_level2 needs two test functions or an expectation")
        expectation = expectation_2level(tf1, tf2, family)
        labels = _tf_labels([tf1, tf2])
    else:
        labels = (f"reference:{family.value}:level2",)
    return BoundResult(family, r, "level2", labels, expectation / coeff, float(coeff))


def bound_moment(
    slot_functions: Sequence[TestFunction],
    family: SymmetryGroup,
    ranks: Sequence[int],
    weight_k: int = 2,
    regime: str = "auto",
) -> list[BoundResult]:
    """2m-th centered-moment bounds with m slot functions, each used twice,
    one per rank in ``ranks``.

    Doubling the slots keeps every family member's contribution
    non-negative, which is what lets the tail be dropped.  Ranks are
    checked in the order given; each needs the family's parity and
    ``r >= min_rank(phi_s)`` for every slot so each denominator factor
    ``r phi_s(0) - (phihat_s(0) + phi_s(0)/2)`` is strictly positive.
    The moment does not depend on the rank: it is computed once, at the
    first rank that passes, and then only each rank's denominator.
    Raises :class:`UncertifiedBoundError` when the moment is negative or
    not finite, rather than return a quotient that bounds nothing.
    """
    slots = tuple(slot_functions)
    if not slots:
        raise ValueError("bound_moment needs at least one slot function")
    doubled = tuple(tf for tf in slots for _ in range(2))
    labels = _tf_labels(slots)
    result = None
    out = []
    for r in ranks:
        _check_parity(family, r)
        for tf in slots:
            c = min_rank(tf)
            if r < c:
                raise RankTooSmallError(
                    f"rank {r} is below the minimum usable rank c = {c} of {tf.spec_string} "
                    "(the per-zero margin must stay positive)"
                )
        if result is None:
            result = centered_moment(
                MomentRequest(doubled, family, weight_k=weight_k, regime=regime)
            )
            _certify(result, labels, r)

        denominator = 1.0
        for tf in slots:
            margin = r * tf.phi0 - (tf.phihat0 + 0.5 * tf.phi0)
            denominator *= margin * margin
        out.append(
            BoundResult(
                family,
                r,
                f"moment{len(doubled)}",
                labels,
                result.value / denominator,
                denominator,
                moment_value=result.value,
            )
        )
    return out


def _certify(result: MomentResult, labels: tuple[str, ...], r: int) -> None:
    # An even moment of a real statistic is never negative.
    if not (math.isfinite(result.value) and result.value >= 0.0):
        raise UncertifiedBoundError(
            f"moment {result.value!r} of {', '.join(labels)} at rank {r} "
            "is negative or not finite"
        )


@dataclass(frozen=True)
class TableCell:
    """One recomputed table cell next to its printed reference value."""

    table: str
    rank: int
    column: str
    family: SymmetryGroup
    computed: float
    printed: str
    rel_dev: float

    def record(self) -> dict:
        return {
            "table": self.table,
            "rank": self.rank,
            "column": self.column,
            "family": self.family.value,
            "computed": self.computed,
            "paper_value": float(self.printed),
            "printed": self.printed,
            "rel_dev": self.rel_dev,
        }


def _moment_naive_slots() -> tuple[TestFunction, ...]:
    return (make_naive(1.0 / 3.0), make_naive(1.0 / 3.0))


def _moment_mixed_slots() -> tuple[TestFunction, ...]:
    return (
        make_from_generator(GeneratorSpec("sin-of-square", (), 0.125)),
        make_naive(0.25),
    )


def reproduce_table(which: str) -> list[TableCell]:
    """Recompute every computable cell of one published table.

    Moment columns are computed from first principles (the naive column
    in the split-family regime carrying the correction term, the mixed
    column in the mock-Gaussian regime, both as the captions state); the
    one-/two-level columns divide the stored reference expectations by
    the rank coefficients.
    """
    cells = reference.table_cells(which)
    # One bound_moment call per (column, family): the moment is computed
    # once and divided by each rank's denominator.
    moment_columns = {
        "moment4_naive": (_moment_naive_slots, "with_R"),
        "moment4_mixed": (_moment_mixed_slots, "mock_gaussian"),
    }
    groups: dict[tuple[str, SymmetryGroup], list[int]] = {}
    for cell in cells:
        if cell.column in moment_columns:
            groups.setdefault((cell.column, cell.family), []).append(cell.rank)
    moment_bounds: dict[tuple[str, SymmetryGroup, int], float] = {}
    for (column, family), ranks in groups.items():
        make_slots, regime = moment_columns[column]
        for res in bound_moment(make_slots(), family, ranks, regime=regime):
            moment_bounds[column, family, res.rank] = res.upper_bound

    out: list[TableCell] = []
    for cell in cells:
        if cell.column == "level1":
            computed = reference.expectation_level1(cell.family) / cell.rank
        elif cell.column == "level2":
            computed = reference.expectation_level2(cell.family) / level2_coefficient(cell.rank)
        elif cell.column in moment_columns:
            computed = moment_bounds[cell.column, cell.family, cell.rank]
        else:
            continue
        printed_value = cell.value
        rel_dev = (computed - printed_value) / printed_value
        out.append(
            TableCell(cell.table, cell.rank, cell.column, cell.family, computed, cell.printed, rel_dev)
        )
    return out


def table_tolerance(cell: TableCell) -> float:
    """Relative tolerance for a golden comparison against a printed value.

    At least 1e-4 (the reproduction target), widened to 1.5 print-ulps
    for cells printed with few digits (some are truncated, not rounded).
    """
    ref = next(
        c
        for c in reference.table_cells(cell.table)
        if c.rank == cell.rank and c.column == cell.column
    )
    return max(1e-4, 1.5 * ref.print_ulp / abs(ref.value))
