"""Upper bounds on the proportion of forms vanishing to order at least r.

Every bound has the shape  numerator / denominator  where the numerator
is a density expectation or a centered moment and the denominator counts
the contribution of the central zeros:

* one-level:  E_1 / r,
* two-level:  E_2 / (r (r-2)) for even r,  E_2 / (r-1)^2 for odd r,
* 2m-th centered moment with slot functions phi_1..phi_m (each used
  twice):  M / prod_s (r phi_s(0) - (phihat_s(0) + phi_s(0)/2))^2,
  valid once r clears every slot's minimum usable rank.

No numerator depends on r, so every bound takes a sequence of ranks and
runs one sweep: check every rank, compute the numerator once, divide it
by each rank's denominator.  The level bounds take one test function
(level1) or two (level2), or none for the published optimal expectation
(the tables' reference column); the moment bound takes m slots.

Even vanishing orders belong to the even split family and odd orders to
the odd one; a parity mismatch is a hard error, never a silent zero.

:func:`reproduce_table` recomputes every computable cell of the published
tables by these sweeps: moment columns from first principles,
one-/two-level columns as the reference column (deriving those optimal
test functions is out of scope here).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .kernels import SymmetryGroup, expectation_1level, expectation_2level
from .moments import (
    MomentRequest, SupportRegimeError, UncertifiedBoundError, centered_moment, support_within
)
from .reference import expectation_level1, expectation_level2, table_cells
from .testfunc import TestFunction, from_spec_string, make_naive, min_rank, spec_order


class ParityError(ValueError):
    """Vanishing-order parity does not match the family."""


class RankTooSmallError(ValueError):
    """Rank below the minimum usable rank of a slot function."""


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


def _tf_labels(tfs: Sequence[TestFunction]) -> tuple[str, ...]:
    return tuple(tf.spec_string for tf in tfs)


def _sweep(
    method: str,
    labels: tuple[str, ...],
    family: SymmetryGroup,
    ranks: Sequence[int],
    denominator: Callable[[int], float],
    numerator: Callable[[], float],
) -> list[BoundResult]:
    """The one path every bound takes: ``numerator() / denominator(r)`` per rank.

    Every rank is checked first: a repeated rank (which would print its
    record twice), then in the order given each rank's parity, whatever
    ``denominator`` refuses and the denominator itself.  Only then is the
    rank-free numerator computed, once for the whole sweep.  Every number
    is certified (:func:`_certified`), and a numerator that overflows on
    the way is :class:`UncertifiedBoundError` too.
    """
    ranks = tuple(ranks)
    repeated = [r for r in ranks if ranks.count(r) > 1]
    if repeated:
        raise ValueError(f"rank {repeated[0]} is repeated in ranks {list(ranks)}")
    denominators = []
    for r in ranks:
        if r < 1:
            raise ValueError(f"rank must be a positive integer, got {r}")
        if (-1) ** r != family.sign:
            raise ParityError(
                f"rank {r} has the wrong parity for {family.value}: the even family "
                "admits only even central vanishing orders and the odd family only odd ones"
            )
        denominators.append(_certified(denominator(r), "denominator", labels, r))
    if not ranks:
        return []
    name = "moment" if method.startswith("moment") else "expectation"
    try:
        with np.errstate(over="raise", invalid="raise"):
            value = _certified(numerator(), name, labels)
    except FloatingPointError as exc:
        raise UncertifiedBoundError(f"{name} of {', '.join(labels)} overflows: {exc}") from None
    moment_value = value if name == "moment" else None
    return [
        BoundResult(family, r, method, labels, _certified(value / d, "upper bound", labels, r), d,
                    moment_value)
        for r, d in zip(ranks, denominators)
    ]


def _certified(x: float, name: str, labels: tuple[str, ...], rank: int | None = None) -> float:
    """``x`` when it is a positive, finite double of full precision (not
    subnormal), else :class:`UncertifiedBoundError`: no number outside
    that range bounds anything."""
    if not sys.float_info.min <= x <= sys.float_info.max:
        where = ", ".join(labels) + ("" if rank is None else f" at rank {rank}")
        raise UncertifiedBoundError(f"{name} {x!r} of {where} is zero, subnormal, negative or not finite")
    return x


def bound_level1(
    tf: TestFunction | None, family: SymmetryGroup, ranks: Sequence[int]
) -> list[BoundResult]:
    """One-level bounds E_1 / r, one per rank: E_1 of ``tf``, or with
    ``tf=None`` the published optimal expectation.  The one-level density
    theorem admits supports within 2 (Iwaniec, Luo and Sarnak, Publ. Math.
    IHES 91, 2000): a wider ``tf`` is :class:`SupportRegimeError`."""
    if tf is None:
        labels = (f"reference:{family.value}:level1",)
        numerator = partial(expectation_level1, family)
    else:
        if not support_within(tf.support_bound, 2.0):
            raise SupportRegimeError(f"the one-level bound needs a transform support within 2; "
                                     f"{tf.spec_string} has support {tf.support_bound:.12g}")
        labels, numerator = _tf_labels([tf]), partial(expectation_1level, tf, family)
    return _sweep("level1", labels, family, ranks, float, numerator)


def level2_coefficient(r: int) -> int:
    """r (r-2) for even vanishing order r = 2m, (r-1)^2 for odd r = 2m+1."""
    if r % 2 == 0:
        return r * (r - 2)
    return (r - 1) ** 2


def _level2_denominator(r: int) -> float:
    coeff = level2_coefficient(r)
    if coeff == 0:
        raise ValueError(f"the two-level coefficient vanishes at rank {r}; no bound is available")
    return float(coeff)


def bound_level2(
    tf1: TestFunction | None,
    tf2: TestFunction | None,
    family: SymmetryGroup,
    ranks: Sequence[int],
) -> list[BoundResult]:
    """Two-level bounds E_2 / (r (r-2)) (even r) or E_2 / (r-1)^2 (odd r),
    one per rank: E_2 of the pair, or with both ``None`` the published
    optimal expectation."""
    if tf1 is None and tf2 is None:
        labels = (f"reference:{family.value}:level2",)
        numerator = partial(expectation_level2, family)
    elif tf1 is None or tf2 is None:
        raise ValueError("bound_level2 takes two test functions, or none for the reference column")
    else:
        labels, numerator = _tf_labels([tf1, tf2]), partial(expectation_2level, tf1, tf2, family)
    return _sweep("level2", labels, family, ranks, _level2_denominator, numerator)


def zero_margin(tf: TestFunction, r: int) -> float:
    """Per-zero margin ``r phi(0) - (phihat(0) + phi(0)/2)`` of a moment
    slot at rank r; the moment method needs it strictly positive."""
    return r * tf.phi0 - (tf.phihat0 + 0.5 * tf.phi0)


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
    non-negative, which is what lets the tail be dropped.  Each rank
    needs the family's parity and ``r >= min_rank(phi_s)`` for every
    slot, so each denominator factor :func:`zero_margin` is strictly
    positive.  The sweep refuses a denominator or moment that leaves
    the normal double range (:class:`UncertifiedBoundError`): a generator
    scaled far from 1 can leave it, though the bound itself does not
    depend on the scale.
    """
    slots = tuple(slot_functions)
    if not slots:
        raise ValueError("bound_moment needs at least one slot function")
    labels = _tf_labels(slots)

    def denominator(r: int) -> float:
        out = 1.0
        for tf in spec_order(slots):  # so the product is free of the slot order
            c = min_rank(tf)
            if r < c:
                raise RankTooSmallError(
                    f"rank {r} is below the minimum usable rank c = {c} of {tf.spec_string} "
                    "(the per-zero margin must stay positive)"
                )
            margin = zero_margin(tf, r)
            out *= margin * margin
        return out

    def moment() -> float:
        doubled = tuple(tf for tf in slots for _ in range(2))
        request = MomentRequest(doubled, family, weight_k=weight_k, regime=regime)
        return centered_moment(request).value

    return _sweep(f"moment{2 * len(slots)}", labels, family, ranks, denominator, moment)


@dataclass(frozen=True)
class TableCell:
    """One recomputed table cell next to its printed reference value.

    ``tolerance`` is the relative deviation the golden comparison allows:
    at least 1e-4 (the reproduction target), widened to 1.5 print-ulps
    for cells printed with few digits (some are truncated, not rounded).
    """

    table: str
    rank: int
    column: str
    family: SymmetryGroup
    computed: float
    printed: str
    rel_dev: float
    tolerance: float

    @property
    def within_tolerance(self) -> bool:
        return abs(self.rel_dev) <= self.tolerance

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
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
        }


def _moment4_naive(family: SymmetryGroup, ranks: Sequence[int]) -> list[BoundResult]:
    slots = (make_naive(1.0 / 3.0), make_naive(1.0 / 3.0))
    return bound_moment(slots, family, ranks, regime="with_R")


def _moment4_mixed(family: SymmetryGroup, ranks: Sequence[int]) -> list[BoundResult]:
    slots = (from_spec_string("gen:sinx2:half=1/8"), make_naive(0.25))
    return bound_moment(slots, family, ranks, regime="mock_gaussian")


def reproduce_table(which: str) -> list[TableCell]:
    """Recompute every computable cell of one published table.

    Moment columns are computed from first principles (the naive column
    in the split-family regime carrying the correction term, the mixed
    column in the mock-Gaussian regime, both as the captions state); the
    one-/two-level columns are the reference-column bounds.  Each
    (column, family) is one rank sweep.
    """
    cells = table_cells(which)
    columns = {
        "level1": partial(bound_level1, None),
        "level2": partial(bound_level2, None, None),
        "moment4_naive": _moment4_naive,
        "moment4_mixed": _moment4_mixed,
    }
    groups: dict[tuple[str, SymmetryGroup], list[int]] = {}
    for cell in cells:
        if cell.column in columns:
            groups.setdefault((cell.column, cell.family), []).append(cell.rank)
    bounds: dict[tuple[str, SymmetryGroup, int], float] = {}
    for (column, family), ranks in groups.items():
        for res in columns[column](family, ranks):
            bounds[column, family, res.rank] = res.upper_bound

    out: list[TableCell] = []
    for cell in cells:
        computed = bounds.get((cell.column, cell.family, cell.rank))
        if computed is None:
            continue
        rel_dev = (computed - cell.value) / cell.value
        tolerance = max(1e-4, 1.5 * cell.print_ulp / abs(cell.value))
        out.append(
            TableCell(
                cell.table, cell.rank, cell.column, cell.family, computed, cell.printed, rel_dev,
                tolerance,
            )
        )
    return out
