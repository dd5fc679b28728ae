"""Golden reference data: the published bound tables and the expectation
constants behind their one- and two-level columns.

Values ship as strings exactly as printed so that golden tests can
distinguish "our computation changed" from "reference mistyped"; parsed
floats and per-value print precision are derived on load.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .kernels import SymmetryGroup

TABLE_NAMES = ("T1", "T2", "T3", "T4", "T5")


@dataclass(frozen=True)
class ReferenceCell:
    table: str
    rank: int
    column: str
    family: SymmetryGroup
    printed: str

    @property
    def value(self) -> float:
        return float(self.printed)

    @property
    def significant_digits(self) -> int:
        mantissa = self.printed.lower().split("e")[0]
        return len(re.sub(r"[^0-9]", "", mantissa).lstrip("0"))

    @property
    def print_ulp(self) -> float:
        """Magnitude of one unit in the last printed digit."""
        v = abs(self.value)
        if v == 0.0:
            return 0.0
        exponent = math.floor(math.log10(v))
        return 10.0 ** (exponent - self.significant_digits + 1)


@lru_cache(maxsize=1)
def _load() -> dict:
    with resources.files("momentbounds.data").joinpath("reference_tables.json").open() as fh:
        return json.load(fh)


def _family_for(table_family: str, rank: int) -> SymmetryGroup:
    if table_family == "mixed":
        return SymmetryGroup.SO_EVEN if rank % 2 == 0 else SymmetryGroup.SO_ODD
    return SymmetryGroup.from_string(table_family)


def table_cells(table: str) -> tuple[ReferenceCell, ...]:
    """All printed cells of one table, row-major, ranks ascending."""
    data = _load()
    if table not in data["tables"]:
        raise ValueError(f"unknown table {table!r} (valid: {', '.join(TABLE_NAMES)})")
    spec = data["tables"][table]
    cells = []
    for rank_str in sorted(spec["rows"], key=int):
        rank = int(rank_str)
        family = _family_for(spec["family"], rank)
        for column, printed in spec["rows"][rank_str].items():
            cells.append(ReferenceCell(table, rank, column, family, printed))
    return tuple(cells)


def expectation_level1(family: SymmetryGroup) -> float:
    """Published optimal one-level expectation (reference input)."""
    value = _load()["constants"]["expectation_level1"].get(family.value)
    if value is None:
        raise ValueError(f"no one-level reference expectation for {family.value}")
    return float(value)


def expectation_level2(family: SymmetryGroup) -> float:
    """Published/derived optimal two-level expectation (reference input)."""
    value = _load()["constants"]["expectation_level2"].get(family.value)
    if value is None:
        raise ValueError(f"no two-level reference expectation for {family.value}")
    return float(value)
