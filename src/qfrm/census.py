"""Counts of quadratic forms on GF(q)^m per (rank, type) class.

``census_formula`` evaluates the closed-form counts in exact integer
arithmetic; ``census_exhaustive`` classifies every coefficient table and
tallies, serving as the oracle for the formulas. Odd ranks over odd q
are stored under a merged ``odd_total`` key; the exhaustive pass also
records the per-type split, which is informative only and never
compared against a formula.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field as dc_field

from .errors import BudgetExceeded, InexactDivision, OutOfRange
from .field import field_from_order
from .forms import QuadraticForm, classify, triangle_size

DEFAULT_FORM_BUDGET = 1 << 26

LABEL_ORDER = {"plus": 0, "minus": 1, "untyped": 2, "odd_total": 3}


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InexactDivision(f"{numerator} is not divisible by {denominator}")
    return quotient


def count_odd_rank(q: int, m: int, r: int) -> int:
    """Number of forms of odd rank r on GF(q)^m (both types combined for odd q)."""
    if r % 2 == 0 or not 1 <= r <= m:
        raise OutOfRange(f"rank {r} is not an odd value in [1, {m}]")
    j = (r - 1) // 2
    num = q ** (j * j + j)
    for i in range(m - 2 * j, m + 1):
        num *= q ** i - 1
    den = 1
    for i in range(1, j + 1):
        den *= q ** (2 * i) - 1
    return _exact_div(num, den)


def count_even_rank(q: int, m: int, r: int, tau: int) -> int:
    """Number of forms of even rank r >= 2 and type tau on GF(q)^m."""
    if r % 2 or not 2 <= r <= m:
        raise OutOfRange(f"rank {r} is not an even value in [2, {m}]")
    if tau not in (1, -1):
        raise OutOfRange(f"type must be +1 or -1, got {tau!r}")
    j = r // 2
    num = q ** (j * j) * (q ** j + tau)
    for i in range(m - 2 * j + 1, m + 1):
        num *= q ** i - 1
    den = 2
    for i in range(1, j + 1):
        den *= q ** (2 * i) - 1
    return _exact_div(num, den)


@dataclass
class CensusTable:
    q: int
    m: int
    entries: dict[tuple[int, str], int]
    # per-type split of odd ranks over odd q, informative only
    odd_split: dict[tuple[int, str], int] | None = dc_field(default=None, compare=False)

    def total(self) -> int:
        return sum(self.entries.values())

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kv: (kv[0][0], LABEL_ORDER[kv[0][1]]))

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "entries": [
                {"rank": rank, "type": label, "count": str(count)}
                for (rank, label), count in self.sorted_items()
            ],
        }


def _odd_rank_label(q: int) -> str:
    return "untyped" if q % 2 == 0 else "odd_total"


def census_formula(q: int, m: int) -> CensusTable:
    """Closed-form census over all admissible (rank, type) classes."""
    entries: dict[tuple[int, str], int] = {(0, "plus"): 1}
    label = _odd_rank_label(q)
    for r in range(1, m + 1):
        if r % 2:
            entries[(r, label)] = count_odd_rank(q, m, r)
        else:
            entries[(r, "plus")] = count_even_rank(q, m, r, 1)
            entries[(r, "minus")] = count_even_rank(q, m, r, -1)
    return CensusTable(q, m, entries)


def census_exhaustive(q: int, m: int, max_forms: int = DEFAULT_FORM_BUDGET) -> CensusTable:
    """Classify every coefficient table on GF(q)^m and tally by (rank, type)."""
    fld = field_from_order(q)
    dim = triangle_size(m)
    n_forms = q ** dim
    if n_forms > max_forms:
        raise BudgetExceeded(f"{n_forms} forms exceed the budget {max_forms}")
    label = _odd_rank_label(q)
    tally: Counter = Counter()
    split: Counter = Counter()
    for coeffs in itertools.product(range(q), repeat=dim):
        rt = classify(QuadraticForm(fld, m, coeffs))
        if rt.rank % 2:
            tally[(rt.rank, label)] += 1
            if q % 2:
                split[(rt.rank, rt.label)] += 1
        else:
            tally[(rt.rank, rt.label)] += 1
    return CensusTable(q, m, dict(tally), odd_split=dict(split) if q % 2 else None)
