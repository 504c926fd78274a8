"""Counts of quadratic forms on GF(q)^m per (rank, type) class.

``census_formula`` evaluates the closed-form counts in exact integer
arithmetic, the whole table in one pass per (q, m): each rank's product
follows from the previous one by a ratio, so no caller rebuilds a rank's
product from scratch (``count_even_rank`` and ``count_odd_rank`` read one
entry of that table). ``census_exhaustive`` classifies every coefficient
table and tallies, serving as the oracle for the formulas. Odd ranks over odd q
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
from .forms import TYPE_LABELS, QuadraticForm, classify, triangle_size

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
    return census_formula(q, m).entries[(r, _odd_rank_label(q))]


def count_even_rank(q: int, m: int, r: int, tau: int) -> int:
    """Number of forms of even rank r >= 2 and type tau on GF(q)^m."""
    if r % 2 or not 2 <= r <= m:
        raise OutOfRange(f"rank {r} is not an even value in [2, {m}]")
    if tau not in (1, -1):
        raise OutOfRange(f"type must be +1 or -1, got {tau!r}")
    return census_formula(q, m).entries[(r, TYPE_LABELS[tau])]


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
    return TYPE_LABELS[None] if q % 2 == 0 else "odd_total"


def census_formula(q: int, m: int) -> CensusTable:
    """Closed-form census over all admissible (rank, type) classes, in one
    pass over the ranks.

    With P_j = prod_{i=m-2j+1..m} (q^i - 1) / prod_{i=1..j} (q^{2i} - 1),
    N(2j, tau) = q^{j^2} (q^j + tau) P_j / 2 and
    N(2j + 1) = q^{j^2+j} (q^{m-2j} - 1) P_j; P_j follows from P_{j-1} by
    one ratio, so the census costs O(m) big-integer steps.
    """
    entries: dict[tuple[int, str], int] = {(0, TYPE_LABELS[1]): 1}
    label = _odd_rank_label(q)
    p = 1  # P_j
    for j in range(m // 2 + 1):
        if j:
            head = q ** (j * j) * p
            for tau in (1, -1):
                entries[(2 * j, TYPE_LABELS[tau])] = _exact_div(head * (q ** j + tau), 2)
        if 2 * j + 1 <= m:
            entries[(2 * j + 1, label)] = q ** (j * j + j) * p * (q ** (m - 2 * j) - 1)
        if 2 * j + 2 <= m:
            p = _exact_div(
                p * (q ** (m - 2 * j) - 1) * (q ** (m - 2 * j - 1) - 1), q ** (2 * j + 2) - 1
            )
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
