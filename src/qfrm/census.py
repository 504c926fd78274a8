"""Counts of quadratic forms on GF(q)^m per (rank, type) class.

``census_formula`` evaluates the closed-form counts in exact integer
arithmetic, the whole table in one pass per (q, m): each rank's product
follows from the previous one by a ratio, so no caller rebuilds a rank's
product from scratch (``count_even_rank`` and ``count_odd_rank`` read one
entry of that table). ``census_exhaustive`` is the oracle for the
formulas: it enumerates every form as its values on the q^m points, in
numpy blocks, and reads rank and type from point counts alone (the
bilinear radical and the zero count), sharing no code with ``classify``.
Odd ranks over odd q are stored under a merged ``odd_total`` key; the
exhaustive pass also records the per-type split, which is informative
only and never compared against a formula.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    BudgetExceeded,
    InexactDivision,
    InternalInconsistency,
    OutOfRange,
    count_text,
)
from .field import FiniteField, field_from_order
from .forms import (
    _BLOCK,
    TYPE_LABELS,
    _coordinate_planes,
    _form_blocks,
    _monomial_planes,
    triangle_size,
)
# classify stays importable here, though the oracle no longer calls it:
# perfbench/tracing.py wraps it under this module's name
from .forms import classify  # noqa: F401

DEFAULT_EVAL_BUDGET = 1 << 26

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


@functools.lru_cache(maxsize=8)
def _unit_shifts(field: FiniteField, m: int):
    """For each coordinate i, the index of the point y + e_i at every y."""
    q = field.q
    step = field.add_array[:, 1].astype(np.intp) - np.arange(q)  # a + 1 - a, as indices
    idx = np.arange(q ** m, dtype=np.intp)
    return tuple(
        idx + step[plane] * q ** (m - 1 - i)
        for i, plane in enumerate(_coordinate_planes(field, m))
    )


def _rank_and_type(field: FiniteField, m: int, values: np.ndarray):
    """Rank and type tag of every form in ``values``, shape (q^m, F): the
    column of form f holds Q_f on the points in index order. Tags are +1
    and -1, and 0 for an untyped form (odd rank over even q).

    The radical is {y : Q(y + e_i) = Q(y) + Q(e_i) for every i}, where the
    polar form B(y, .) vanishes, and for even q also Q(y) = 0; the rank
    is m - log_q of its size. An even rank has type +1 iff Q has more than
    q^(m-1) zeros; an odd rank over odd q iff Q takes the value 1 more
    than q^(m-1) times (the zero count is q^(m-1) for both types there).
    """
    q = field.q
    n = q ** m
    add = field.add_array
    zeros = values == 0
    radical = zeros.copy() if q % 2 == 0 else np.ones(values.shape, dtype=bool)
    for i, shift in enumerate(_unit_shifts(field, m)):
        radical &= values[shift] == add[values, values[q ** (m - 1 - i)]]
    log = np.full(n + 1, -1)
    log[q ** np.arange(m + 1)] = np.arange(m + 1)
    dims = log[radical.sum(axis=0)]
    if (dims < 0).any():
        raise InternalInconsistency("a radical size is not a power of q")
    rank = m - dims
    even_tag = np.where(zeros.sum(axis=0) * q > n, 1, -1)
    odd_tag = np.where((values == 1).sum(axis=0) * q > n, 1, -1) if q % 2 else 0
    return rank, np.where(rank % 2, odd_tag, even_tag)


def census_exhaustive(q: int, m: int, max_evals: int = DEFAULT_EVAL_BUDGET) -> CensusTable:
    """Enumerate every form on GF(q)^m and tally by (rank, type).

    Each block of forms is evaluated on all q^m points at once
    (``forms._form_blocks``) and classified by ``_rank_and_type`` from
    point counts, never through ``classify``. The budget is charged those
    q^(m(m+1)/2) q^m form-point evaluations before any form is built. The
    field's q x q tables limit q to ``GRID_TABLE_MAX``; larger fields raise
    FieldTooLarge.
    """
    fld = field_from_order(q)
    n_evals = q ** (triangle_size(m) + m)
    if n_evals > max_evals:
        raise BudgetExceeded(
            f"{count_text(n_evals)} evaluations exceed the budget {count_text(max_evals)}"
        )
    # tally[rank, tag + 1], tags -1, 0 (untyped), +1
    tally = np.zeros(3 * (m + 1), dtype=np.int64)
    add = fld.add_array
    for low, high in _form_blocks(fld, _monomial_planes(fld, m), max(1, _BLOCK // q ** m)):
        rank, tag = _rank_and_type(fld, m, add[low, high])
        tally += np.bincount(3 * rank + tag + 1, minlength=len(tally))
    label = _odd_rank_label(q)
    entries: dict[tuple[int, str], int] = {}
    split: dict[tuple[int, str], int] = {}
    for (rank, column), count in np.ndenumerate(tally.reshape(m + 1, 3)):
        if not count:
            continue
        tag = (-1, None, 1)[column]
        if rank % 2:
            entries[(rank, label)] = entries.get((rank, label), 0) + int(count)
            split[(rank, TYPE_LABELS[tag])] = int(count)
        else:
            entries[(rank, TYPE_LABELS[tag])] = int(count)
    return CensusTable(q, m, entries, odd_split=split if q % 2 else None)
