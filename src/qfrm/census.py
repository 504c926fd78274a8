"""Counts of quadratic forms on GF(q)^m per (rank, type) class.

``census_formula`` evaluates the closed-form counts in exact arithmetic,
in the unit it is given (the int 1 by default; ``qfrm count`` passes
``Decimal(1)`` under a trapping exact context, so its counts print in
linear time), the whole table in one pass per (q, m): each rank's product
follows from the previous one by a ratio, so no caller rebuilds a rank's
product from scratch (``count_even_rank`` and ``count_odd_rank`` read one
entry of that table). ``census_exhaustive`` is the oracle for the
formulas: it reads every form's values on the q^m points from
``forms._form_blocks``, in (q^m, F) arrays, and reads rank and type from
point counts alone (the bilinear radical and the zero count), sharing no
code with ``classify``. Odd ranks over odd q are stored, untyped, under a merged
``odd_total`` key: their coset and weight structure ignores the type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InexactDivision, InternalInconsistency, OutOfRange, admit
from .field import FiniteField, field_from_order
from .forms import TYPE_LABELS, _form_blocks, triangle_pairs, triangle_size
# classify stays importable here, though the oracle no longer calls it:
# perfbench/tracing.py wraps it under this module's name
from .forms import classify  # noqa: F401

# form-point evaluations census_exhaustive may make
EVAL_BUDGET = 1 << 26

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

    def __post_init__(self):
        self.total()

    def total(self) -> int:
        """The number of forms counted, checked: every count is at least 1,
        and they total q^(m(m+1)/2) in the unit of the counts. Under an
        exact decimal context a NaN count raises at the ordering comparison."""
        counts = self.entries.values()
        total = sum(counts)
        forms = type(total)(self.q) ** triangle_size(self.m)
        if any(count < 1 for count in counts) or total != forms:
            raise InternalInconsistency("census counts are not all positive or miss q^(m(m+1)/2)")
        return total

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kv: (kv[0][0], LABEL_ORDER[kv[0][1]]))


def _odd_rank_label(q: int) -> str:
    return TYPE_LABELS[None] if q % 2 == 0 else "odd_total"


def census_formula(q: int, m: int, unit=1) -> CensusTable:
    """Closed-form census over all admissible (rank, type) classes, in one
    pass over the ranks.

    H_j = q^{j^2} prod_{i=m-2j+1..m} (q^i - 1) / prod_{i=1..j} (q^{2i} - 1)
    gives N(2j, tau) = (H_j q^j + tau H_j) / 2 and N(2j + 1) = H_j q^j (q^{m-2j} - 1);
    H_{j+1} = H_j q^{2j+1} (q^{m-2j} - 1)(q^{m-2j-1} - 1) / (q^{2j+2} - 1), so the
    census costs O(m) steps of the big H_j by small running powers of q.
    Every count is built from ``unit``: 1, or ``Decimal(1)`` under a context
    that traps Inexact and Rounded.
    """
    entries: dict[tuple[int, str], int] = {(0, TYPE_LABELS[1]): unit}
    label = _odd_rank_label(q)
    h, qj, top = unit, unit, (unit * q) ** m  # H_j, q^j, q^(m-2j)
    for j in range(m // 2 + 1):
        hq = h * qj
        if j:
            for tau in (1, -1):
                entries[(2 * j, TYPE_LABELS[tau])] = _exact_div(hq + tau * h, 2)
        if 2 * j + 1 <= m:
            entries[(2 * j + 1, label)] = hq * (top - 1)
        if 2 * j + 2 <= m:
            h = _exact_div(hq * (qj * q * (top - 1) * (top // q - 1)), (qj * q) ** 2 - 1)
            qj, top = qj * q, top // (q * q)
    return CensusTable(q, m, entries)


def _rank_and_type(field: FiniteField, m: int, values: np.ndarray):
    """Rank and type tag of every form in ``values``, shape (q^m, F): the
    column of form f holds Q_f on the points in index order. An even rank
    has tag +1 or -1; every odd rank has tag 0, untyped over even q and
    merged into ``odd_total`` over odd q, so its type is never read.

    The radical is {y : Q(y + e_i) = Q(y) + Q(e_i) for every i}, where the
    polar form B(y, .) vanishes, and for even q also Q(y) = 0; the rank
    is m - log_q of its size. An even rank has type +1 iff Q has more than
    q^(m-1) zeros.
    """
    q = field.q
    n = q ** m
    add = field.add_array
    zeros = values == 0
    radical = zeros.copy() if q % 2 == 0 else np.ones(values.shape, dtype=bool)
    grid = values.reshape((q,) * m + (-1,))
    for i in range(m):
        # Q(y + e_i) at every y: coordinate i of the grid moved on by one
        shifted = np.take(grid, add[:, 1], axis=i).reshape(values.shape)
        radical &= shifted == add[values, values[q ** (m - 1 - i)]]
    log = np.full(n + 1, -1)
    log[q ** np.arange(m + 1)] = np.arange(m + 1)
    dims = log[radical.sum(axis=0)]
    if (dims < 0).any():
        raise InternalInconsistency("a radical size is not a power of q")
    rank = m - dims
    return rank, np.where(rank % 2, 0, np.where(zeros.sum(axis=0) * q > n, 1, -1))


def census_exhaustive(q: int, m: int) -> CensusTable:
    """Enumerate every form on GF(q)^m and tally by (rank, type).

    Each block of forms is evaluated on all q^m points at once
    (``forms._form_blocks``) and classified by ``_rank_and_type`` from
    point counts, never through ``classify``. ``EVAL_BUDGET`` is charged
    those q^(m(m+1)/2) q^m form-point evaluations before any form is
    built. The field's q x q tables limit q to ``GRID_TABLE_MAX``; larger
    fields raise FieldTooLarge.
    """
    fld = field_from_order(q)
    admit(q ** (triangle_size(m) + m), EVAL_BUDGET, "evaluations")
    # tally[rank, tag + 1], tags -1, 0 (odd rank), +1
    tally = np.zeros(3 * (m + 1), dtype=np.int64)
    add = fld.add_array
    for low, high in _form_blocks(fld, m, triangle_pairs(m), q ** m):
        rank, tag = _rank_and_type(fld, m, add[low, high])
        tally += np.bincount(3 * rank + tag + 1, minlength=len(tally))
    label = _odd_rank_label(q)
    entries: dict[tuple[int, str], int] = {}
    for (rank, column), count in np.ndenumerate(tally.reshape(m + 1, 3)):
        if count:
            entries[rank, label if rank % 2 else TYPE_LABELS[(-1, None, 1)[column]]] = int(count)
    return CensusTable(q, m, entries)
