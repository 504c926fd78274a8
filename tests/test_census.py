"""Closed-form census counts against the exhaustive oracle, and that
oracle's point-count invariants against ``classify`` form by form."""

import itertools

import numpy as np
import pytest

from qfrm.census import (
    CensusTable,
    _rank_and_type,
    census_exhaustive,
    census_formula,
    count_even_rank,
    count_odd_rank,
)
from qfrm.errors import BudgetExceeded, OutOfRange
from qfrm.field import field_from_order
from qfrm.forms import QuadraticForm, classify, triangle_size, values_on_domain
from qfrm.verify import CENSUS_GRID

SWEEP = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9) for m in range(0, 9)]


# Reference counts: each rank's product built from scratch, independently of
# the ratio recurrence that census_formula runs over the ranks.
def reference_odd_rank(q, m, r):
    j = (r - 1) // 2
    num = q ** (j * j + j)
    for i in range(m - 2 * j, m + 1):
        num *= q ** i - 1
    den = 1
    for i in range(1, j + 1):
        den *= q ** (2 * i) - 1
    assert num % den == 0
    return num // den


def reference_even_rank(q, m, r, tau):
    j = r // 2
    num = q ** (j * j) * (q ** j + tau)
    for i in range(m - 2 * j + 1, m + 1):
        num *= q ** i - 1
    den = 2
    for i in range(1, j + 1):
        den *= q ** (2 * i) - 1
    assert num % den == 0
    return num // den


def reference_census(q, m):
    entries = {(0, "plus"): 1}
    for r in range(1, m + 1):
        if r % 2:
            entries[(r, "untyped" if q % 2 == 0 else "odd_total")] = reference_odd_rank(q, m, r)
        else:
            entries[(r, "plus")] = reference_even_rank(q, m, r, 1)
            entries[(r, "minus")] = reference_even_rank(q, m, r, -1)
    return entries


def test_count_examples():
    assert count_odd_rank(3, 4, 1) == 3 ** 4 - 1 == 80
    assert count_odd_rank(2, 3, 3) == 28
    assert count_odd_rank(3, 3, 3) == 468
    assert count_even_rank(2, 2, 2, 1) == 3
    assert count_even_rank(2, 2, 2, -1) == 1
    assert count_even_rank(3, 2, 2, 1) == 12


def test_count_guards():
    with pytest.raises(OutOfRange):
        count_odd_rank(3, 3, 2)
    with pytest.raises(OutOfRange):
        count_odd_rank(3, 3, 5)
    with pytest.raises(OutOfRange):
        count_even_rank(3, 3, 3, 1)
    with pytest.raises(OutOfRange):
        count_even_rank(3, 3, 2, 0)


def test_census_formula_examples():
    table = census_formula(2, 2)
    assert table.entries == {
        (0, "plus"): 1,
        (1, "untyped"): 3,
        (2, "plus"): 3,
        (2, "minus"): 1,
    }
    table = census_formula(3, 2)
    assert table.entries == {
        (0, "plus"): 1,
        (1, "odd_total"): 8,
        (2, "plus"): 12,
        (2, "minus"): 6,
    }
    assert census_formula(5, 0).entries == {(0, "plus"): 1}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_formula_equals_reference_products(q):
    # reaches far past the exhaustive oracle's frontier; the key order is the
    # rank order too
    for m in range(0, 61):
        assert list(census_formula(q, m).entries.items()) == list(reference_census(q, m).items())
    for r in range(1, 60, 2):
        assert count_odd_rank(q, 60, r) == reference_odd_rank(q, 60, r)
        assert count_even_rank(q, 60, r + 1, -1) == reference_even_rank(q, 60, r + 1, -1)


@pytest.mark.parametrize(
    "q,m", SWEEP + [(q, m) for q in (2, 3) for m in range(9, 201)]
)
def test_totals_identity(q, m):
    # the per-class counts sum to the size of the coefficient space,
    # and every division in the recurrence is exact (no exception fires)
    assert census_formula(q, m).total() == q ** (m * (m + 1) // 2)


@pytest.mark.parametrize("q,m", SWEEP)
def test_counts_positive(q, m):
    assert all(c > 0 for c in census_formula(q, m).entries.values())


@pytest.mark.parametrize(
    "q,m",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]
    + [(2, 5), (3, 3), (3, 4), (4, 3), (5, 3), (7, 2), (8, 2), (9, 2)],
)
def test_formula_equals_exhaustive(q, m):
    assert census_formula(q, m).entries == census_exhaustive(q, m).entries


def test_exhaustive_budget():
    with pytest.raises(BudgetExceeded):
        census_exhaustive(3, 3, max_evals=100)


def test_odd_split_recorded_and_consistent():
    table = census_exhaustive(3, 2)
    assert table.odd_split == {(1, "plus"): 4, (1, "minus"): 4}
    merged = {}
    for (rank, _), count in table.odd_split.items():
        merged[rank] = merged.get(rank, 0) + count
    for rank, count in merged.items():
        assert table.entries[(rank, "odd_total")] == count


def test_json_shape():
    payload = census_formula(2, 2).to_json_dict()
    assert payload["q"] == 2 and payload["m"] == 2
    assert payload["entries"][0] == {"rank": 0, "type": "plus", "count": "1"}
    assert all(isinstance(e["count"], str) for e in payload["entries"])


def test_equality_ignores_split():
    a = census_formula(3, 2)
    b = census_exhaustive(3, 2)
    assert isinstance(a, CensusTable) and a.entries == b.entries


@pytest.mark.parametrize("q,m", CENSUS_GRID + ((4, 3), (5, 3), (8, 2), (16, 2)))
def test_classify_agrees_with_batched_invariants(q, m):
    # the census oracle reads rank and type from point counts, never through
    # classify; here those invariants check classify on every form, each
    # evaluated on its own by values_on_domain
    fld = field_from_order(q)
    forms = [
        QuadraticForm(fld, m, coeffs)
        for coeffs in itertools.product(range(q), repeat=triangle_size(m))
    ]
    ranks, tags = _rank_and_type(fld, m, np.stack([values_on_domain(f) for f in forms], axis=1))
    expected = list(zip(ranks.tolist(), tags.tolist()))
    assert [(rt.rank, rt.type_tag or 0) for rt in map(classify, forms)] == expected
