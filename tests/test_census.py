"""Closed-form census counts against the exhaustive oracle, and that
oracle's point-count invariants against ``classify`` form by form."""

import itertools
import json

import numpy as np
import pytest
from algebra import form_values, odd_rank_tags, points

from qfrm.census import (
    EVAL_BUDGET,
    CensusTable,
    _rank_and_type,
    census_exhaustive,
    census_formula,
    count_even_rank,
    count_odd_rank,
)
from qfrm.cli import main
from qfrm.errors import BudgetExceeded, OutOfRange
from qfrm.field import field_from_order
from qfrm.forms import QuadraticForm, classify, triangle_size
from qfrm.verify import CENSUS_GRID

SWEEP = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9) for m in range(0, 9)]
BENCHMARK_QS = (2, 3, 4, 5, 8, 9)


# Reference counts: each rank's product built from its factors, independently
# of the ratio recurrence that census_formula runs over the ranks.
def exact_quotient(num, den):
    quotient, remainder = divmod(num, den)
    assert remainder == 0
    return quotient


def reference_odd_rank(q, m, r):
    j = (r - 1) // 2
    num = q ** (j * j + j)
    for i in range(m - 2 * j, m + 1):
        num *= q ** i - 1
    den = 1
    for i in range(1, j + 1):
        den *= q ** (2 * i) - 1
    return exact_quotient(num, den)


def reference_even_rank(q, m, r, tau):
    j = r // 2
    num = q ** (j * j) * (q ** j + tau)
    for i in range(m - 2 * j + 1, m + 1):
        num *= q ** i - 1
    den = 2
    for i in range(1, j + 1):
        den *= q ** (2 * i) - 1
    return exact_quotient(num, den)


def reference_census(q, m):
    # the same products, read from tables every rank of (q, m) shares:
    # tail[a] = (q^a - 1) ... (q^m - 1) and squares[j] = prod (q^(2i) - 1), i <= j
    tail = [1] * (m + 2)
    for i in range(m, 0, -1):
        tail[i] = tail[i + 1] * (q ** i - 1)
    squares = [1]
    for i in range(1, m // 2 + 1):
        squares.append(squares[-1] * (q ** (2 * i) - 1))

    entries = {(0, "plus"): 1}
    for r in range(1, m + 1):
        j = r // 2
        if r % 2:
            label = "untyped" if q % 2 == 0 else "odd_total"
            entries[(r, label)] = exact_quotient(q ** (j * j + j) * tail[m - 2 * j], squares[j])
        else:
            for label, tau in (("plus", 1), ("minus", -1)):
                num = q ** (j * j) * (q ** j + tau) * tail[m - 2 * j + 1]
                entries[(r, label)] = exact_quotient(num, 2 * squares[j])
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
    # the benchmark's closed-form m reach about 100 for q in BENCHMARK_QS; prm2
    # at m + 1 reads the census up to m = 101
    for m in [*range(0, 61), *((96, 100, 101) if q in BENCHMARK_QS else ())]:
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
    # 3^15 forms of 3^5 points each: refused before any form is built
    with pytest.raises(BudgetExceeded, match=f"^{3 ** 20} evaluations exceed {EVAL_BUDGET}$"):
        census_exhaustive(3, 5)


def test_json_shape(capsys):
    assert main(["count", "--q", "2", "--m", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 2 and payload["m"] == 2
    assert payload["entries"][0] == {"rank": 0, "type": "plus", "count": "1"}
    assert all(isinstance(e["count"], str) for e in payload["entries"])


def test_equality_ignores_split():
    a = census_formula(3, 2)
    b = census_exhaustive(3, 2)
    assert isinstance(a, CensusTable) and a == b


@pytest.mark.parametrize("q,m", CENSUS_GRID + ((4, 3), (5, 3), (7, 2), (8, 2), (9, 2), (16, 2)))
def test_classify_agrees_with_batched_invariants(q, m):
    # the census oracle reads rank and type from point counts, never through
    # classify; here those invariants check classify on every form, all of
    # them evaluated on every point by one matrix product over the field
    fld = field_from_order(q)
    coeffs = list(itertools.product(range(q), repeat=triangle_size(m)))
    forms = [QuadraticForm(fld, m, c) for c in coeffs]
    values = form_values(fld, m, np.array(coeffs), points(fld, m))
    ranks, tags = _rank_and_type(fld, m, values.T)
    if q % 2:
        # the oracle leaves an odd rank untyped; its type is read here
        tags = np.where(ranks % 2, odd_rank_tags(fld, values.T), tags)
    expected = list(zip(ranks.tolist(), tags.tolist()))
    assert [(rt.rank, rt.type_tag or 0) for rt in map(classify, forms)] == expected
