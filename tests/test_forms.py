"""Quadratic form representation, classification, canonical forms, and
zero counts, each checked against direct enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrm.errors import (
    BudgetExceeded,
    DimensionMismatch,
    EvenCharacteristic,
    InconsistentRankType,
    SingularSubstitution,
    ZeroCoefficient,
)
from qfrm.field import field_new
from qfrm.forms import (
    QuadraticForm,
    RankType,
    Substitution,
    all_vectors,
    bilinear_of,
    canonical_form,
    classify,
    diagonalize,
    radical_bilinear,
    radical_form,
    rank_of,
    substitute,
    triangle_pairs,
    triangle_size,
    type_from_diagonal,
    zero_count_exhaustive,
    zero_count_formula,
)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F5 = field_new(5)

SMALL_FIELDS = {
    2: F2, 3: F3, 4: F4, 5: F5, 7: field_new(7), 8: field_new(2, 3), 9: field_new(3, 2), 16: field_new(2, 4),
}


def form(field, m, entries):
    return QuadraticForm.from_entries(field, m, entries)


def valid_tags(q, rank):
    if rank == 0:
        return (1,)
    if rank % 2 == 1 and q % 2 == 0:
        return (None,)
    return (1, -1)


def random_form(rng, field, m):
    return QuadraticForm(
        field, m, tuple(rng.randrange(field.q) for _ in range(triangle_size(m)))
    )


def random_substitution(rng, field, m):
    while True:
        rows = tuple(tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(m))
        try:
            return Substitution(field, m, rows)
        except SingularSubstitution:
            continue


# -- evaluation ----------------------------------------------------------------

def test_evaluate_examples():
    assert QuadraticForm.zero(F3, 2).evaluate((1, 2)) == 0
    assert form(F2, 2, {(0, 1): 1}).evaluate((1, 1)) == 1
    assert form(F3, 2, {(0, 0): 1, (1, 1): 2}).evaluate((1, 1)) == 0


def test_odd_q_cross_terms_count_twice():
    # stored c_12 = 1 evaluates as 2 * x1 * x2
    q = form(F3, 2, {(0, 1): 1})
    assert q.evaluate((1, 1)) == 2
    half = F3.inv(2)
    assert form(F3, 2, {(0, 1): half}).evaluate((1, 1)) == 1


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        QuadraticForm.zero(F2, 2).evaluate((1,))


def test_prime_field_evaluation_against_integer_arithmetic():
    # independent oracle: plain modular arithmetic on GF(p)
    rng = random.Random(7)
    for p in (2, 3, 5):
        fld = SMALL_FIELDS[p]
        for _ in range(20):
            m = rng.randint(1, 3)
            q = random_form(rng, fld, m)
            for x in all_vectors(fld, m):
                expected = 0
                for i, j in triangle_pairs(m):
                    c = q.coeff(i, j)
                    weight = 1 if i == j or p == 2 else 2
                    expected += weight * c * x[i] * x[j]
                assert q.evaluate(x) == expected % p


# -- bilinear form and radicals ---------------------------------------------------

def test_bilinear_examples():
    assert bilinear_of(QuadraticForm.zero(F3, 2)).gram == ((0, 0), (0, 0))
    assert bilinear_of(form(F2, 2, {(0, 1): 1})).gram == ((0, 1), (1, 0))
    assert bilinear_of(form(F3, 2, {(0, 0): 1})).gram == ((2, 0), (0, 0))


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (3, 3), (2, 4)])
def test_bilinear_identity_and_scaling_exhaustive(q, m):
    fld = SMALL_FIELDS[q]
    rng = random.Random(q * 100 + m)
    forms = [random_form(rng, fld, m) for _ in range(5)]
    forms += [canonical_form(fld, m, r, valid_tags(q, r)[0]) for r in range(m + 1)]
    points = list(all_vectors(fld, m))
    for Q in forms:
        B = bilinear_of(Q)
        for x in points:
            qx = Q.evaluate(x)
            for lam in range(fld.q):
                lx = tuple(fld.mul(lam, xi) for xi in x)
                assert Q.evaluate(lx) == fld.mul(fld.mul(lam, lam), qx)
            for y in points:
                s = tuple(fld.add(a, b) for a, b in zip(x, y))
                assert Q.evaluate(s) == fld.add(
                    fld.add(qx, Q.evaluate(y)), B.apply(x, y)
                )


def test_radical_examples():
    assert len(radical_bilinear(bilinear_of(QuadraticForm.zero(F3, 2)))) == 2
    assert radical_bilinear(bilinear_of(form(F2, 2, {(0, 1): 1}))) == []
    assert radical_bilinear(bilinear_of(form(F3, 2, {(0, 0): 1}))) == [(0, 1)]

    assert radical_form(QuadraticForm.zero(F5, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert radical_form(form(F2, 3, {(0, 1): 1})) == [(0, 0, 1)]
    assert radical_form(form(F2, 3, {(0, 1): 1, (2, 2): 1})) == []


def test_rank_examples():
    assert rank_of(QuadraticForm.zero(F2, 3)) == 0
    assert rank_of(canonical_form(F3, 4, 3, 1)) == 3
    assert rank_of(form(F2, 3, {(0, 1): 1, (2, 2): 1})) == 3


@pytest.mark.parametrize("q", [3, 5, 9])
def test_odd_q_radicals_coincide(q):
    fld = SMALL_FIELDS[q]
    rng = random.Random(q)
    for _ in range(25):
        m = rng.randint(1, 4)
        Q = random_form(rng, fld, m)
        rb = radical_bilinear(bilinear_of(Q))
        rf = radical_form(Q)
        assert rb == rf
        assert all(Q.evaluate(u) == 0 for u in rb)


# -- zero counts -------------------------------------------------------------------

def test_zero_count_formula_examples():
    assert zero_count_formula(0, 1, 3, 2) == 9
    assert zero_count_formula(2, 1, 2, 2) == 3
    assert zero_count_formula(4, -1, 3, 4) == 21


def test_zero_count_exhaustive_examples():
    assert zero_count_exhaustive(QuadraticForm.zero(F3, 2)) == 9
    assert zero_count_exhaustive(form(F2, 2, {(0, 1): 1})) == 3
    assert zero_count_exhaustive(form(F3, 2, {(0, 0): 1, (1, 1): 1})) == 1
    # rank-4 minus canonical over GF(3)^4 has 21 zeros
    assert zero_count_exhaustive(canonical_form(F3, 4, 4, -1)) == 21


def test_zero_count_budget():
    with pytest.raises(BudgetExceeded):
        zero_count_exhaustive(QuadraticForm.zero(F2, 4), max_points=10)


@pytest.mark.parametrize(
    "q,m",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2),
     (7, 1), (8, 1), (8, 2), (9, 1), (16, 2)],
)
def test_formula_matches_enumeration_on_every_form(q, m):
    fld = SMALL_FIELDS[q]
    for coeffs in itertools.product(range(q), repeat=triangle_size(m)):
        Q = QuadraticForm(fld, m, coeffs)
        rt = classify(Q)
        # the radical-based rank is independent of the symplectic reduction
        assert rt.rank == rank_of(Q)
        assert zero_count_exhaustive(Q) == zero_count_formula(rt.rank, rt.type_tag, q, m)


def test_zero_count_formula_validates():
    with pytest.raises(InconsistentRankType):
        zero_count_formula(1, 1, 2, 3)  # even q, odd rank is untyped
    with pytest.raises(InconsistentRankType):
        zero_count_formula(2, None, 3, 3)
    with pytest.raises(InconsistentRankType):
        zero_count_formula(0, -1, 3, 3)
    with pytest.raises(InconsistentRankType):
        zero_count_formula(4, 1, 3, 3)  # rank above m


# -- diagonalisation and type ------------------------------------------------------

def sum_of_squares(field, diag, x):
    acc = 0
    for a, xi in zip(diag, x):
        acc = field.add(acc, field.mul(a, field.mul(xi, xi)))
    return acc


def test_diagonalize_already_diagonal():
    Q = form(F3, 3, {(0, 0): 1, (1, 1): 2})
    diag, sub = diagonalize(Q)
    assert diag == (1, 2)
    assert sub.matrix == Substitution.identity(F3, 3).matrix


def test_diagonalize_zero_form():
    diag, sub = diagonalize(QuadraticForm.zero(F5, 2))
    assert diag == ()
    assert sub.matrix == Substitution.identity(F5, 2).matrix


def test_diagonalize_hyperbolic():
    Q = form(F3, 2, {(0, 1): F3.inv(2)})  # the function x1 * x2
    diag, sub = diagonalize(Q)
    assert len(diag) == 2
    for x in all_vectors(F3, 2):
        assert Q.evaluate(sub.apply(x)) == sum_of_squares(F3, diag, x)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_diagonalize_identity_pointwise(q):
    fld = SMALL_FIELDS[q]
    rng = random.Random(q * 13)
    for _ in range(25):
        m = rng.randint(1, 4)
        if fld.q ** m > 4096:
            continue
        Q = random_form(rng, fld, m)
        diag, sub = diagonalize(Q)
        assert len(diag) == rank_of(Q)
        assert all(a != 0 for a in diag)
        for x in all_vectors(fld, m):
            assert Q.evaluate(sub.apply(x)) == sum_of_squares(fld, diag, x)


def test_diagonalize_rejects_even_characteristic():
    with pytest.raises(EvenCharacteristic):
        diagonalize(QuadraticForm.zero(F2, 2))


def test_type_from_diagonal_examples():
    assert type_from_diagonal(F3, (1,)) == 1
    assert type_from_diagonal(F3, (1, 2)) == 1  # x1^2 - x2^2 is the plus form
    assert type_from_diagonal(F5, (1, 1)) == 1
    with pytest.raises(ZeroCoefficient):
        type_from_diagonal(F3, (1, 0))


def test_type_from_diagonal_cross_checked_by_zero_count():
    # q = 5, rank 2, diag (1, 1): plus type means q^(m-1) + q^(m-2)(q-1) zeros
    Q = form(F5, 2, {(0, 0): 1, (1, 1): 1})
    assert zero_count_exhaustive(Q) == zero_count_formula(2, 1, 5, 2) == 9


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_canonical_diagonal_types_consistent(q):
    # diagonal reading of each canonical form reproduces its declared type
    fld = SMALL_FIELDS[q]
    for r in range(1, 7):
        for tag in valid_tags(q, r):
            Q = canonical_form(fld, r, r, tag)
            diag, _ = diagonalize(Q)
            assert type_from_diagonal(fld, diag) == tag


# -- classify and canonical forms -----------------------------------------------------

def test_classify_examples():
    assert classify(QuadraticForm.zero(F3, 2)) == RankType(0, 1)
    Q = form(F2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert classify(Q) == RankType(2, -1)
    assert classify(form(F3, 2, {(0, 1): F3.inv(2)})) == RankType(2, 1)


def test_canonical_form_examples():
    Q = canonical_form(F2, 3, 3, None)
    assert {(i, j): Q.coeff(i, j) for i, j in triangle_pairs(3) if Q.coeff(i, j)} == {
        (0, 1): 1,
        (2, 2): 1,
    }
    Q = canonical_form(F3, 2, 2, -1)
    assert Q.coeffs == (1, 0, 1)  # x1^2 - 2 x2^2 = x1^2 + x2^2 over GF(3)
    assert canonical_form(F5, 3, 0, 1).is_zero()


def test_canonical_form_validation():
    with pytest.raises(InconsistentRankType):
        canonical_form(F2, 3, 1, 1)  # even q odd rank carries no type
    with pytest.raises(InconsistentRankType):
        canonical_form(F3, 2, 3, 1)  # rank above m
    with pytest.raises(InconsistentRankType):
        canonical_form(F3, 2, 0, -1)


@pytest.mark.parametrize("q", sorted(SMALL_FIELDS))
def test_classify_canonical_roundtrip(q):
    fld = SMALL_FIELDS[q]
    for m in range(0, 7):
        for r in range(0, m + 1):
            for tag in valid_tags(q, r):
                assert classify(canonical_form(fld, m, r, tag)) == RankType(r, tag)


@pytest.mark.parametrize("q", [2, 4])
def test_classify_past_enumeration_frontier(q):
    # GF(q)^30 has far too many points to count zeros; the class must come
    # back through a random change of variables all the same
    fld = SMALL_FIELDS[q]
    m = 30
    A = random_substitution(random.Random(q), fld, m)
    for r in range(0, m + 1):
        for tag in valid_tags(q, r):
            assert classify(substitute(canonical_form(fld, m, r, tag), A)) == RankType(r, tag)


# -- substitutions ---------------------------------------------------------------------

def test_substitution_validation():
    with pytest.raises(SingularSubstitution):
        Substitution(F3, 2, ((1, 2), (2, 1)))  # det = 1 - 4 = 0 mod 3
    with pytest.raises(DimensionMismatch):
        Substitution(F3, 2, ((1, 0),))


def test_substitute_identity():
    rng = random.Random(5)
    for fld, m in [(F2, 3), (F3, 2), (F4, 2), (F5, 3)]:
        Q = random_form(rng, fld, m)
        assert substitute(Q, Substitution.identity(fld, m)).coeffs == Q.coeffs


def test_substitute_scales_sum_of_squares_by_nonsquare():
    # x1 = y1 + y2, x2 = 2 y1 + y2 sends x1^2 + x2^2 to 2 (y1^2 + y2^2)
    Q = form(F3, 2, {(0, 0): 1, (1, 1): 1})
    A = Substitution(F3, 2, ((1, 1), (2, 1)))
    assert substitute(Q, A).coeffs == (2, 0, 2)


def test_substitute_matches_pointwise_composition():
    rng = random.Random(11)
    for fld, m in [(F2, 3), (F3, 2), (F4, 2), (F5, 2), (SMALL_FIELDS[9], 2)]:
        for _ in range(10):
            Q = random_form(rng, fld, m)
            A = random_substitution(rng, fld, m)
            QA = substitute(Q, A)
            for x in all_vectors(fld, m):
                assert QA.evaluate(x) == Q.evaluate(A.apply(x))


def test_classify_invariant_under_substitution():
    rng = random.Random(23)
    for fld, m in [(F2, 3), (F3, 3), (F5, 2), (F4, 2)]:
        for _ in range(15):
            Q = random_form(rng, fld, m)
            expected = classify(Q)
            for _ in range(3):
                A = random_substitution(rng, fld, m)
                assert classify(substitute(Q, A)) == expected


# -- hypothesis properties ----------------------------------------------------------

@st.composite
def form_and_vectors(draw):
    q, pe = draw(st.sampled_from([(2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (5, (5, 1)), (9, (3, 2))]))
    fld = field_new(*pe)
    m = draw(st.integers(1, 3))
    coeffs = tuple(
        draw(st.lists(st.integers(0, q - 1), min_size=triangle_size(m), max_size=triangle_size(m)))
    )
    x = tuple(draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m)))
    y = tuple(draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m)))
    return QuadraticForm(fld, m, coeffs), x, y


@given(form_and_vectors())
@settings(max_examples=120, deadline=None)
def test_bilinear_identity_property(data):
    Q, x, y = data
    fld = Q.field
    s = tuple(fld.add(a, b) for a, b in zip(x, y))
    assert Q.evaluate(s) == fld.add(
        fld.add(Q.evaluate(x), Q.evaluate(y)), bilinear_of(Q).apply(x, y)
    )


@given(form_and_vectors(), st.integers(0, 8))
@settings(max_examples=120, deadline=None)
def test_square_scaling_property(data, lam_seed):
    Q, x, _ = data
    fld = Q.field
    lam = lam_seed % fld.q
    lx = tuple(fld.mul(lam, xi) for xi in x)
    assert Q.evaluate(lx) == fld.mul(fld.mul(lam, lam), Q.evaluate(x))
