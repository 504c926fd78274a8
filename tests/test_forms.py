"""Quadratic form representation, classification, canonical forms, and
zero counts, each checked against direct enumeration."""

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from algebra import evaluate, invertible, mat_mul, points, random_invertible, substitute
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrm import forms as forms_module
from qfrm.census import _rank_and_type
from qfrm.errors import (
    BudgetExceeded,
    FieldTooLarge,
    InconsistentRankType,
    InternalInconsistency,
)
from qfrm.field import field_from_order, field_new
from qfrm.forms import (
    POINT_BUDGET,
    QuadraticForm,
    RankType,
    _monomial_planes,
    admissible_tags,
    affine_shift_counts,
    affine_shift_steps,
    canonical_form,
    classify,
    triangle_pairs,
    triangle_size,
    values_on_domain,
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


def random_form(rng, field, m):
    return QuadraticForm(
        field, m, tuple(rng.randrange(field.q) for _ in range(triangle_size(m)))
    )


def polar(Q, x, y):
    """B(x, y) = Q(x + y) - Q(x) - Q(y) from the coefficient table: the Gram
    matrix is 2C over odd q, and C off its diagonal over even q."""
    fld = Q.field
    C = Q.symmetric_matrix()
    acc = 0
    for i in range(Q.m):
        for j in range(Q.m):
            c = C[i][j]
            g = fld.add(c, c) if fld.p != 2 else c * (i != j)
            acc = fld.add(acc, fld.mul(g, fld.mul(x[i], y[j])))
    return acc


# -- evaluation (the tests' reference in algebra.py) ----------------------------

def test_evaluate_examples():
    assert evaluate(QuadraticForm.zero(F3, 2), [(1, 2)]).tolist() == [0]
    assert evaluate(form(F2, 2, {(0, 1): 1}), [(1, 1)]).tolist() == [1]
    assert evaluate(form(F3, 2, {(0, 0): 1, (1, 1): 2}), [(1, 1)]).tolist() == [0]


def test_odd_q_cross_terms_count_twice():
    # stored c_12 = 1 evaluates as 2 * x1 * x2
    q = form(F3, 2, {(0, 1): 1})
    assert evaluate(q, [(1, 1)]).tolist() == [2]
    half = F3.inv(2)
    assert evaluate(form(F3, 2, {(0, 1): half}), [(1, 1)]).tolist() == [1]


def test_prime_field_evaluation_against_integer_arithmetic():
    # independent oracle: plain modular arithmetic on GF(p)
    rng = random.Random(7)
    for p in (2, 3, 5):
        fld = SMALL_FIELDS[p]
        for _ in range(20):
            m = rng.randint(1, 3)
            q = random_form(rng, fld, m)
            xs = points(fld, m)
            for x, value in zip(xs.tolist(), evaluate(q, xs).tolist()):
                expected = 0
                for (i, j), c in zip(triangle_pairs(m), q.coeffs):
                    weight = 1 if i == j or p == 2 else 2
                    expected += weight * c * x[i] * x[j]
                assert value == expected % p


# -- polar form and radicals -------------------------------------------------------

@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (3, 3), (2, 4)])
def test_bilinear_identity_and_scaling_exhaustive(q, m):
    fld = SMALL_FIELDS[q]
    rng = random.Random(q * 100 + m)
    forms = [random_form(rng, fld, m) for _ in range(5)]
    forms += [canonical_form(fld, m, r, admissible_tags(q, r)[0]) for r in range(m + 1)]
    xs = points(fld, m)
    for Q in forms:
        values = evaluate(Q, xs)
        for lam in range(fld.q):
            assert (evaluate(Q, fld.mul_array[lam, xs]) == fld.mul_array[fld.mul(lam, lam), values]).all()
        for x, qx in zip(xs.tolist(), values.tolist()):
            # Q(x + y) at every y, against Q(x) + Q(y) + B(x, y)
            expected = [
                fld.add(fld.add(qx, qy), polar(Q, x, y)) for y, qy in zip(xs.tolist(), values.tolist())
            ]
            assert evaluate(Q, fld.add_array[x, xs]).tolist() == expected


def test_rank_examples():
    assert classify(QuadraticForm.zero(F2, 3)).rank == 0
    assert classify(canonical_form(F3, 4, 3, 1)).rank == 3
    assert classify(form(F2, 3, {(0, 1): 1, (2, 2): 1})).rank == 3
    assert classify(form(F5, 3, {(0, 0): 1, (0, 1): 2, (1, 1): 4})).rank == 1


@pytest.mark.parametrize("q", [3, 5, 9])
def test_odd_q_radicals_coincide(q):
    # over odd q, Q vanishes on the radical of its polar form, so that
    # radical alone has size q^(m - rank)
    fld = SMALL_FIELDS[q]
    rng = random.Random(q)
    for _ in range(25):
        m = rng.randint(1, 4)
        if fld.q ** m > 729:
            continue
        Q = random_form(rng, fld, m)
        units = [tuple(int(i == k) for i in range(m)) for k in range(m)]
        radical = [y for y in points(fld, m).tolist() if all(polar(Q, e, y) == 0 for e in units)]
        assert not evaluate(Q, radical).any()
        assert len(radical) == q ** (m - classify(Q).rank)


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
    # 2^25 points: refused before any point is listed
    with pytest.raises(BudgetExceeded, match=f"^{2 ** 25} points exceed {POINT_BUDGET}$"):
        zero_count_exhaustive(QuadraticForm.zero(F2, 25))


def test_zero_count_refuses_fields_past_the_table_limit():
    # the enumeration runs on q x q operation tables; there is no per-point fallback
    with pytest.raises(FieldTooLarge):
        zero_count_exhaustive(QuadraticForm.zero(field_new(2, 11), 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_values_on_domain_match_pointwise_evaluation(q):
    fld = SMALL_FIELDS[q]
    rng = random.Random(104729 * q)
    for m in range(5 if q <= 5 else 4):
        for _ in range(4):
            Q = random_form(rng, fld, m)
            values = values_on_domain(Q)
            assert values.dtype == fld.dtype
            assert values.tolist() == evaluate(Q, points(fld, m)).tolist(), (q, m, Q.coeffs)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_monomial_planes_match_pointwise_products(q, m):
    # every i <= j pair, as the census oracle asks, and the i < j subset of
    # binary rm2, whose squares are linear
    fld = SMALL_FIELDS[q]
    xs = points(fld, m).tolist()
    every = triangle_pairs(m)
    for pairs in (every, [(i, j) for i, j in every if i < j]):
        planes = _monomial_planes(fld, m, pairs)
        assert len(planes) == len(pairs)
        for (i, j), plane in zip(pairs, planes):
            assert plane.dtype == fld.dtype
            assert plane.tolist() == [fld.mul(x[i], x[j]) for x in xs], (q, m, i, j)


def test_zero_count_builds_no_monomial_planes():
    # the 171 planes x_i x_j of GF(2)^18 would take 45 MB; the sum of the
    # terms takes 2^18 bytes, and each term q^2
    sparse = form(F2, 18, {(0, 1): 1, (2, 17): 1, (16, 16): 1})
    for Q in (QuadraticForm.zero(F2, 18), sparse):
        rt = classify(Q)
        tracemalloc.start()
        try:
            zeros = zero_count_exhaustive(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert zeros == zero_count_formula(rt.rank, rt.type_tag, 2, 18)
        assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_affine_shift_counts_match_direct_count(q, m):
    fld = SMALL_FIELDS[q]
    rng = random.Random(7919 * q + m)
    forms = [random_form(rng, fld, m) for _ in range(3)]
    counts = affine_shift_counts(fld, m, np.stack([values_on_domain(Q) for Q in forms]))
    assert counts.shape == (len(forms), q ** m, q)
    # dots[L, x] = L.x, with L and x both in point index order
    xs = points(fld, m)
    dots = mat_mul(fld, xs, xs.T)
    for f, Q in enumerate(forms):
        shifted = fld.add_array[dots, evaluate(Q, xs)[None, :]]  # Q(x) + L.x
        direct = (shifted[:, :, None] == np.arange(q)).sum(axis=1)
        assert (counts[f] == direct).all(), (q, m, Q.coeffs)


def test_affine_shift_steps_counts_the_kernel_loop():
    # q comparisons at m = 0; else q^(m+1) bincount keys for x_0 and one
    # (q, q, q) gather over q^(m-1) counts for each later coordinate
    assert [affine_shift_steps(q, 0) for q in (2, 1024)] == [2, 1024]
    assert affine_shift_steps(1024, 1) == 1024 ** 2
    assert affine_shift_steps(2, 17) == 2 ** 18 + 16 * 2 ** 19 == 8_650_752
    assert affine_shift_steps(3, 11) == 16_474_671
    assert affine_shift_steps(2, 18) == 18_350_080
    assert affine_shift_steps(7, 6) == 29_647_548


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_symmetric_matrix_mirrors_the_coefficient_table(q, m):
    Q = random_form(random.Random(31 * q + m), SMALL_FIELDS[q], m)
    matrix = Q.symmetric_matrix()
    table = dict(zip(triangle_pairs(m), Q.coeffs))
    assert matrix == [[table[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]
    matrix[0:1] = []  # a new list each call: the caller may change it
    assert len(Q.symmetric_matrix()) == m


@pytest.mark.parametrize(
    "q,m",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2),
     (7, 1), (8, 1), (8, 2), (9, 1), (16, 2)],
)
def test_formula_matches_enumeration_on_every_form(q, m):
    fld = SMALL_FIELDS[q]
    forms = [QuadraticForm(fld, m, c) for c in itertools.product(range(q), repeat=triangle_size(m))]
    # the census oracle's rank comes from point counts, apart from classify
    ranks, _ = _rank_and_type(fld, m, np.stack([values_on_domain(Q) for Q in forms], axis=1))
    for Q, rank in zip(forms, ranks.tolist()):
        rt = classify(Q)
        assert rt.rank == rank
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


# -- classification and type (odd q) -------------------------------------------------

@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_classify_agrees_with_point_count_invariants(q):
    # classify against the census oracle's rank and type, read from point counts
    fld = SMALL_FIELDS[q]
    rng = random.Random(q * 13)
    for _ in range(25):
        m = rng.randint(1, 4)
        if fld.q ** m > 4096:
            continue
        Q = random_form(rng, fld, m)
        ranks, tags = _rank_and_type(fld, m, values_on_domain(Q)[:, None])
        assert classify(Q) == RankType(ranks[0], tags[0])


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_classify_reads_the_type_of_a_diagonal_form(q):
    # sum a_i x_i^2 with r nonzero a_i has rank r and type
    # chi((-1)^floor(r/2) a_1 ... a_r); chi(-1) = -1 for q = 3 and 7, and
    # ranks 1 to 4 meet every r mod 4. The zero counts confirm each expected
    # type: an even rank shows it, and an odd rank keeps it when -y^2 joins
    # in a new variable. (1, 2) is x1^2 - x2^2 over GF(3), the plus form.
    fld = SMALL_FIELDS[q]
    rng = random.Random(q)
    diagonals = [(1,), (1, 2), (1, 1), (1, 0)]
    diagonals += [tuple(rng.randrange(1, q) for _ in range(r)) for r in (1, 2, 3, 4) for _ in range(3)]
    for diag in diagonals:
        r, product = 0, 1
        for a in filter(None, diag):
            r, product = r + 1, fld.mul(product, a)
        tag = fld.quadratic_character(fld.mul(fld.neg(1) if r // 2 % 2 else 1, product))
        assert classify(form(fld, len(diag), {(i, i): a for i, a in enumerate(diag)})) == RankType(r, tag)
        even = diag + (fld.neg(1),) * (r % 2)
        Q = form(fld, len(even), {(i, i): a for i, a in enumerate(even)})
        assert zero_count_exhaustive(Q) == zero_count_formula(r + r % 2, tag, q, len(even))


# -- classify and canonical forms -----------------------------------------------------

def test_classify_examples():
    assert classify(QuadraticForm.zero(F3, 2)) == RankType(0, 1)
    Q = form(F2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert classify(Q) == RankType(2, -1)
    assert classify(form(F3, 2, {(0, 1): F3.inv(2)})) == RankType(2, 1)


def test_classify_refuses_a_singular_pivot_block(monkeypatch):
    # the rank and the determinant come from two row reductions; a first
    # reduction that reports one pivot too many leaves a singular pivot
    # block, which classify must refuse
    real = forms_module._row_reduce
    calls = []

    def row_reduce(field, rows):
        pivots, det = real(field, rows)
        calls.append(rows)
        if len(calls) == 1:
            pivots = pivots + [next(j for j in range(len(rows[0])) if j not in pivots)]
        return pivots, det

    monkeypatch.setattr(forms_module, "_row_reduce", row_reduce)
    with pytest.raises(InternalInconsistency):
        classify(canonical_form(F3, 3, 2, -1))
    assert classify(canonical_form(F2, 3, 2, -1)) == RankType(2, -1)  # even q: no row reduction


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_odd_classify_makes_two_eliminations(monkeypatch, q):
    # one row reduction of the m x m coefficient matrix, then one of its
    # r x r pivot block
    fld = SMALL_FIELDS[q]
    shapes = []
    real = forms_module._row_reduce

    def row_reduce(field, rows):
        shapes.append((len(rows), len(rows[0])))
        return real(field, rows)

    monkeypatch.setattr(forms_module, "_row_reduce", row_reduce)
    rng = random.Random(q)
    for m in range(1, 7):
        for _ in range(5):
            Q = random_form(rng, fld, m)
            if any(Q.coeffs):
                shapes.clear()
                r = classify(Q).rank
                assert shapes == [(m, m), (r, r)]


def test_canonical_form_examples():
    Q = canonical_form(F2, 3, 3, None)
    assert {ij: c for ij, c in zip(triangle_pairs(3), Q.coeffs) if c} == {
        (0, 1): 1,
        (2, 2): 1,
    }
    Q = canonical_form(F3, 2, 2, -1)
    assert Q.coeffs == (1, 0, 1)  # x1^2 - 2 x2^2 = x1^2 + x2^2 over GF(3)
    assert not any(canonical_form(F5, 3, 0, 1).coeffs)


def test_every_canonical_form_is_pinned():
    # one sha256 over the coefficients of every admissible class with m <= 8:
    # classify prints the canonical form and verify's spectra check transforms
    # it, so a coefficient that moves changes their output
    qs = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 81, 125, 243, 1024, 2048, 2187)
    rows = [
        (q, m, r, tag, canonical_form(field_from_order(q), m, r, tag).coeffs)
        for q in qs for m in range(9) for r in range(m + 1) for tag in admissible_tags(q, r)
    ]
    assert len(rows) == 1318
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "1c3f79febe81a3f4ccf5ae7aafb37faaaab7263071c8d69ff6b97f21d928c963"


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
            for tag in admissible_tags(q, r):
                assert classify(canonical_form(fld, m, r, tag)) == RankType(r, tag)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_classify_past_enumeration_frontier(q):
    # GF(q)^30 has far too many points to count zeros; the class must come
    # back through a random change of variables all the same
    fld = SMALL_FIELDS[q]
    m = 30
    A = random_invertible(random.Random(q), fld, m)
    for r in range(0, m + 1):
        for tag in admissible_tags(q, r):
            assert classify(substitute(canonical_form(fld, m, r, tag), A)) == RankType(r, tag)


# -- substitutions ---------------------------------------------------------------------

def test_substitution_validation():
    # the draws of random_invertible are kept only when invertible
    assert not invertible(F3, [[1, 2], [2, 1]])  # det = 1 - 4 = 0 mod 3
    assert invertible(F3, [[1, 1], [2, 1]])
    assert not invertible(F4, [[2, 3], [3, 1]])  # det = 2 + 3 * 3 = 2 + 2 = 0 over GF(4)


def test_substitute_identity():
    rng = random.Random(5)
    for fld, m in [(F2, 3), (F3, 2), (F4, 2), (F5, 3)]:
        Q = random_form(rng, fld, m)
        assert substitute(Q, np.eye(m, dtype=np.int64)).coeffs == Q.coeffs


def test_substitute_scales_sum_of_squares_by_nonsquare():
    # x1 = y1 + y2, x2 = 2 y1 + y2 sends x1^2 + x2^2 to 2 (y1^2 + y2^2)
    Q = form(F3, 2, {(0, 0): 1, (1, 1): 1})
    assert substitute(Q, [[1, 1], [2, 1]]).coeffs == (2, 0, 2)


def test_substitute_matches_pointwise_composition():
    rng = random.Random(11)
    for fld, m in [(F2, 3), (F3, 2), (F4, 2), (F5, 2), (SMALL_FIELDS[9], 2)]:
        for _ in range(10):
            Q = random_form(rng, fld, m)
            A = random_invertible(rng, fld, m)
            xs = points(fld, m)
            # row x of xs A^T is the point A x
            assert (evaluate(substitute(Q, A), xs) == evaluate(Q, mat_mul(fld, xs, A.T))).all()


def test_classify_invariant_under_substitution():
    rng = random.Random(23)
    for fld, m in [(F2, 3), (F3, 3), (F5, 2), (F4, 2)]:
        for _ in range(15):
            Q = random_form(rng, fld, m)
            expected = classify(Q)
            for _ in range(3):
                A = random_invertible(rng, fld, m)
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
    qs, qx, qy = evaluate(Q, [s, x, y]).tolist()
    assert qs == fld.add(fld.add(qx, qy), polar(Q, x, y))


@given(form_and_vectors(), st.integers(0, 8))
@settings(max_examples=120, deadline=None)
def test_square_scaling_property(data, lam_seed):
    Q, x, _ = data
    fld = Q.field
    lam = lam_seed % fld.q
    lx = tuple(fld.mul(lam, xi) for xi in x)
    qlx, qx = evaluate(Q, [lx, x]).tolist()
    assert qlx == fld.mul(fld.mul(lam, lam), qx)
