"""Reference algebra for the tests: quadratic forms evaluated from their
definition, and linear changes of variables, on numpy arrays of element
indices. Nothing here calls the library's oracles (``values_on_domain``,
``_form_blocks``), so tests may check them against it.
"""

import itertools

import numpy as np

from qfrm.forms import QuadraticForm, triangle_pairs


def points(field, m):
    """The points of GF(q)^m in index order, one per row."""
    grid = itertools.product(field.elements(), repeat=m)
    return np.array(list(grid), dtype=np.int64).reshape(field.q ** m, m)


def mat_mul(field, A, B):
    """The matrix product A B over the field, for arrays of element indices:
    over a prime field one product of integers mod p, else one table
    lookup per term."""
    A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
    if field.e == 1:
        return A @ B % field.p
    add, mul = field.add_array, field.mul_array
    out = np.zeros((A.shape[0], B.shape[1]), dtype=field.dtype)
    for a, b in zip(A.T, B):
        out = add[out, mul[a[:, None], b]]
    return out


def form_values(field, m, coeffs, x):
    """Q(x) = sum_{i<=j} c_ij x_i x_j, each cross term doubled over odd q,
    for every row of ``coeffs`` (one coefficient table per form) at every
    row of ``x`` (one point per row), both 2-d: shape (forms, points)."""
    i, j = np.array(triangle_pairs(m), dtype=np.intp).reshape(-1, 2).T
    c = np.asarray(coeffs, dtype=np.int64)
    if field.p != 2:
        c = np.where(i == j, c, field.add_array[c, c])
    x = np.asarray(x, dtype=np.int64)
    return mat_mul(field, c, field.mul_array[x[:, i], x[:, j]].T)


def evaluate(form, x):
    """Q at every row of the 2-d ``x``, one value per point."""
    return form_values(form.field, form.m, [form.coeffs], x)[0]


def odd_rank_tags(field, values):
    """The type each form in ``values``, shape (q^m, F), one column per
    form, carries when its rank is odd over odd q: +1 when Q takes the
    value 1 more than q^(m-1) times, else -1. (Its zero count is q^(m-1)
    for both types.)"""
    return np.where((values == 1).sum(axis=0) * field.q > len(values), 1, -1)


def substitute(form, A):
    """The form Q' with Q'(x) = Q(A x). Q(x) = x^T U x, with U symmetric
    over odd q and upper triangular over even q, so Q' is read off
    M = A^T U A, folding M_ji onto M_ij over even q."""
    fld, m = form.field, form.m
    even = fld.p == 2
    U = np.array(form.symmetric_matrix(), dtype=np.int64).reshape(m, m)
    if even:
        U = np.triu(U)
    A = np.asarray(A).reshape(m, m)
    M = mat_mul(fld, A.T, mat_mul(fld, U, A)).tolist()
    return QuadraticForm(fld, m, tuple(
        fld.add(M[i][j], M[j][i]) if even and i != j else M[i][j]
        for i, j in triangle_pairs(m)
    ))


def invertible(field, A):
    """Whether the square matrix A is invertible over the field, by forward
    elimination: each pivot row, scaled to -1 at its pivot, is added times
    the column entry to every row below."""
    add, mul = field.add_array, field.mul_array
    rows = np.array(A, dtype=np.int64)
    for col in range(len(rows)):
        live = rows[col:, col].nonzero()[0]
        if not live.size:
            return False
        k = col + live[0]
        rows[[col, k]] = rows[[k, col]]
        pivot = mul[field.neg(field.inv(int(rows[col, col]))), rows[col]]
        rows[col + 1:] = add[rows[col + 1:], mul[rows[col + 1:, col][:, None], pivot]]
    return True


def random_invertible(rng, field, m):
    """An invertible m x m matrix: m rows of m ``rng.randrange(q)`` draws,
    drawn whole again until they are invertible."""
    while True:
        rows = [[rng.randrange(field.q) for _ in range(m)] for _ in range(m)]
        A = np.array(rows, dtype=np.int64).reshape(m, m)
        if invertible(field, A):
            return A
