"""Quadratic forms on GF(q)^m: representation, rank and type
classification (over odd q by two row reductions per form, the
coefficient matrix and then its pivot block; over even q by one
symplectic reduction), canonical representatives, and exact zero
counts.

A form is stored as its upper-triangle coefficient table c[i][j], i <= j,
row-major. For even q that table is the unique representation
``sum_{i<=j} c_ij x_i x_j``. For odd q it is the upper half of the
symmetric coefficient matrix (c_ji = c_ij), so the stored form evaluates
as ``sum_i c_ii x_i^2 + sum_{i<j} 2 c_ij x_i x_j``.

The enumeration oracles lay the points of GF(q)^m out as an m-axis grid
of element indices, coordinate i along axis i; raveling the grid gives
the index order, in which the point with index n has the base-q digits
of n as coordinates, leftmost coordinate most significant, so point 0 is
the zero vector.

This module is the one producer of point arrays, in one (q^m, F) layout,
column f holding form f in index order. ``_form_chunks`` yields listed
forms' values as such an array. ``_form_blocks``, which walks every
combination of some monomials, yields (low, high) pairs whose
``add[low, high]`` is that array, so a caller that needs less than the
values need not build them: the hrm2 oracle counts zeros as the points
where low = -high, which measured 0.21 against 0.33 ms at (q, m) = (3, 3),
40 against 766 ms at (2, 6) and 79 against 281 ms at (31, 2), compared with
building ``add[low, high]`` and counting its zeros.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InconsistentRankType, InternalInconsistency, admit
from .field import FiniteField

# points zero_count_exhaustive may enumerate
POINT_BUDGET = 1 << 24

# entries of the largest array one block of forms may build in the
# enumeration oracles (census, codewords, coset spectra); bounds their memory
_BLOCK = 1 << 18


def triangle_size(m: int) -> int:
    return m * (m + 1) // 2


def triangle_pairs(m: int) -> list[tuple[int, int]]:
    """(i, j) index pairs with i <= j in row-major order."""
    return [(i, j) for i in range(m) for j in range(i, m)]


# -- linear algebra over a finite field ---------------------------------------

def _row_reduce(field, rows):
    """In-place reduced row echelon form; returns the pivot columns and the
    product of the pivots, negated once per row swap (the determinant, when
    the matrix is square and nonsingular)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    det = 1
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = field.neg(det)
        det = field.mul(det, rows[r][col])
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return pivots, det


# -- domain types --------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticForm:
    field: FiniteField
    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0:
            raise DimensionMismatch("number of variables must be >= 0")
        if len(self.coeffs) != triangle_size(self.m):
            raise DimensionMismatch(
                f"expected {triangle_size(self.m)} coefficients, got {len(self.coeffs)}"
            )
        if any(not (0 <= c < self.field.q) for c in self.coeffs):
            raise DimensionMismatch("coefficient outside the field")

    @classmethod
    def zero(cls, field, m):
        return cls(field, m, (0,) * triangle_size(m))

    @classmethod
    def from_entries(cls, field, m, entries):
        """Build from a sparse {(i, j): value} mapping, 0-based, i <= j."""
        coeffs = [0] * triangle_size(m)
        for (i, j), v in dict(entries).items():
            if not 0 <= i <= j < m:
                raise DimensionMismatch(f"bad coefficient index ({i}, {j})")
            coeffs[i * m - i * (i + 1) // 2 + j] = v  # row-major, i <= j
        return cls(field, m, tuple(coeffs))

    def symmetric_matrix(self):
        """Full m x m coefficient matrix (mirrored upper triangle), as new lists."""
        rows, start = [], 0
        for i in range(self.m):
            rows.append([row[i] for row in rows] + list(self.coeffs[start:start + self.m - i]))
            start += self.m - i
        return rows


# the text label of each type tag, in census and CLI output
TYPE_LABELS = {1: "plus", -1: "minus", None: "untyped"}
# the type tag of each label
TYPE_TAGS = {label: tag for tag, label in TYPE_LABELS.items()}


def admissible_tags(q: int, rank: int) -> tuple:
    """The type tags a form of this rank can carry over GF(q): +1 alone for
    the zero form, None alone for odd rank over even q, else +1 and -1."""
    if rank == 0:
        return (1,)
    if rank % 2 and q % 2 == 0:
        return (None,)
    return (1, -1)


@dataclass(frozen=True)
class RankType:
    rank: int
    type_tag: int | None  # one of admissible_tags(q, rank)

    @property
    def label(self) -> str:
        return TYPE_LABELS[self.type_tag]


def validate_rank_type(q: int, m: int, rank: int, type_tag) -> None:
    """Raise InconsistentRankType unless (rank, type_tag) is admissible on GF(q)^m."""
    if not 0 <= rank <= m:
        raise InconsistentRankType(f"rank {rank} outside [0, {m}]")
    tags = admissible_tags(q, rank)
    if type_tag not in tags:
        allowed = " or ".join(TYPE_LABELS[t] for t in tags)
        try:
            got = TYPE_LABELS[type_tag]
        except (KeyError, TypeError):  # no tag at all: name it as Python does
            got = repr(type_tag)
        raise InconsistentRankType(f"rank {rank} over GF({q}) takes type {allowed}, got {got}")


# -- exact zero counts -----------------------------------------------------------

def zero_count_formula(rank: int, type_tag, q: int, m: int) -> int:
    """Number of zeros of a form with the given classification, closed form."""
    validate_rank_type(q, m, rank, type_tag)
    if rank == 0:
        return q ** m
    if rank % 2 == 1:
        return q ** (m - 1)
    return q ** (m - 1) + type_tag * q ** (m - (rank + 2) // 2) * (q - 1)


def _term(field: FiniteField, m: int, i: int, j: int) -> np.ndarray:
    """x_i x_j on the m-axis grid of GF(q)^m, read off the mul table (its
    diagonal when i = j): q entries along axes i and j, and 1 along every
    later axis, so it broadcasts into any array of the grid's shape."""
    q = field.q
    mul = field.mul_array
    if i == j:
        return mul.diagonal().reshape((q,) + (1,) * (m - 1 - i))
    return mul.reshape((q,) + (1,) * (j - i - 1) + (q,) + (1,) * (m - 1 - j))


def values_on_domain(form: QuadraticForm) -> np.ndarray:
    """Q evaluated at every point of GF(q)^m in index order.

    Built from the field's q x q operation tables, so q is limited to
    ``GRID_TABLE_MAX``; larger fields raise FieldTooLarge. Each nonzero
    term c x_i x_j is c times ``_term``, broadcast into the sum along axes
    i and j, so no array but the sum holds q^m entries.
    """
    fld = form.field
    add, mul = fld.add_array, fld.mul_array
    m, q = form.m, fld.q
    acc = np.zeros((q,) * m, dtype=fld.dtype)
    for (i, j), c in zip(triangle_pairs(m), form.coeffs):
        if not c:
            continue
        if i != j and fld.p != 2:
            c = fld.add(c, c)  # the stored c_ij counts twice
        acc = add[acc, mul[c][_term(fld, m, i, j)]]
    return acc.ravel()


def _block_rows(per_form: int) -> int:
    """Forms one block holds: as many as keep ``per_form`` entries each
    within ``_BLOCK``, at least one."""
    return max(1, _BLOCK // per_form)


def _form_chunks(forms, per_form):
    """The values of ``forms``, all of one field and m, as one (q^m, F)
    array per chunk of ``_block_rows(per_form)`` forms."""
    rows = _block_rows(per_form)
    for start in range(0, len(forms), rows):
        yield np.stack([values_on_domain(Q) for Q in forms[start:start + rows]], axis=1)


def _form_blocks(field, m, pairs, per_form):
    """Every linear combination over the field of the monomials x_i x_j,
    (i, j) in ``pairs``, in ``itertools.product`` order of the
    coefficients, in blocks of as many as keep ``per_form`` entries each
    within ``_BLOCK`` (at least one). A block is a pair (low, high) whose
    values, shape (q^m, F), are add[low, high]: ``low`` has one column per
    combination of the last monomials and is built once, ``high`` is one
    column that walks the span of the rest. With no pairs the one
    combination is zero on every point.

    Over any q the span of the monomials x_i x_j (i <= j) is the set of
    quadratic forms, one function per coefficient table: over odd q the
    cross term 2 c_ij x_i x_j runs over the same span, as 2 is a unit.
    """
    add, mul = field.add_array, field.mul_array
    planes = [np.broadcast_to(_term(field, m, i, j), (field.q,) * m).ravel() for i, j in pairs]
    rows = _block_rows(per_form)
    low = np.zeros((field.q ** m, 1), dtype=field.dtype)
    split = len(planes)
    while split and low.shape[1] * field.q <= rows:
        split -= 1
        low = add[low[:, None, :], mul[:, planes[split]].T[:, :, None]].reshape(len(low), -1)
    for coeffs in itertools.product(field.elements(), repeat=split):
        high = low[:, :1]
        for c, plane in zip(coeffs, planes):
            high = add[high, mul[c][plane][:, None]]
        yield low, high


def zero_count_exhaustive(form: QuadraticForm) -> int:
    """Count zeros by full enumeration of the q^m points, at most
    ``POINT_BUDGET`` of them."""
    admit(form.field.q ** form.m, POINT_BUDGET, "points")
    return int(np.count_nonzero(values_on_domain(form) == 0))


# -- affine-shift counts ------------------------------------------------------------

def affine_shift_counts(field: FiniteField, m: int, values: np.ndarray) -> np.ndarray:
    """H[f, L, s] = #{x in GF(q)^m : values[x, f] + L.x = s}, exactly.

    ``values`` has shape (q^m, F), as ``_form_blocks`` and ``_form_chunks``
    build it: column f holds form f on the points in index order. H has
    shape (F, q^m, q), L indexed like the points, in the smallest dtype
    that holds q^m. The zero count of Q_f + L + c is H[f, L, -c].

    Coordinates are transformed one at a time, as in the fast Hadamard
    transform (MacWilliams and Sloane, ch. 2): x_0 by one bincount of the
    values, each later x_i by one gather through the (q, q, q) table
    s - l*a, C[s, .., a, ..] -> sum_a C[s - l*a, .., a, ..]. A form costs
    O(m q^(m+2)), and the largest array holds F q^(m+2) counts (F q^2
    keys when m = 1).
    """
    q = field.q
    n, forms = values.shape
    dtype = np.min_scalar_type(n)
    if m == 0:
        return (values.reshape(forms, 1, 1) == np.arange(q)).astype(dtype)
    add, mul = field.add_array, field.mul_array
    rest = n // q * forms
    # keys[l, a, r] = ((V[a, r] + l*a) * q + l) * rest + r, for x_0 = a
    keys = add[values.reshape(1, q, rest), mul[:, :, None]].astype(np.int64)
    keys *= q * rest
    keys += np.arange(0, q * rest, rest)[:, None, None] + np.arange(rest)
    counts = np.bincount(keys.ravel(), minlength=q * q * rest).astype(dtype)
    if m > 1:
        # index[l, a, s] = s - l*a, built only here: when m = 1, q may be 1024
        neg = np.array([field.neg(c) for c in range(q)])
        index = add[np.arange(q), neg[mul][:, :, None]]
    for i in range(1, m):
        before = counts.reshape(q, q ** i, q, -1)  # (s, l_0..l_(i-1), x_i, rest)
        after = before[index, :, np.arange(q)[:, None]].sum(axis=1, dtype=dtype)
        counts = after.transpose(1, 2, 0, 3)  # (s, l_0..l_i, rest)
    return counts.reshape(q, n, forms).transpose(2, 1, 0)


def affine_shift_steps(q: int, m: int) -> int:
    """Steps ``affine_shift_counts`` takes per form: q comparisons at m = 0,
    else q^(m+1) bincount keys for x_0 and q^(m+2) gathered counts for each
    later coordinate."""
    return q if m == 0 else q ** (m + 1) + (m - 1) * q ** (m + 2)


# -- symplectic reduction and Arf invariant (even q) ---------------------------------

def _symplectic_reduction(form: QuadraticForm) -> tuple[int, int]:
    """(rank, Arf sum) of an even-q form, from a symplectic basis.

    Starts from the coordinate basis with Q(e_i) = c_ii and the
    alternating Gram matrix B(e_i, e_j) = c_ij. Each live vector e is
    paired with the first live f where B(e, f) != 0; f is scaled so that
    B(e, f) = 1, Q(e) Q(f) joins the Arf sum, and every other live v
    becomes v + B(v, f) e + B(v, e) f, which is orthogonal to both. A
    vector left without a partner lies in the bilinear radical, where Q
    is additive, so the rank is 2 * pairs, plus 1 when Q is nonzero on
    any such vector. O(m^3) field operations; addition in characteristic
    2 is XOR of element indices.
    """
    fld = form.field
    mul = fld.mul
    m = form.m
    G = form.symmetric_matrix()
    Q = [G[i][i] for i in range(m)]
    for i in range(m):
        G[i][i] = 0
    live = list(range(m))
    pairs = arf = 0
    radical_nonzero = False
    while live:
        e = live.pop(0)
        f = next((v for v in live if G[e][v]), None)
        if f is None:
            radical_nonzero = radical_nonzero or Q[e] != 0
            continue
        live.remove(f)
        s = fld.inv(G[e][f])
        Q[f] = mul(Q[f], mul(s, s))
        arf ^= mul(Q[e], Q[f])
        pairs += 1
        # a_v = B(v, f) after scaling f, b_v = B(v, e)
        a = {v: mul(G[v][f], s) for v in live}
        b = {v: G[v][e] for v in live}
        for v in live:
            av, bv = a[v], b[v]
            if av or bv:
                Q[v] ^= mul(mul(av, av), Q[e]) ^ mul(mul(bv, bv), Q[f]) ^ mul(av, bv)
                row = G[v]
                for w in live:
                    row[w] ^= mul(av, b[w]) ^ mul(bv, a[w])
    return 2 * pairs + radical_nonzero, arf


def classify(form: QuadraticForm) -> RankType:
    """Rank and type of a form.

    Odd q: two row reductions. The first, of the coefficient matrix C
    (the polar Gram matrix is 2C, and 2 is a unit), gives the rank r and
    the pivot columns J. C is symmetric, so the block C[J, J] is
    nonsingular, and Q is the orthogonal sum of its restriction to
    span{e_j : j in J} and the zero form on the radical. The second
    reduction, of that block, gives its determinant d, and Q is congruent
    to d y_1^2 + y_2^2 + ... + y_r^2, whose type is the quadratic
    character of (-1)^floor(r/2) d.
    A singular block raises InternalInconsistency. Even q: one symplectic
    reduction gives the rank and the Arf invariant, and an even rank has
    type +1 exactly when the Arf invariant has absolute trace 0 (Lidl and
    Niederreiter, Finite Fields, ch. 6).
    Both cost O(m^3) field operations; no point of GF(q)^m is enumerated.
    """
    fld = form.field
    if fld.p == 2:
        r, arf = _symplectic_reduction(form)
        if r % 2:
            return RankType(r, None)
        return RankType(r, 1 if fld.trace(arf) == 0 else -1)
    C = form.symmetric_matrix()
    J, _ = _row_reduce(fld, [list(row) for row in C])
    r = len(J)
    if r == 0:
        return RankType(0, 1)
    block = [[C[i][j] for j in J] for i in J]
    pivots, det = _row_reduce(fld, block)
    if len(pivots) != r:
        raise InternalInconsistency("the pivot block of the coefficient matrix is singular")
    sign = fld.neg(1) if r // 2 % 2 else 1
    return RankType(r, fld.quadratic_character(fld.mul(sign, det)))


def canonical_form(field: FiniteField, m: int, rank: int, type_tag) -> QuadraticForm:
    """The canonical representative of the (rank, type) equivalence class:
    hyperbolic pairs x_{2i-1} x_{2i}, then a tail on the variables left
    below the rank. An even-q form of even rank and type plus is all pairs;
    every other form of positive rank keeps a tail of one variable (odd
    rank) or two. Even q: the tail is x_r^2, or x_{r-1}^2 + x_{r-1} x_r +
    lambda x_r^2 with lambda of trace one (minus type). Odd q: x_r^2 or
    lambda x_r^2 (odd rank), x_{r-1}^2 - x_r^2 or x_{r-1}^2 - lambda x_r^2
    (even rank), with lambda the smallest nonsquare; the pairs' cross
    coefficient is 1/2, so they read x_{2i-1} x_{2i} too.
    """
    validate_rank_type(field.q, m, rank, type_tag)
    even_q = field.p == 2
    pair_count = rank // 2 if even_q and type_tag == 1 else max(rank - 1, 0) // 2
    # past q = 1,024 inv reads the log tables: built only when a pair needs 1/2
    cross = 1 if even_q or not pair_count else field.inv(2)
    entries = {(2 * i, 2 * i + 1): cross for i in range(pair_count)}
    t = 2 * pair_count  # the tail's first variable
    lam = 1
    if type_tag == -1:
        lam = field.smallest_trace_one() if even_q else field.smallest_nonsquare()
    if rank - t == 1:
        entries[(t, t)] = lam
    elif rank - t == 2:
        entries[(t, t)] = 1
        entries[(t, t + 1)] = 1 if even_q else 0
        entries[(t + 1, t + 1)] = lam if even_q else field.neg(lam)
    return QuadraticForm.from_entries(field, m, entries)
