"""Quadratic forms on GF(q)^m: representation, rank and type
classification, canonical representatives, substitutions, and exact zero
counts.

A form is stored as its upper-triangle coefficient table c[i][j], i <= j,
row-major. For even q that table is the unique representation
``sum_{i<=j} c_ij x_i x_j``. For odd q it is the upper half of the
symmetric coefficient matrix (c_ji = c_ij), so the stored form evaluates
as ``sum_i c_ii x_i^2 + sum_{i<j} 2 c_ij x_i x_j``.

Points of GF(q)^m are tuples of element indices; the point with index n
has base-q digits of n as coordinates, leftmost coordinate most
significant, so point 0 is the zero vector.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EvenCharacteristic,
    InconsistentRankType,
    InternalInconsistency,
    SingularSubstitution,
    ZeroCoefficient,
)
from .field import GRID_TABLE_MAX, FiniteField

DEFAULT_POINT_BUDGET = 1 << 24


def triangle_size(m: int) -> int:
    return m * (m + 1) // 2


def triangle_pairs(m: int) -> list[tuple[int, int]]:
    """(i, j) index pairs with i <= j in row-major order."""
    return [(i, j) for i in range(m) for j in range(i, m)]


def all_vectors(field: FiniteField, m: int):
    """All points of GF(q)^m in index order (leftmost digit most significant)."""
    return itertools.product(range(field.q), repeat=m)


# -- linear algebra over a finite field ---------------------------------------

def _row_reduce(field, rows):
    """In-place reduced row echelon form; returns pivot column list."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
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
    return pivots


def _null_space(field, matrix):
    """Basis of the right null space, one vector per free column, ascending."""
    rows = [list(row) for row in matrix]
    if not rows:
        return []
    n_cols = len(rows[0])
    pivots = _row_reduce(field, rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [0] * n_cols
        vec[free] = 1
        for k, pc in enumerate(pivots):
            vec[pc] = field.neg(rows[k][free])
        basis.append(tuple(vec))
    return basis


def _matrix_rank(field, matrix):
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    return len(_row_reduce(field, rows))


def _mat_mul(field, A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            a = A[i][t]
            if a:
                row_b = B[t]
                row_o = out[i]
                for j in range(m):
                    if row_b[j]:
                        row_o[j] = field.add(row_o[j], field.mul(a, row_b[j]))
    return out


def _mat_vec(field, A, x):
    out = []
    for row in A:
        acc = 0
        for a, v in zip(row, x):
            if a and v:
                acc = field.add(acc, field.mul(a, v))
        out.append(acc)
    return tuple(out)


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
            coeffs[cls._index(m, i, j)] = v
        return cls(field, m, tuple(coeffs))

    @staticmethod
    def _index(m, i, j):
        return i * m - i * (i + 1) // 2 + j

    def coeff(self, i, j) -> int:
        """c_ij; indices are mirrored, matching the symmetric odd-q table."""
        if i > j:
            i, j = j, i
        return self.coeffs[self._index(self.m, i, j)]

    def evaluate(self, x) -> int:
        if len(x) != self.m:
            raise DimensionMismatch(f"point has {len(x)} coordinates, form has {self.m}")
        fld = self.field
        add, mul = fld.add, fld.mul
        odd = fld.p != 2
        acc = 0
        k = 0
        for i in range(self.m):
            xi = x[i]
            for j in range(i, self.m):
                c = self.coeffs[k]
                k += 1
                if c and xi and x[j]:
                    t = mul(c, mul(xi, x[j]))
                    if odd and j > i:
                        t = add(t, t)
                    acc = add(acc, t)
        return acc

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def symmetric_matrix(self):
        """Full m x m coefficient matrix (mirrored upper triangle)."""
        return [[self.coeff(i, j) for j in range(self.m)] for i in range(self.m)]


@dataclass(frozen=True)
class BilinearForm:
    field: FiniteField
    m: int
    gram: tuple[tuple[int, ...], ...]

    def apply(self, x, y) -> int:
        if len(x) != self.m or len(y) != self.m:
            raise DimensionMismatch("vector length differs from the form dimension")
        fld = self.field
        acc = 0
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.gram[i]
            for j, yj in enumerate(y):
                if yj and row[j]:
                    acc = fld.add(acc, fld.mul(xi, fld.mul(row[j], yj)))
        return acc


@dataclass(frozen=True)
class RankType:
    rank: int
    type_tag: int | None  # +1, -1, or None for the untyped even-q odd-rank case

    @property
    def label(self) -> str:
        if self.type_tag == 1:
            return "plus"
        if self.type_tag == -1:
            return "minus"
        return "untyped"


@dataclass(frozen=True)
class Substitution:
    field: FiniteField
    m: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.m or any(len(r) != self.m for r in self.matrix):
            raise DimensionMismatch("substitution matrix must be m x m")
        if any(not (0 <= v < self.field.q) for r in self.matrix for v in r):
            raise DimensionMismatch("matrix entry outside the field")
        if _matrix_rank(self.field, self.matrix) != self.m:
            raise SingularSubstitution("substitution matrix is singular")

    @classmethod
    def identity(cls, field, m):
        return cls(field, m, tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m)))

    def apply(self, x):
        return _mat_vec(self.field, self.matrix, x)


def validate_rank_type(q: int, m: int, rank: int, type_tag) -> None:
    """Raise InconsistentRankType unless (rank, type_tag) is admissible on GF(q)^m."""
    if not 0 <= rank <= m:
        raise InconsistentRankType(f"rank {rank} outside [0, {m}]")
    if rank == 0:
        if type_tag != 1:
            raise InconsistentRankType("the zero form has type +1")
    elif rank % 2 == 1 and q % 2 == 0:
        if type_tag is not None:
            raise InconsistentRankType("odd rank carries no type for even q")
    else:
        if type_tag not in (1, -1):
            raise InconsistentRankType(f"type must be +1 or -1, got {type_tag!r}")


# -- structure maps -------------------------------------------------------------

def bilinear_of(form: QuadraticForm) -> BilinearForm:
    """The symmetric bilinear form B(x, y) = Q(x+y) - Q(x) - Q(y)."""
    fld = form.field
    m = form.m
    if fld.p == 2:
        gram = [[form.coeff(i, j) if i != j else 0 for j in range(m)] for i in range(m)]
    else:
        gram = [[fld.add(form.coeff(i, j), form.coeff(i, j)) for j in range(m)] for i in range(m)]
    return BilinearForm(fld, m, tuple(tuple(r) for r in gram))


def radical_bilinear(bilinear: BilinearForm):
    """Basis of {y : B(x, y) = 0 for all x}."""
    return _null_space(bilinear.field, bilinear.gram)


def radical_form(form: QuadraticForm):
    """Basis of the zero set of Q inside the bilinear radical.

    For odd q the two radicals coincide. For even q, Q restricted to the
    bilinear radical is additive and semilinear, so its zero set is the
    kernel of the linearised functional t -> sum_i sqrt(Q(u_i)) t_i.
    """
    fld = form.field
    basis = radical_bilinear(bilinear_of(form))
    if fld.p != 2:
        return basis
    weights = [fld.sqrt(form.evaluate(u)) for u in basis]
    piv = next((k for k, w in enumerate(weights) if w), None)
    if piv is None:
        return basis
    inv = fld.inv(weights[piv])
    out = []
    for k, u in enumerate(basis):
        if k == piv:
            continue
        f = fld.mul(weights[k], inv)
        out.append(tuple(fld.sub(a, fld.mul(f, b)) for a, b in zip(u, basis[piv])))
    return out


def rank_of(form: QuadraticForm) -> int:
    return form.m - len(radical_form(form))


# -- exact zero counts -----------------------------------------------------------

def zero_count_formula(rank: int, type_tag, q: int, m: int) -> int:
    """Number of zeros of a form with the given classification, closed form."""
    validate_rank_type(q, m, rank, type_tag)
    if rank == 0:
        return q ** m
    if rank % 2 == 1:
        return q ** (m - 1)
    return q ** (m - 1) + type_tag * q ** (m - (rank + 2) // 2) * (q - 1)


@functools.lru_cache(maxsize=8)
def _coordinate_planes(field: FiniteField, m: int):
    n = field.q ** m
    idx = np.arange(n, dtype=np.int64)
    planes = []
    for i in range(m):
        w = field.q ** (m - 1 - i)
        planes.append(((idx // w) % field.q).astype(field.dtype))
    return tuple(planes)


@functools.lru_cache(maxsize=8)
def _monomial_planes(field: FiniteField, m: int):
    planes = _coordinate_planes(field, m)
    mul = field.mul_array
    return tuple(mul[planes[i], planes[j]] for i, j in triangle_pairs(m))


def values_on_domain(form: QuadraticForm):
    """Q evaluated at every point of GF(q)^m in index order.

    Returns a numpy array when the field has operation tables, else a list.
    """
    fld = form.field
    if fld.q <= GRID_TABLE_MAX:
        n = fld.q ** form.m
        add, mul = fld.add_array, fld.mul_array
        mono = _monomial_planes(fld, form.m)
        odd = fld.p != 2
        acc = np.zeros(n, dtype=fld.dtype)
        for k, (i, j) in enumerate(triangle_pairs(form.m)):
            c = form.coeffs[k]
            if not c:
                continue
            term = mul[c][mono[k]]
            if odd and i != j:
                term = add[term, term]
            acc = add[acc, term]
        return acc
    return [form.evaluate(x) for x in all_vectors(fld, form.m)]


def zero_count_exhaustive(form: QuadraticForm, max_points: int = DEFAULT_POINT_BUDGET) -> int:
    """Count zeros by full enumeration of the q^m points."""
    n = form.field.q ** form.m
    if n > max_points:
        raise BudgetExceeded(f"domain has {n} points, budget is {max_points}")
    vals = values_on_domain(form)
    if isinstance(vals, np.ndarray):
        return int(np.count_nonzero(vals == 0))
    return sum(1 for v in vals if v == 0)


# -- diagonalisation and type (odd q) ---------------------------------------------

def _apply_transvection(field, C, A, i, j, t):
    # congruence by T = I + t*E_ij: column j += t*column i, then row j += t*row i
    m = len(C)
    for r in range(m):
        if C[r][i]:
            C[r][j] = field.add(C[r][j], field.mul(t, C[r][i]))
    for c in range(m):
        if C[i][c]:
            C[j][c] = field.add(C[j][c], field.mul(t, C[i][c]))
    for r in range(m):
        if A[r][i]:
            A[r][j] = field.add(A[r][j], field.mul(t, A[r][i]))


def _apply_swap(C, A, i, j):
    for row in C:
        row[i], row[j] = row[j], row[i]
    C[i], C[j] = C[j], C[i]
    for row in A:
        row[i], row[j] = row[j], row[i]


def diagonalize(form: QuadraticForm):
    """Congruence-reduce an odd-q form to sum a_i x_i^2.

    Returns (nonzero diagonal coefficients, substitution A) with
    Q(A y) = sum_i a_i y_i^2. Pivoting is deterministic: smallest
    available diagonal index first; if the active block has a zero
    diagonal, the smallest cross term is folded onto the diagonal by the
    variable change x_i -> x_i + x_j.
    """
    fld = form.field
    if fld.p == 2:
        raise EvenCharacteristic("diagonalisation requires odd characteristic")
    m = form.m
    C = [row[:] for row in form.symmetric_matrix()]
    A = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    k = 0
    while k < m:
        piv = next((i for i in range(k, m) if C[i][i]), None)
        if piv is None:
            cross = next(
                ((i, j) for i in range(k, m) for j in range(i + 1, m) if C[i][j]), None
            )
            if cross is None:
                break
            _apply_transvection(fld, C, A, cross[0], cross[1], 1)
            continue
        if piv != k:
            _apply_swap(C, A, k, piv)
        inv = fld.inv(C[k][k])
        for l in range(k + 1, m):
            if C[k][l]:
                _apply_transvection(fld, C, A, k, l, fld.neg(fld.mul(C[k][l], inv)))
        k += 1
    diag = tuple(C[i][i] for i in range(k))
    return diag, Substitution(fld, m, tuple(tuple(r) for r in A))


def type_from_diagonal(field: FiniteField, coefficients) -> int:
    """Type of sum a_i x_i^2 from the character of the coefficient product."""
    if field.p == 2:
        raise EvenCharacteristic("diagonal type reading requires odd characteristic")
    coefficients = tuple(coefficients)
    r = len(coefficients)
    if r == 0:
        return 1
    prod = 1
    for a in coefficients:
        if a == 0:
            raise ZeroCoefficient("diagonal coefficients must be nonzero")
        prod = field.mul(prod, a)
    delta = field.quadratic_character(prod)
    if field.q % 4 == 3 and r % 4 in (2, 3):
        return -delta
    return delta


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
    G = [[form.coeff(i, j) if i != j else 0 for j in range(m)] for i in range(m)]
    Q = [form.coeff(i, i) for i in range(m)]
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

    Odd q: the rank is the codimension of the radical and the type is
    read from a congruence diagonalisation. Even q: one symplectic
    reduction gives the rank and the Arf invariant, and an even rank has
    type +1 exactly when the Arf invariant has absolute trace 0 (Lidl and
    Niederreiter, Finite Fields, ch. 6). Both cost O(m^3) field
    operations; no point of GF(q)^m is enumerated.
    """
    fld = form.field
    if fld.p == 2:
        r, arf = _symplectic_reduction(form)
        if r % 2:
            return RankType(r, None)
        return RankType(r, 1 if fld.trace(arf) == 0 else -1)
    r = rank_of(form)
    if r == 0:
        return RankType(0, 1)
    diag, _ = diagonalize(form)
    if len(diag) != r:
        raise InternalInconsistency("diagonal length disagrees with the radical rank")
    return RankType(r, type_from_diagonal(fld, diag))


def canonical_form(field: FiniteField, m: int, rank: int, type_tag) -> QuadraticForm:
    """The canonical representative of the (rank, type) equivalence class.

    Even q: hyperbolic pairs x_{2i-1} x_{2i}, plus a tail x_r^2 for odd
    rank, or x_{r-1}^2 + x_{r-1} x_r + lambda x_r^2 (trace-one lambda) for
    the minus type. Odd q: hyperbolic pairs plus x_r^2 or lambda x_r^2
    (odd rank), or x_{r-1}^2 - x_r^2 / x_{r-1}^2 - lambda x_r^2 (even
    rank), with lambda the smallest nonsquare.
    """
    validate_rank_type(field.q, m, rank, type_tag)
    entries: dict[tuple[int, int], int] = {}
    even_q = field.p == 2
    if rank:
        if even_q:
            pair_count = (rank - 1) // 2 if rank % 2 else rank // 2
            if rank % 2 == 0 and type_tag == -1:
                pair_count = rank // 2 - 1
            for i in range(pair_count):
                entries[(2 * i, 2 * i + 1)] = 1
            if rank % 2 == 1:
                entries[(rank - 1, rank - 1)] = 1
            elif type_tag == -1:
                lam = field.smallest_trace_one()
                entries[(rank - 2, rank - 2)] = 1
                entries[(rank - 2, rank - 1)] = 1
                entries[(rank - 1, rank - 1)] = lam
        else:
            half = field.inv(2)  # cross coefficient producing the product x_i x_j
            pair_count = (rank - 1) // 2 if rank % 2 else rank // 2 - 1
            for i in range(pair_count):
                entries[(2 * i, 2 * i + 1)] = half
            lam = field.smallest_nonsquare()
            if rank % 2 == 1:
                entries[(rank - 1, rank - 1)] = 1 if type_tag == 1 else lam
            else:
                entries[(rank - 2, rank - 2)] = 1
                tail = 1 if type_tag == 1 else lam
                entries[(rank - 1, rank - 1)] = field.neg(tail)
    return QuadraticForm.from_entries(field, m, entries)


def substitute(form: QuadraticForm, sub: Substitution) -> QuadraticForm:
    """The form Q' with Q'(x) = Q(A x), in the unique representation."""
    fld = form.field
    m = form.m
    if sub.field != fld or sub.m != m:
        raise DimensionMismatch("substitution does not match the form")
    A = sub.matrix
    if fld.p != 2:
        C = form.symmetric_matrix()
        At = [[A[j][i] for j in range(m)] for i in range(m)]
        new = _mat_mul(fld, At, _mat_mul(fld, C, A))
        coeffs = tuple(new[i][j] for i, j in triangle_pairs(m))
        return QuadraticForm(fld, m, coeffs)
    out = [0] * triangle_size(m)
    for k, l in triangle_pairs(m):
        c = form.coeff(k, l)
        if not c:
            continue
        row_k, row_l = A[k], A[l]
        for i in range(m):
            a = row_k[i]
            if not a:
                continue
            for j in range(m):
                b = row_l[j]
                if not b:
                    continue
                lo, hi = (i, j) if i <= j else (j, i)
                idx = QuadraticForm._index(m, lo, hi)
                out[idx] = fld.add(out[idx], fld.mul(c, fld.mul(a, b)))
    return QuadraticForm(fld, m, tuple(out))
