"""Exact weight distributions of three second-order evaluation-code
families: the full degree-<=2 code (rm2), its homogeneous subcode (hrm2),
and the projective variant (prm2).

Closed-form distributions are assembled from the form census; every
family also has a brute-force codeword enumerator, and rm2 over q > 2 has
a third path that pastes coset weight multisets together, so each table
can be cross-checked two ways. Frequencies are exact big integers.

The rm2 balanced-weight row is computed from its explicit expression and
revalidated as q^k minus all other rows; any mismatch raises instead of
shipping a wrong table. The projective table is likewise revalidated
against the homogeneous table one dimension up, whose weights it must
reproduce after division by q - 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .census import count_even_rank, count_odd_rank, census_formula
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    NonDivisibleWeight,
    UnsupportedParameters,
)
from .field import FiniteField, field_from_order
from .forms import all_vectors, triangle_pairs, triangle_size
from .spectra import coset_weight_multiset

FAMILIES = ("rm2", "hrm2", "prm2")

DEFAULT_SYMBOL_BUDGET = 1 << 34

# codeword weights held per block of the split enumeration; bounds its working memory
_BLOCK_WORDS = 1 << 18


@dataclass(frozen=True)
class CodeParameters:
    n: int
    k: int
    d: int

    def __post_init__(self):
        if not (1 <= self.d <= self.n) or self.k < 1:
            raise InternalInconsistency(f"bad parameter triple {(self.n, self.k, self.d)}")


@dataclass
class WeightDistribution:
    family: str
    q: int
    m: int
    params: CodeParameters
    entries: dict[int, int]

    def __post_init__(self):
        self.entries = {w: f for w, f in sorted(self.entries.items()) if f}
        if self.entries.get(0) != 1:
            raise InternalInconsistency("weight 0 must occur exactly once")
        if any(f < 0 for f in self.entries.values()):
            raise InternalInconsistency("negative frequency")
        if any(not 0 <= w <= self.params.n for w in self.entries):
            raise InternalInconsistency("weight outside [0, n]")
        total = sum(self.entries.values())
        if total != self.q ** self.params.k:
            raise InternalInconsistency(f"frequencies total {total}, expected q^k")
        min_pos = min(w for w in self.entries if w > 0)
        if min_pos != self.params.d:
            raise InternalInconsistency(
                f"minimum positive weight {min_pos} differs from d = {self.params.d}"
            )

    def sorted_items(self):
        return sorted(self.entries.items())

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "m": self.m,
            "n": self.params.n,
            "k": self.params.k,
            "d": self.params.d,
            "distribution": [
                {"weight": w, "frequency": str(f)} for w, f in self.sorted_items()
            ],
        }

    def to_csv(self) -> str:
        lines = ["weight,frequency"]
        lines += [f"{w},{f}" for w, f in self.sorted_items()]
        return "\n".join(lines)


def code_parameters(family: str, q: int, m: int) -> CodeParameters:
    """Exact [n, k, d] for the family; guards the undefined corners."""
    if family not in FAMILIES:
        raise UnsupportedParameters(f"unknown family {family!r}")
    if family == "rm2":
        if q == 2:
            if m < 2:
                raise UnsupportedParameters("binary rm2 needs m >= 2")
            return CodeParameters(2 ** m, (m * m + m + 2) // 2, 2 ** (m - 2))
        if m < 1:
            raise UnsupportedParameters("rm2 needs m >= 1")
        return CodeParameters(q ** m, (m * m + 3 * m + 2) // 2, (q - 2) * q ** (m - 1))
    if m < 1:
        raise UnsupportedParameters(f"{family} needs m >= 1")
    if family == "hrm2":
        if m == 1:
            # the general d expression degenerates at m = 1; both corners are [q, 1, q-1]
            # except binary, whose two codewords are 0 and (0, 1), so d = 1
            return CodeParameters(q, 1, q - 1 if q > 2 else 1)
        return CodeParameters(q ** m, m * (m + 1) // 2, (q - 1) ** 2 * q ** (m - 2))
    return CodeParameters(
        (q ** (m + 1) - 1) // (q - 1), (m + 1) * (m + 2) // 2, (q - 1) * q ** (m - 1)
    )


def _v_odd(q, m, r):
    return count_odd_rank(q, m, r) if r <= m else 0


# -- closed-form distributions -----------------------------------------------------

def _rm2_binary_entries(m: int) -> dict[int, int]:
    ent: Counter = Counter({0: 1, 2 ** m: 1})
    odd_total = sum(_v_odd(2, m, r) for r in range(1, m + 1, 2))
    ent[2 ** (m - 1)] += 2 * odd_total
    for j in range(1, m // 2 + 1):
        both = count_even_rank(2, m, 2 * j, 1) + count_even_rank(2, m, 2 * j, -1)
        ent[2 ** (m - 1) + 2 ** (m - j - 1)] += both
        ent[2 ** (m - 1) - 2 ** (m - j - 1)] += both
    return dict(ent)


def _rm2_general_entries(q: int, m: int, k: int) -> dict[int, int]:
    ent: Counter = Counter({0: 1})
    base = q ** m - q ** (m - 1)
    for j in range(1, m // 2 + 1):
        odd_part = (q - 1) * q ** (2 * j + 1) * _v_odd(q, m, 2 * j + 1)
        if odd_part % 2:
            raise InternalInconsistency("odd-rank row frequency is not even")
        odd_part //= 2
        for tau in (1, -1):
            v = count_even_rank(q, m, 2 * j, tau)
            ent[base - tau * q ** (m - j - 1) * (q - 1)] += q ** (2 * j) * v
            ent[base + tau * q ** (m - j - 1)] += (q - 1) * q ** (2 * j) * v + odd_part
    low_row = q * (q - 1) * (q ** m - 1) // 2
    ent[q ** m - 2 * q ** (m - 1)] += low_row
    ent[q ** m] += low_row + q - 1
    # balanced row, double entry: explicit expression vs q^k minus the rest
    explicit = q ** k - q
    for j in range(1, m // 2 + 1):
        explicit -= q ** (2 * j + 1) * (
            count_even_rank(q, m, 2 * j, 1) + count_even_rank(q, m, 2 * j, -1)
        )
    for j in range(0, m // 2 + 1):
        explicit -= (q - 1) * q ** (2 * j + 1) * _v_odd(q, m, 2 * j + 1)
    implicit = q ** k - sum(ent.values())
    if explicit != implicit:
        raise InternalInconsistency(
            f"balanced-row double entry failed: {explicit} vs {implicit}"
        )
    ent[base] += explicit
    return dict(ent)


def rm2_distribution(q: int, m: int) -> WeightDistribution:
    """Weight distribution of the full second-order code."""
    params = code_parameters("rm2", q, m)
    if q == 2:
        entries = _rm2_binary_entries(m)
    else:
        entries = _rm2_general_entries(q, m, params.k)
    return WeightDistribution("rm2", q, m, params, entries)


def _hrm2_entries(q: int, m: int) -> dict[int, int]:
    ent: Counter = Counter({0: 1})
    odd_total = sum(_v_odd(q, m, r) for r in range(1, m + 1, 2))
    ent[q ** m - q ** (m - 1)] += odd_total
    for j in range(1, m // 2 + 1):
        for tau in (1, -1):
            w = q ** m - q ** (m - 1) - tau * q ** (m - j - 1) * (q - 1)
            ent[w] += count_even_rank(q, m, 2 * j, tau)
    return dict(ent)


def hrm2_distribution(q: int, m: int) -> WeightDistribution:
    """Weight distribution of the homogeneous degree-2 code: one codeword
    per quadratic form, weight q^m minus its zero count."""
    params = code_parameters("hrm2", q, m)
    return WeightDistribution("hrm2", q, m, params, _hrm2_entries(q, m))


def prm2_distribution(q: int, m: int) -> WeightDistribution:
    """Weight distribution of the projective degree-2 code.

    Built from the census over m + 1 variables, then revalidated against
    the homogeneous code one dimension up: its weights divided by q - 1
    must reproduce this table exactly.
    """
    params = code_parameters("prm2", q, m)
    n_vars = m + 1
    ent: Counter = Counter({0: 1})
    odd_total = sum(_v_odd(q, n_vars, r) for r in range(1, n_vars + 1, 2))
    ent[q ** m] += odd_total
    for j in range(1, (m + 1) // 2 + 1):
        for tau in (1, -1):
            ent[q ** m - tau * q ** (m - j)] += count_even_rank(q, n_vars, 2 * j, tau)
    entries = dict(ent)
    scaled: Counter = Counter()
    for w, f in hrm2_distribution(q, m + 1).entries.items():
        if w % (q - 1):
            raise NonDivisibleWeight(f"homogeneous weight {w} not divisible by {q - 1}")
        scaled[w // (q - 1)] += f
    if dict(scaled) != entries:
        raise InternalInconsistency("projective table disagrees with the scaled homogeneous table")
    return WeightDistribution("prm2", q, m, params, entries)


def distribution(family: str, q: int, m: int) -> WeightDistribution:
    if family == "rm2":
        return rm2_distribution(q, m)
    if family == "hrm2":
        return hrm2_distribution(q, m)
    if family == "prm2":
        return prm2_distribution(q, m)
    raise UnsupportedParameters(f"unknown family {family!r}")


# -- evaluation domains --------------------------------------------------------------

def affine_points(field: FiniteField, m: int) -> tuple:
    """The q^m points in index order; the first is the zero vector."""
    return tuple(all_vectors(field, m))


def projective_points(field: FiniteField, n_vars: int) -> tuple:
    """Projective representatives: first nonzero coordinate 1, index order."""
    reps = [x for x in all_vectors(field, n_vars) if next((c for c in x if c), None) == 1]
    return tuple(reps)


# -- brute-force codeword enumeration --------------------------------------------------

def _monomial_matrix(field, family, q, m):
    """Rows: evaluation vector of each coefficient's basis function."""
    if family == "prm2":
        n_vars = m + 1
        points = projective_points(field, n_vars)
    else:
        n_vars = m
        points = affine_points(field, m)
    mul = field.mul
    rows = []
    for i, j in triangle_pairs(n_vars):
        rows.append([mul(x[i], x[j]) for x in points])
    if family == "rm2":
        if q > 2:
            for i in range(n_vars):
                rows.append([x[i] for x in points])
        rows.append([1] * len(points))
    return np.array(rows, dtype=field.dtype), len(points)


def _span(rows, field, n):
    """Every linear combination of ``rows`` over the field, one per column
    of an (n, q^r) array."""
    add, mul = field.add_array, field.mul_array
    span = np.zeros((n, 1), dtype=field.dtype)
    for row in rows:
        span = np.concatenate(
            [add[span, mul[c][row][:, None]] for c in field.elements()], axis=1
        )
    return span


def brute_force_distribution(
    family: str, q: int, m: int, max_symbols: int = DEFAULT_SYMBOL_BUDGET
) -> WeightDistribution:
    """Enumerate every codeword and tally Hamming weights.

    Codewords are enumerated through their coefficient tuples: quadratic
    monomials only for hrm2/prm2; plus linear and constant terms for rm2
    over q > 2; plus the constant only for binary rm2, where linear
    functions already are quadratic forms.

    The enumeration is split: every codeword is low + high, with low in
    the span of the last ceil(k/2) basis rows and high in the span of the
    first floor(k/2). A coordinate of low + high is nonzero exactly where
    low differs from -high, so for each block of negated high words the
    weights against the whole low span are counted one coordinate at a
    time, one compare per symbol, and tallied.
    """
    params = code_parameters(family, q, m)
    field = field_from_order(q)
    monomials, n = _monomial_matrix(field, family, q, m)
    n_coeffs = len(monomials)
    if n_coeffs != params.k:
        raise InternalInconsistency("coefficient count differs from the code dimension")
    n_words = q ** n_coeffs
    if n_words * n > max_symbols:
        raise BudgetExceeded(f"{n_words * n} symbol evaluations exceed {max_symbols}")
    split = n_coeffs // 2
    low = _span(monomials[split:], field, n)
    neg = np.array([field.neg(a) for a in field.elements()], dtype=field.dtype)
    neg_high = neg[_span(monomials[:split], field, n)]
    block = max(1, _BLOCK_WORDS // low.shape[1])
    tally = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, neg_high.shape[1], block):
        part = neg_high[:, lo:lo + block]
        weights = np.zeros((part.shape[1], low.shape[1]), dtype=np.min_scalar_type(n))
        for x in range(n):
            weights += low[x] != part[x][:, None]
        tally += np.bincount(weights.ravel(), minlength=n + 1)
    entries = {w: int(f) for w, f in enumerate(tally) if f}
    return WeightDistribution(family, q, m, params, entries)


def coset_assembled_distribution(q: int, m: int) -> WeightDistribution:
    """Third rm2 path for q > 2: census count times coset weight multiset,
    summed over every (rank, type) class."""
    if q <= 2:
        raise UnsupportedParameters("coset assembly needs q > 2; binary uses its own table")
    params = code_parameters("rm2", q, m)
    ent: Counter = Counter()
    for (rank, label), cnt in census_formula(q, m).entries.items():
        if label == "plus":
            tag = 1
        elif label == "minus":
            tag = -1
        elif label == "untyped":
            tag = None
        else:  # merged odd ranks: the multiset does not depend on the type
            tag = 1
        for w, mult in coset_weight_multiset(q, m, rank, tag).entries.items():
            ent[w] += cnt * mult
    return WeightDistribution("rm2", q, m, params, dict(ent))


# -- rendering ---------------------------------------------------------------------------

def format_enumerator(entries: dict[int, int]) -> str:
    """Polynomial text ``1 + A*Z^w + ...``, ascending weights, unit
    coefficients printed bare."""
    terms = []
    for w, f in sorted(entries.items()):
        if not f:
            continue
        if w == 0:
            terms.append(str(f))
        elif f == 1:
            terms.append(f"Z^{w}")
        else:
            terms.append(f"{f}*Z^{w}")
    return " + ".join(terms) if terms else "0"


def weight_enumerator_text(wd: WeightDistribution) -> str:
    return format_enumerator(wd.entries)
