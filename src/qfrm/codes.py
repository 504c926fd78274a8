"""Exact weight distributions of three second-order evaluation-code
families: the full degree-<=2 code (rm2), its homogeneous subcode (hrm2),
and the projective variant (prm2).

Closed-form distributions are assembled from the form census; every
family also has a brute-force codeword enumerator, and rm2 over q > 2 has
a third path that pastes coset weight multisets together, so each table
can be cross-checked two ways. Frequencies are exact big integers. The
enumerator lists only the quadratic parts of the codewords and reads
every weight from their affine-shift counts (``forms.affine_shift_counts``).

Every rm2 row, the balanced-weight row included, is computed from the
census, so the q^k mass check of the table sees every census count of
rank >= 1; any mismatch raises instead of shipping a wrong table. The
projective table reads the census one dimension up and is revalidated
against the homogeneous table built from that same census, whose weights
it must reproduce after division by q - 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

# count_even_rank and count_odd_rank stay importable here: perfbench/tracing.py
# wraps them under this module's names
from .census import census_formula, count_even_rank, count_odd_rank  # noqa: F401
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    NonDivisibleWeight,
    UnsupportedParameters,
    count_text,
)
from .field import field_from_order
from .forms import (
    _BLOCK,
    TYPE_LABELS,
    _form_blocks,
    _monomial_planes,
    admissible_tags,
    affine_shift_counts,
    triangle_pairs,
)
# coset_weight_multiset stays importable here, though the coset assembly reads
# merged_rows: perfbench/tracing.py wraps it under this module's name
from .spectra import coset_weight_multiset, merged_rows  # noqa: F401

FAMILIES = ("rm2", "hrm2", "prm2")

DEFAULT_SYMBOL_BUDGET = 1 << 34


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


def code_dimension(family: str, q: int, m: int) -> int:
    """The dimension k of the family, with no power of q built; guards the
    undefined corners."""
    if family not in FAMILIES:
        raise UnsupportedParameters(f"unknown family {family!r}")
    if family == "rm2":
        if q == 2:
            if m < 2:
                raise UnsupportedParameters("binary rm2 needs m >= 2")
            return (m * m + m + 2) // 2
        if m < 1:
            raise UnsupportedParameters("rm2 needs m >= 1")
        return (m * m + 3 * m + 2) // 2
    if m < 1:
        raise UnsupportedParameters(f"{family} needs m >= 1")
    if family == "hrm2":
        return m * (m + 1) // 2
    return (m + 1) * (m + 2) // 2


def code_parameters(family: str, q: int, m: int) -> CodeParameters:
    """Exact [n, k, d] for the family; guards the undefined corners."""
    k = code_dimension(family, q, m)
    if family == "rm2":
        return CodeParameters(q ** m, k, 2 ** (m - 2) if q == 2 else (q - 2) * q ** (m - 1))
    if family == "hrm2":
        if m == 1:
            # the general d expression degenerates at m = 1; both corners are [q, 1, q-1]
            # except binary, whose two codewords are 0 and (0, 1), so d = 1
            return CodeParameters(q, k, q - 1 if q > 2 else 1)
        return CodeParameters(q ** m, k, (q - 1) ** 2 * q ** (m - 2))
    return CodeParameters((q ** (m + 1) - 1) // (q - 1), k, (q - 1) * q ** (m - 1))


def _census(q, m):
    """One census pass: every (rank, type) count, and the odd-rank counts
    keyed by rank alone."""
    entries = census_formula(q, m).entries
    return entries, {r: c for (r, _), c in entries.items() if r % 2}


# -- closed-form distributions -----------------------------------------------------

def _rm2_binary_entries(m: int) -> dict[int, int]:
    census, odd = _census(2, m)
    half = 1 << (m - 1)
    ent: Counter = Counter({0: 1, 2 * half: 1})
    ent[half] += 2 * sum(odd.values())
    for j in range(1, m // 2 + 1):
        both = census[(2 * j, "plus")] + census[(2 * j, "minus")]
        ent[half + (half >> j)] += both
        ent[half - (half >> j)] += both
    return dict(ent)


def _rm2_general_entries(q: int, m: int) -> dict[int, int]:
    census, odd = _census(q, m)
    n, step, square = q ** m, q ** (m - 1), 1  # step q^(m-j-1), square q^(2j) in the loop
    base, shifts = n - step, q * n  # shifts: the q^(m+1) affine parts of each form
    low_row = q * (q - 1) * odd[1] // 2
    ent: Counter = Counter({0: 1, n - 2 * (n // q): low_row, n: low_row + q - 1})
    # balanced row: the affine parts of each rank that no other row takes
    balanced = q * (n - 1) + odd[1] * (shifts - q * q + q)
    for j in range(1, m // 2 + 1):
        step //= q
        square *= q * q
        both = census[(2 * j, "plus")] + census[(2 * j, "minus")]
        odd_count = odd.get(2 * j + 1, 0)
        balanced += both * (shifts - q * square) + odd_count * (shifts - (q - 1) * q * square)
        odd_part = (q - 1) * q * square * odd_count
        if odd_part % 2:
            raise InternalInconsistency("odd-rank row frequency is not even")
        odd_part //= 2
        for tau in (1, -1):
            v = square * census[(2 * j, TYPE_LABELS[tau])]
            ent[base - tau * step * (q - 1)] += v
            ent[base + tau * step] += (q - 1) * v + odd_part
    ent[base] += balanced
    return dict(ent)


def rm2_distribution(q: int, m: int) -> WeightDistribution:
    """Weight distribution of the full second-order code."""
    params = code_parameters("rm2", q, m)
    if q == 2:
        entries = _rm2_binary_entries(m)
    else:
        entries = _rm2_general_entries(q, m)
    return WeightDistribution("rm2", q, m, params, entries)


def _hrm2_table(q: int, m: int, census, odd) -> WeightDistribution:
    n, step = q ** m, q ** (m - 1)  # step is q^(m-j-1) in the loop
    base = n - step
    ent: Counter = Counter({0: 1, base: sum(odd.values())})
    for j in range(1, m // 2 + 1):
        step //= q
        for tau in (1, -1):
            ent[base - tau * step * (q - 1)] += census[(2 * j, TYPE_LABELS[tau])]
    return WeightDistribution("hrm2", q, m, code_parameters("hrm2", q, m), dict(ent))


def hrm2_distribution(q: int, m: int) -> WeightDistribution:
    """Weight distribution of the homogeneous degree-2 code: one codeword
    per quadratic form, weight q^m minus its zero count."""
    return _hrm2_table(q, m, *_census(q, m))


def prm2_distribution(q: int, m: int) -> WeightDistribution:
    """Weight distribution of the projective degree-2 code.

    Built from the census over m + 1 variables, then revalidated against
    the homogeneous table one dimension up, assembled from that same
    census: its weights divided by q - 1 must reproduce this table exactly.
    """
    params = code_parameters("prm2", q, m)
    census, odd = _census(q, m + 1)
    n = step = q ** m  # step is q^(m-j) in the loop
    ent: Counter = Counter({0: 1, n: sum(odd.values())})
    for j in range(1, (m + 1) // 2 + 1):
        step //= q
        for tau in (1, -1):
            ent[n - tau * step] += census[(2 * j, TYPE_LABELS[tau])]
    entries = dict(ent)
    scaled: Counter = Counter()
    for w, f in _hrm2_table(q, m + 1, census, odd).entries.items():
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


# -- brute-force codeword enumeration --------------------------------------------------

def brute_force_distribution(
    family: str, q: int, m: int, max_symbols: int = DEFAULT_SYMBOL_BUDGET
) -> WeightDistribution:
    """Enumerate every codeword and tally Hamming weights.

    Only the quadratic parts Q are enumerated, as combinations of the
    monomials x_i x_j on m variables (i < j for binary rm2, whose squares
    are linear; i <= j otherwise), in blocks of forms. Every weight is
    then read from the exact affine-shift counts
    H[L, s] = #{x : Q(x) + L.x = s} of ``affine_shift_counts``:

    - rm2, codeword Q + L + c: weight q^m - H[L, -c];
    - hrm2, codeword Q: weight q^m - H[0, 0], the zero count of Q;
    - prm2, codeword Q + x_m L + c x_m^2 on P^m: the chart x_m = 1 gives
      q^m - H[L, -c] and the hyperplane x_m = 0 gives
      (q^m - H[0, 0]) / (q - 1), a division checked for exactness.

    The symbol budget still counts all q^k codewords times n coordinates.
    """
    params = code_parameters(family, q, m)
    n_symbols = q ** params.k * params.n
    if n_symbols > max_symbols:
        raise BudgetExceeded(
            f"{count_text(n_symbols)} symbol evaluations exceed {count_text(max_symbols)}"
        )
    field = field_from_order(q)
    planes = _monomial_planes(field, m)
    if family == "rm2" and q == 2:
        planes = [p for p, (i, j) in zip(planes, triangle_pairs(m)) if i != j]
    n = q ** m
    neg = np.array([field.neg(a) for a in field.elements()], dtype=field.dtype)
    rows = max(1, _BLOCK // (n if family == "hrm2" else q * q * n))
    tally = np.zeros(params.n + 1, dtype=np.int64)
    for low, high in _form_blocks(field, planes, rows):
        if family == "hrm2":
            # H[0, 0] is the zero count: the points where low = -high
            weights = n - (low == neg[high]).sum(axis=0, dtype=np.min_scalar_type(n))
        else:
            counts = affine_shift_counts(field, m, field.add_array[low, high].T)
            weights = np.subtract(n, counts, dtype=np.int64)
        if family == "prm2":
            hyperplane, remainder = np.divmod(weights[:, :1, :1], q - 1)
            if remainder.any():
                raise NonDivisibleWeight(f"hyperplane weight not divisible by {q - 1}")
            weights += hyperplane
        tally += np.bincount(weights.ravel(order="K"), minlength=params.n + 1)
    entries = {w: int(f) for w, f in enumerate(tally) if f}
    return WeightDistribution(family, q, m, params, entries)


def coset_assembled_distribution(q: int, m: int) -> WeightDistribution:
    """Third rm2 path for q > 2: census count times coset weight multiset,
    summed over every (rank, type) class; a class's weights are q^m minus
    the zero counts of its ``merged_rows``."""
    if q <= 2:
        raise UnsupportedParameters("coset assembly needs q > 2; binary uses its own table")
    params = code_parameters("rm2", q, m)
    n = q ** m
    ent: Counter = Counter()
    for (rank, label), cnt in census_formula(q, m).entries.items():
        # an odd_total count covers both types, whose coset multisets agree
        tags = admissible_tags(q, rank)
        tag = next((t for t in tags if TYPE_LABELS[t] == label), tags[0])
        rows = merged_rows(q, m, rank, tag)
        if any(mult < 0 for _, mult in rows) or sum(mult for _, mult in rows) != q * n:
            raise InternalInconsistency(f"coset rows of rank {rank} are negative or miss q^(m+1)")
        for v, mult in rows:
            ent[n - v] += cnt * mult
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
