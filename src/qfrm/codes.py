"""Exact weight distributions of three second-order evaluation-code
families: the full degree-<=2 code (rm2), its homogeneous subcode (hrm2),
and the projective variant (prm2).

Every closed-form table is one tally over the census classes (rank,
type): each class's count times the zero counts of the words one form of
the class leads, read from ``spectra.merged_rows`` for rm2 (the coset of
the first-order code the form leads) and from ``forms.zero_count_formula``
for hrm2 and prm2. Every family also has a brute-force codeword
enumerator, the independent oracle, which lists only the quadratic parts
of the codewords, in (q^m, F) arrays from ``forms._form_blocks``; rm2
and prm2 read their weights from the affine-shift counts
(``forms.affine_shift_counts``) of one shared enumeration, since the
chart x_m = 1 of a prm2 word is an rm2 word. Frequencies are exact: ints
from the library, and exact ``Decimal`` values when a builder is given
the unit ``Decimal(1)``, as ``qfrm dist`` does under a trapping exact
context so that its tables print in linear time. Either way one code
path builds and checks them.

Every table is checked as it is built: the frequencies must total q^k,
which sees every census count of rank >= 1, and must satisfy the first
Pless power moment, which sees every weight; any mismatch raises instead
of shipping a wrong table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# count_even_rank and count_odd_rank stay importable here: perfbench/tracing.py
# wraps them under this module's names
from .census import _exact_div, census_formula, count_even_rank, count_odd_rank  # noqa: F401
from .errors import InternalInconsistency, NonDivisibleWeight, UnsupportedParameters, admit, count_text
from .field import field_from_order
from .forms import (
    TYPE_LABELS,
    _form_blocks,
    affine_shift_counts,
    affine_shift_steps,
    triangle_pairs,
    triangle_size,
    zero_count_formula,
)
# coset_weight_multiset stays importable here, though the rm2 table reads
# merged_rows: perfbench/tracing.py wraps it under this module's name
from .spectra import coset_weight_multiset, merged_rows  # noqa: F401

FAMILIES = ("rm2", "hrm2", "prm2")

# transform steps brute_force_distribution may take by default; measured rates
# run from 2.7 * 10^7 steps/s (hrm2 (73, 2), 2^30.95 steps in 76 s) to
# 4.1 * 10^8 (rm2 (19, 2), 2^29.8 in 2.3 s), so an admitted pair may take over
# a minute; 2^32 would admit rm2 at (7, 3) and (23, 2), over 10 s each
DEFAULT_STEP_BUDGET = 1 << 31


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
        unit = self.entries.get(0)  # 1 in the type of the frequencies
        if unit != 1:
            raise InternalInconsistency("weight 0 must occur exactly once")
        if any(f < 0 for f in self.entries.values()):
            raise InternalInconsistency("negative frequency")
        if any(not 0 <= w <= self.params.n for w in self.entries):
            raise InternalInconsistency("weight outside [0, n]")
        total = sum(self.entries.values())
        if total != (unit * self.q) ** self.params.k:
            raise InternalInconsistency(f"frequencies total {total}, expected q^k")
        # first Pless power moment (B_1 = 0 of the dual): a coordinate that is
        # not zero on the whole code is nonzero in (q - 1)/q of the words; the
        # zero point is hrm2's one zero coordinate
        live = self.params.n - (self.family == "hrm2")
        if sum(w * f for w, f in self.entries.items()) * self.q != total * (self.q - 1) * live:
            raise InternalInconsistency("weights break the first power moment")
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
                {"weight": w, "frequency": count_text(f)} for w, f in self.sorted_items()
            ],
        }

    def to_csv(self) -> str:
        lines = ["weight,frequency"]
        lines += [f"{w},{count_text(f)}" for w, f in self.sorted_items()]
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


# census label -> the tag whose rows stand for the class; an odd_total count
# covers both types of an odd rank, whose coset rows and zero counts agree
_LABEL_TAGS = {label: tag for tag, label in TYPE_LABELS.items()} | {"odd_total": 1}


# -- closed-form distributions -----------------------------------------------------

def _tally(q: int, m: int, rows, unit) -> dict[int, int]:
    """Sum over the census classes of count x rows(rank, tag), where rows
    lists the (zero count, multiplicity) pairs of the words one form of
    the class leads; each family turns zero counts into weights once."""
    tally: dict[int, int] = {}
    for (rank, label), count in census_formula(q, m, unit).entries.items():
        for v, mult in rows(rank, _LABEL_TAGS[label]):
            tally[v] = tally.get(v, 0) + count * mult
    return tally


def _form_tally(q: int, m: int, unit) -> dict[int, int]:
    return _tally(q, m, lambda rank, tag: ((zero_count_formula(rank, tag, q, m), 1),), unit)


def rm2_distribution(q: int, m: int, unit=1) -> WeightDistribution:
    """Weight distribution of the full second-order code: each form Q leads
    the q^(m+1) words Q + L + c, whose weights are q^m minus the zero
    counts of its ``merged_rows``."""
    params = code_parameters("rm2", q, m)
    n = q ** m

    def rows(rank, tag):
        merged = merged_rows(q, m, rank, tag)
        mults = [mult for _, mult in merged]
        if min(mults) < 0 or sum(mults) != q * n:
            raise InternalInconsistency(f"coset rows of rank {rank} are negative or miss q^(m+1)")
        return merged

    tally = _tally(q, m, rows, unit)
    if q == 2:
        # x_i^2 = x_i over GF(2), so 2^m forms lead each coset of RM(1, m)
        tally = {v: _exact_div(f, n) for v, f in tally.items()}
    return WeightDistribution("rm2", q, m, params, {n - v: f for v, f in tally.items()})


def hrm2_distribution(q: int, m: int, unit=1) -> WeightDistribution:
    """Weight distribution of the homogeneous degree-2 code: one codeword
    per quadratic form, weight q^m minus its zero count."""
    params = code_parameters("hrm2", q, m)
    n = q ** m
    return WeightDistribution("hrm2", q, m, params, {n - v: f for v, f in _form_tally(q, m, unit).items()})


def prm2_distribution(q: int, m: int, unit=1) -> WeightDistribution:
    """Weight distribution of the projective degree-2 code: the hrm2 weights
    over m + 1 variables, each divided by q - 1, since every projective
    point stands for q - 1 nonzero points."""
    params = code_parameters("prm2", q, m)
    n = q ** (m + 1)
    entries = {}
    for v, f in _form_tally(q, m + 1, unit).items():
        if (n - v) % (q - 1):
            raise NonDivisibleWeight(f"homogeneous weight {n - v} not divisible by {q - 1}")
        entries[(n - v) // (q - 1)] = f
    return WeightDistribution("prm2", q, m, params, entries)


def distribution(family: str, q: int, m: int, unit=1) -> WeightDistribution:
    """The closed-form table of the family, its frequencies built from
    ``unit``: 1, or ``Decimal(1)`` under a context that traps Inexact and
    Rounded, as the CLI's does."""
    if family == "rm2":
        return rm2_distribution(q, m, unit)
    if family == "hrm2":
        return hrm2_distribution(q, m, unit)
    if family == "prm2":
        return prm2_distribution(q, m, unit)
    raise UnsupportedParameters(f"unknown family {family!r}")


# -- brute-force codeword enumeration --------------------------------------------------

@functools.lru_cache(maxsize=1)
def _codeword_tallies(q: int, m: int, squares: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rm2, prm2) weight tallies over every quadratic part Q on m
    variables (x_i x_j, i < j, plus the squares when ``squares``), from one
    pass: each block is tallied once by the key (hyperplane weight, chart
    weight), rm2 reading the chart marginal and prm2 the sum of the two.
    Only the tallies are kept, never H."""
    field = field_from_order(q)
    n = q ** m
    span = (n - 1) // (q - 1) + 1  # hyperplane weights run from 0 to (q^m - 1)/(q - 1)
    pairs = [(i, j) for i, j in triangle_pairs(m) if squares or i != j]
    joint = np.zeros(span * (n + 1), dtype=np.int64)
    for low, high in _form_blocks(field, m, pairs, q * q * n):
        counts = affine_shift_counts(field, m, field.add_array[low, high])
        hyperplane, remainder = np.divmod(np.subtract(n, counts[:, :1, :1], dtype=np.int64), q - 1)
        if remainder.any():
            raise NonDivisibleWeight(f"hyperplane weight not divisible by {q - 1}")
        keys = np.subtract(hyperplane * (n + 1) + n, counts, dtype=np.int64)
        joint += np.bincount(keys.ravel(order="K"), minlength=joint.size)
    joint = joint.reshape(span, n + 1)
    chart = joint.sum(axis=0)
    projective = np.zeros(n + span, dtype=np.int64)
    np.add.at(projective, np.add.outer(np.arange(span), np.arange(n + 1)), joint)
    chart.flags.writeable = projective.flags.writeable = False
    return chart, projective


def brute_force_distribution(
    family: str, q: int, m: int, max_steps: int = DEFAULT_STEP_BUDGET
) -> WeightDistribution:
    """Enumerate every codeword and tally Hamming weights.

    Only the quadratic parts Q are enumerated, as combinations of the
    monomials x_i x_j on m variables (i < j for binary rm2, whose squares
    are linear; i <= j otherwise), in blocks of forms:

    - hrm2, codeword Q: weight q^m minus the zero count of Q, found by
      comparing Q on the q^m points;
    - rm2, codeword Q + L + c: weight q^m - H[L, -c], from the exact
      affine-shift counts H[L, s] = #{x : Q(x) + L.x = s} of
      ``affine_shift_counts``;
    - prm2, codeword Q + x_m L + c x_m^2 on P^m: the chart x_m = 1 is that
      rm2 word, and the hyperplane x_m = 0 adds (q^m - H[0, 0]) / (q - 1),
      a division checked for exactness.

    So rm2 and prm2 share one enumeration of the same parts: the last
    (q, m) read keeps both tallies (``_codeword_tallies``), and the other
    family's call reads them. Binary rm2 enumerates its own parts.

    The budget is charged, before the field or any plane is built and
    before any kept tally is read, the steps the family's kernel takes
    over the q^T quadratic parts (T = m(m-1)/2 for binary rm2, m(m+1)/2
    otherwise): ``affine_shift_steps(q, m)`` per form, or the q^m points
    compared for hrm2.
    """
    params = code_parameters(family, q, m)
    binary_rm2 = family == "rm2" and q == 2
    n = q ** m
    parts = q ** (m * (m - 1) // 2 if binary_rm2 else triangle_size(m))
    per_part = n if family == "hrm2" else affine_shift_steps(q, m)
    admit(parts * per_part, max_steps, "transform steps")
    if family == "hrm2":
        field = field_from_order(q)
        neg = np.array([field.neg(a) for a in field.elements()], dtype=field.dtype)
        tally = np.zeros(n + 1, dtype=np.int64)
        for low, high in _form_blocks(field, m, triangle_pairs(m), n):
            # the zero count: the points where low = -high
            weights = n - (low == neg[high]).sum(axis=0, dtype=np.min_scalar_type(n))
            tally += np.bincount(weights, minlength=n + 1)
    else:
        tally = _codeword_tallies(q, m, not binary_rm2)[family == "prm2"]
    return WeightDistribution(family, q, m, params, {w: int(f) for w, f in enumerate(tally) if f})


def coset_assembled_distribution(q: int, m: int) -> WeightDistribution:
    """The rm2 table for q > 2, where each coset of the first-order code has
    one leading form; ``rm2_distribution`` assembles it from those cosets."""
    if q <= 2:
        raise UnsupportedParameters("coset assembly needs q > 2; over GF(2) 2^m forms lead each coset")
    return rm2_distribution(q, m)


# -- rendering ---------------------------------------------------------------------------

def format_enumerator(entries: dict[int, int]) -> str:
    """Polynomial text ``1 + A*Z^w + ...``, ascending weights, unit
    coefficients printed bare."""
    terms = []
    for w, f in sorted(entries.items()):
        if not f:
            continue
        if w == 0:
            terms.append(count_text(f))
        elif f == 1:
            terms.append(f"Z^{w}")
        else:
            terms.append(f"{count_text(f)}*Z^{w}")
    return " + ".join(terms) if terms else "0"


def weight_enumerator_text(wd: WeightDistribution) -> str:
    return format_enumerator(wd.entries)
