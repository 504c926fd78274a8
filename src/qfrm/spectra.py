"""Zero-count multisets of a quadratic form shifted by every affine-linear
function, split by the class of the constant term, plus the weight
multiset of the matching first-order-code coset.

The closed forms depend only on (q, m, rank, type, class); the
brute-force oracle ``spectrum_oracle`` enumerates every linear functional
and every constant in the class and counts zeros directly. A class
multiset covers the whole class: the single constant 0 for ``zero``, the
(q-1)/2 square or nonsquare constants, or all q-1 nonzero constants for
``nonzero``, so oracle and formula agree entrywise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    EvenCharacteristic,
    InconsistentQuery,
    InexactDivision,
    InternalInconsistency,
    OddCharacteristic,
    UnsupportedForBinary,
)
from .field import GRID_TABLE_MAX, field_from_order
from .forms import (
    QuadraticForm,
    _coordinate_planes,
    all_vectors,
    validate_rank_type,
    values_on_domain,
)

DEFAULT_ORACLE_BUDGET = 1 << 24

CLASS_ZERO = "zero"
CLASS_SQUARE = "square"
CLASS_NONSQUARE = "nonsquare"
CLASS_NONZERO = "nonzero"
FORMULA_CLASSES = (CLASS_ZERO, CLASS_SQUARE, CLASS_NONSQUARE, CLASS_NONZERO)


def _exact_half(n: int) -> int:
    if n % 2:
        raise InexactDivision(f"{n} is not even")
    return n // 2


@dataclass
class SpectrumMultiset:
    """Exact multiset value -> multiplicity with a declared population."""

    entries: dict[int, int]
    population: int

    def __post_init__(self):
        self.entries = {v: k for v, k in self.entries.items() if k}
        if any(k < 0 for k in self.entries.values()):
            raise InternalInconsistency("negative multiplicity")
        if sum(self.entries.values()) != self.population:
            raise InternalInconsistency(
                f"multiset totals {sum(self.entries.values())}, expected {self.population}"
            )

    def sorted_items(self):
        return sorted(self.entries.items())

    def map_values(self, fn) -> "SpectrumMultiset":
        out: Counter = Counter()
        for v, k in self.entries.items():
            out[fn(v)] += k
        return SpectrumMultiset(dict(out), self.population)

    def to_json_entries(self):
        return [{"value": str(v), "multiplicity": str(k)} for v, k in self.sorted_items()]

    @staticmethod
    def merge(parts) -> "SpectrumMultiset":
        out: Counter = Counter()
        pop = 0
        for part in parts:
            pop += part.population
            out.update(part.entries)
        return SpectrumMultiset(dict(out), pop)


@dataclass(frozen=True)
class CosetQuery:
    q: int
    m: int
    rank: int
    type_tag: int | None
    c_class: str

    def __post_init__(self):
        validate_rank_type(self.q, self.m, self.rank, self.type_tag)
        if self.c_class not in FORMULA_CLASSES:
            raise InconsistentQuery(f"unknown constant class {self.c_class!r}")
        odd_rank_odd_q = self.q % 2 == 1 and self.rank % 2 == 1
        if self.c_class in (CLASS_SQUARE, CLASS_NONSQUARE) and not odd_rank_odd_q:
            raise InconsistentQuery(
                "square/nonsquare classes apply only to odd rank over odd q"
            )
        if self.c_class == CLASS_NONZERO and odd_rank_odd_q:
            raise InconsistentQuery(
                "odd rank over odd q splits nonzero constants into squares and nonsquares"
            )

    def class_size(self) -> int:
        if self.c_class == CLASS_ZERO:
            return 1
        if self.c_class == CLASS_NONZERO:
            return self.q - 1
        return (self.q - 1) // 2


# -- per-constant rows (frequencies for a single c of the class) -----------------

def _rows_rank0(q, m, c_is_zero):
    if c_is_zero:
        return [(q ** m, 1), (q ** (m - 1), q ** m - 1)]
    return [(0, 1), (q ** (m - 1), q ** m - 1)]


def _rows_even_q(q, m, r, tau, c_is_zero):
    base = q ** (m - 1)
    if r % 2:
        step = q ** (m - (r + 1) // 2)
        s = q ** ((r - 1) // 2)
        if c_is_zero:
            return [
                (base, q ** m - q ** r + q ** (r - 1)),
                (base + step, _exact_half((q - 1) * (q ** (r - 1) + s))),
                (base - step, _exact_half((q - 1) * (q ** (r - 1) - s))),
            ]
        return [
            (base, q ** m - q ** r + q ** (r - 1)),
            (base + step, _exact_half(q ** r - q ** (r - 1) - s)),
            (base - step, _exact_half(q ** r - q ** (r - 1) + s)),
        ]
    return _rows_even_rank(q, m, r, tau, c_is_zero)


def _rows_even_rank(q, m, r, tau, c_is_zero):
    # even rank rows share one shape for even and odd q
    base = q ** (m - 1)
    step = q ** (m - (r + 2) // 2)
    s = q ** ((r - 2) // 2)
    if c_is_zero:
        return [
            (base, q ** m - q ** r),
            (base + tau * step * (q - 1), q ** (r - 1) + tau * s * (q - 1)),
            (base - tau * step, (q - 1) * (q ** (r - 1) - tau * s)),
        ]
    return [
        (base, q ** m - q ** r),
        (base + tau * step * (q - 1), q ** (r - 1) - tau * s),
        (base - tau * step, (q - 1) * q ** (r - 1) + tau * s),
    ]


def _rows_odd_q_odd_rank(q, m, r, tau, c_kind):
    base = q ** (m - 1)
    step = q ** (m - (r + 1) // 2)
    s = q ** ((r - 1) // 2)
    half = (q - 1) // 2
    if c_kind == CLASS_ZERO:
        return [
            (base, q ** m - q ** r + q ** (r - 1)),
            (base + tau * step, half * (q ** (r - 1) + tau * s)),
            (base - tau * step, half * (q ** (r - 1) - tau * s)),
        ]
    if c_kind == CLASS_SQUARE:
        # the tau correction applies to the whole count, outside the half factor
        return [
            (base, q ** m - q ** r + q ** (r - 1) + tau * s),
            (base + tau * step, half * q ** (r - 1) - tau * s),
            (base - tau * step, half * q ** (r - 1)),
        ]
    return [
        (base, q ** m - q ** r + q ** (r - 1) - tau * s),
        (base + tau * step, half * q ** (r - 1)),
        (base - tau * step, half * q ** (r - 1) + tau * s),
    ]


def _scaled(rows, scale, population):
    out: Counter = Counter()
    for value, freq in rows:
        if freq < 0:
            raise InternalInconsistency("negative row frequency")
        # an empty row may carry a meaningless value, such as q ** -1 at m = 0
        if freq:
            out[value] += freq * scale
    return SpectrumMultiset(dict(out), population)


def spectrum_even_q(query: CosetQuery) -> SpectrumMultiset:
    """Zero-count multiset over {Q + L + c : L linear, c in the class}, even q."""
    if query.q % 2:
        raise OddCharacteristic("this spectrum applies to even q")
    q, m, r = query.q, query.m, query.rank
    c_is_zero = query.c_class == CLASS_ZERO
    if r == 0:
        rows = _rows_rank0(q, m, c_is_zero)
    else:
        rows = _rows_even_q(q, m, r, query.type_tag, c_is_zero)
    size = query.class_size()
    return _scaled(rows, size, size * q ** m)


def spectrum_odd_q(query: CosetQuery) -> SpectrumMultiset:
    """Zero-count multiset over {Q + L + c : L linear, c in the class}, odd q."""
    if query.q % 2 == 0:
        raise EvenCharacteristic("this spectrum applies to odd q")
    q, m, r = query.q, query.m, query.rank
    if r == 0:
        rows = _rows_rank0(q, m, query.c_class == CLASS_ZERO)
    elif r % 2:
        rows = _rows_odd_q_odd_rank(q, m, r, query.type_tag, query.c_class)
    else:
        rows = _rows_even_rank(q, m, r, query.type_tag, query.c_class == CLASS_ZERO)
    size = query.class_size()
    return _scaled(rows, size, size * q ** m)


def spectrum_formula(query: CosetQuery) -> SpectrumMultiset:
    """Dispatch to the even-q or odd-q closed form."""
    if query.q % 2 == 0:
        return spectrum_even_q(query)
    return spectrum_odd_q(query)


def spectrum_merged(q: int, m: int, rank: int, type_tag) -> SpectrumMultiset:
    """Zero-count multiset over all q^(m+1) shifts Q + L + c, c ranging over GF(q)."""
    validate_rank_type(q, m, rank, type_tag)
    rows: list[tuple[int, int]]
    if rank == 0:
        rows = [(q ** m, 1), (0, q - 1), (q ** (m - 1), q * (q ** m - 1))]
    elif rank % 2:
        base = q ** (m - 1)
        step = q ** (m - (rank + 1) // 2)
        each = _exact_half((q - 1) * q ** rank)
        rows = [
            (base, q ** (m + 1) - q ** (rank + 1) + q ** rank),
            (base + step, each),
            (base - step, each),
        ]
    else:
        base = q ** (m - 1)
        step = q ** (m - (rank + 2) // 2)
        tau = type_tag
        rows = [
            (base, q ** (m + 1) - q ** (rank + 1)),
            (base + tau * step * (q - 1), q ** rank),
            (base - tau * step, (q - 1) * q ** rank),
        ]
    return _scaled(rows, 1, q ** (m + 1))


def coset_weight_multiset(q: int, m: int, rank: int, type_tag) -> SpectrumMultiset:
    """Hamming weights of the coset of the first-order code led by the form.

    Each zero count N becomes the weight q^m - N. The first-order-coset
    structure needs q > 2 (the binary case pairs each form with the
    all-one shift instead).
    """
    if q <= 2:
        raise UnsupportedForBinary("coset weights need q > 2")
    return spectrum_merged(q, m, rank, type_tag).map_values(lambda v: q ** m - v)


# -- brute-force oracle ------------------------------------------------------------

def _class_constants(field, c_class):
    q = field.q
    if c_class == CLASS_ZERO:
        return [0]
    if c_class == CLASS_NONZERO:
        return list(range(1, q))
    if c_class == "all":
        return list(range(q))
    if c_class in (CLASS_SQUARE, CLASS_NONSQUARE):
        if q % 2 == 0:
            raise InconsistentQuery("square classes need odd q")
        want = 1 if c_class == CLASS_SQUARE else -1
        return [c for c in range(1, q) if field.quadratic_character(c) == want]
    raise InconsistentQuery(f"unknown constant class {c_class!r}")


def spectrum_oracle(
    form: QuadraticForm, c_class: str, max_evals: int = DEFAULT_ORACLE_BUDGET
) -> SpectrumMultiset:
    """Tally N(Q + L + c) over every linear functional L and every c in the class.

    Accepts the formula classes plus ``"all"`` for the merged tally over
    every constant. Pure enumeration; no closed forms involved.
    """
    fld = form.field
    q, m = fld.q, form.m
    cs = _class_constants(fld, c_class)
    n = q ** m
    if n * n * max(len(cs), 1) > max_evals:
        raise BudgetExceeded(f"{n * n * len(cs)} evaluations exceed {max_evals}")
    tally: Counter = Counter()
    if q <= GRID_TABLE_MAX:
        add, mul = fld.add_array, fld.mul_array
        planes = _coordinate_planes(fld, m)
        qv = np.asarray(values_on_domain(form))
        shifted = np.broadcast_to(qv, (n, n)).copy()  # rows: L index, cols: point index
        for i in range(m):
            shifted = add[shifted, mul[planes[i][:, None], planes[i][None, :]]]
        for c in cs:
            target = fld.neg(c)
            counts = np.count_nonzero(shifted == target, axis=1)
            values, reps = np.unique(counts, return_counts=True)
            for v, k in zip(values, reps):
                tally[int(v)] += int(k)
    else:
        points = list(all_vectors(fld, m))
        qv_list = [form.evaluate(x) for x in points]
        for coeffs in all_vectors(fld, m):
            base = []
            for x, qx in zip(points, qv_list):
                acc = qx
                for li, xi in zip(coeffs, x):
                    if li and xi:
                        acc = fld.add(acc, fld.mul(li, xi))
                base.append(acc)
            counter = Counter(base)
            for c in cs:
                tally[counter.get(fld.neg(c), 0)] += 1
    return SpectrumMultiset(dict(tally), n * len(cs))


def merged_oracle(form: QuadraticForm, max_evals: int = DEFAULT_ORACLE_BUDGET) -> SpectrumMultiset:
    """Oracle tally over every constant, for comparison with spectrum_merged."""
    return spectrum_oracle(form, "all", max_evals=max_evals)
