"""Zero-count multisets of a quadratic form shifted by every affine-linear
function, split by the class of the constant term, plus the weight
multiset of the matching first-order-code coset.

The closed forms depend only on (q, m, rank, type, class), all behind
``spectrum_formula``, for the classes that ``constant_classes`` names. The
brute-force oracle ``spectrum_oracle`` counts instead: one call of
``forms.affine_shift_counts`` per form gives the zero count of Q + L + c
for every linear functional L and constant c at once, exactly, for
q <= 1024. The last form's table is kept, so the calls for each class
of one form and ``merged_oracle`` read one transform. A class multiset
covers the whole class: the single constant 0 for ``zero``, the (q-1)/2
square or nonsquare constants, or all q-1 nonzero constants for
``nonzero``, so oracle and formula agree entrywise.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    InconsistentQuery,
    InexactDivision,
    InternalInconsistency,
    UnsupportedForBinary,
    count_text,
)
# field_from_order stays importable here: perfbench/tracing.py wraps it under
# this module's name
from .field import field_from_order  # noqa: F401
from .forms import QuadraticForm, affine_shift_counts, validate_rank_type, values_on_domain

DEFAULT_ORACLE_BUDGET = 1 << 24

CLASS_ZERO = "zero"
CLASS_SQUARE = "square"
CLASS_NONSQUARE = "nonsquare"
CLASS_NONZERO = "nonzero"


def constant_classes(q: int, rank: int) -> tuple[str, ...]:
    """The constant classes a coset query of this rank splits into: odd rank
    over odd q tells square constants from nonsquare ones, every other
    rank only zero from nonzero."""
    if q % 2 and rank % 2:
        return (CLASS_ZERO, CLASS_SQUARE, CLASS_NONSQUARE)
    return (CLASS_ZERO, CLASS_NONZERO)


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
        classes = constant_classes(self.q, self.rank)
        if self.c_class not in classes:
            raise InconsistentQuery(
                f"rank {self.rank} over GF({self.q}) splits constants into "
                f"{', '.join(classes)}, not {self.c_class!r}"
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


def _rows_even_q_odd_rank(q, m, r, c_is_zero):
    base = q ** (m - 1)
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


def spectrum_formula(query: CosetQuery) -> SpectrumMultiset:
    """Zero-count multiset over {Q + L + c : L linear, c in the class}."""
    q, m, r, tau = query.q, query.m, query.rank, query.type_tag
    c_is_zero = query.c_class == CLASS_ZERO
    if r == 0:
        rows = _rows_rank0(q, m, c_is_zero)
    elif r % 2 == 0:
        rows = _rows_even_rank(q, m, r, tau, c_is_zero)
    elif q % 2 == 0:
        rows = _rows_even_q_odd_rank(q, m, r, c_is_zero)
    else:
        rows = _rows_odd_q_odd_rank(q, m, r, tau, query.c_class)
    size = query.class_size()
    return _scaled(rows, size, size * q ** m)


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

def oracle_constants(field, m: int, c_class: str, max_evals: int):
    """The constants of the class, once the oracle's budget is known to
    hold: it is charged q^(2m) evaluations per constant, whatever the
    enumeration costs, so callers can test a case before building its form."""
    q = field.q
    if c_class == CLASS_ZERO:
        cs = [0]
    elif c_class == CLASS_NONZERO:
        cs = list(range(1, q))
    elif c_class == "all":
        cs = list(range(q))
    elif c_class in (CLASS_SQUARE, CLASS_NONSQUARE):
        if q % 2 == 0:
            raise InconsistentQuery("square classes need odd q")
        want = 1 if c_class == CLASS_SQUARE else -1
        cs = [c for c in range(1, q) if field.quadratic_character(c) == want]
    else:
        raise InconsistentQuery(f"unknown constant class {c_class!r}")
    n = q ** m
    if n * n * max(len(cs), 1) > max_evals:
        raise BudgetExceeded(
            f"{count_text(n * n * len(cs))} evaluations exceed {count_text(max_evals)}"
        )
    return cs


@functools.lru_cache(maxsize=1)
def _shift_counts(form: QuadraticForm) -> np.ndarray:
    """H[L, s] of ``affine_shift_counts`` for one form, read-only: every
    constant class of the form is read from the same table."""
    counts = affine_shift_counts(form.field, form.m, values_on_domain(form)[None])[0]
    counts.flags.writeable = False
    return counts


def spectrum_oracle(
    form: QuadraticForm, c_class: str, max_evals: int = DEFAULT_ORACLE_BUDGET
) -> SpectrumMultiset:
    """Tally N(Q + L + c) over every linear functional L and every c in the class.

    Accepts the formula classes plus ``"all"`` for the merged tally over
    every constant. N(Q + L + c) is H[L, -c] of ``affine_shift_counts``,
    an exact count over the points; no closed forms involved.
    """
    fld = form.field
    n = fld.q ** form.m
    cs = oracle_constants(fld, form.m, c_class, max_evals)
    counts = _shift_counts(form)[:, [fld.neg(c) for c in cs]]
    tally = np.bincount(counts.ravel(), minlength=n + 1)
    return SpectrumMultiset(
        {int(v): int(tally[v]) for v in np.flatnonzero(tally)}, n * len(cs)
    )


def merged_oracle(form: QuadraticForm, max_evals: int = DEFAULT_ORACLE_BUDGET) -> SpectrumMultiset:
    """Oracle tally over every constant, for comparison with spectrum_merged."""
    return spectrum_oracle(form, "all", max_evals=max_evals)
