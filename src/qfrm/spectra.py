"""Zero-count multisets of a quadratic form shifted by every affine-linear
function, split by the class of the constant term, plus the weight
multiset of the matching first-order-code coset.

The closed forms depend only on (q, m, rank, type, class), all behind
``spectrum_formula``, for the classes that ``constant_classes`` names.
Three row sets are hand-derived: ``merged_rows`` over every constant (the
rows the rm2 table reads), the zero class, and the square class at odd
rank over odd q. The last class, ``nonzero`` or ``nonsquare``, is the
merged rows minus the others. The brute-force oracle counts instead:
``shift_tallies`` reads the forms of one (q, m) from
``forms._form_chunks``, in (q^m, F) arrays, and calls
``forms.affine_shift_counts`` once per chunk, which gives the zero
count of Q + L + c for every linear functional L and constant c at once,
exactly, for q <= 1024; it keeps, per form and constant, only the sparse
tally of those zero counts. The last batch's tallies are kept, so
``spectrum_oracle`` and ``merged_oracle`` read every class of a form in
that batch without a transform, and transform any other form as a batch
of one. A class multiset covers the whole class: the single constant 0
for ``zero``, the (q-1)/2 square or nonsquare constants, or all q-1
nonzero constants for ``nonzero``, so oracle and formula agree
entrywise. The oracle's budget counts ``forms.affine_shift_steps(q, m)``,
the transform steps per form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (
    DimensionMismatch, InconsistentQuery, InternalInconsistency, UnsupportedForBinary, admit, count_text
)
from .census import _exact_div
# field_from_order stays importable here: perfbench/tracing.py wraps it under
# this module's name
from .field import field_from_order  # noqa: F401
from .forms import QuadraticForm, _form_chunks, affine_shift_counts, affine_shift_steps, validate_rank_type

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

    def text_items(self):
        """``sorted_items`` as decimal text, however long the numbers."""
        return [(count_text(v), count_text(k)) for v, k in self.sorted_items()]

    def to_json_entries(self):
        return [{"value": v, "multiplicity": k} for v, k in self.text_items()]


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


# -- class rows: (zero count, multiplicity) summed over the constants of a class --

def _zero_rows(q, m, r, tau):
    """Rows of Q + L over every linear L: the single constant 0."""
    n = q ** m
    base = n // q
    if r == 0:
        return [(n, 1), (base, n - 1)]
    if r % 2 == 0:
        step = tau * q ** (m - (r + 2) // 2)
        s = tau * q ** ((r - 2) // 2)
        return [
            (base, n - q ** r),
            (base + step * (q - 1), q ** (r - 1) + s * (q - 1)),
            (base - step, (q - 1) * (q ** (r - 1) - s)),
        ]
    # odd rank: over even q, whose odd ranks are untyped, the rows of type +1
    step = (tau or 1) * q ** (m - (r + 1) // 2)
    s = (tau or 1) * q ** ((r - 1) // 2)
    return [
        (base, n - q ** r + q ** (r - 1)),
        (base + step, _exact_div((q - 1) * (q ** (r - 1) + s), 2)),
        (base - step, _exact_div((q - 1) * (q ** (r - 1) - s), 2)),
    ]


def _square_rows(q, m, r, tau):
    """Rows over the (q-1)/2 square constants at odd rank over odd q: per
    constant, the type correction lands on the whole count, outside the half."""
    base = q ** m // q
    half = (q - 1) // 2
    step = tau * q ** (m - (r + 1) // 2)
    s = tau * q ** ((r - 1) // 2)
    return [
        (base, half * (q ** m - q ** r + q ** (r - 1) + s)),
        (base + step, half * (half * q ** (r - 1) - s)),
        (base - step, half * half * q ** (r - 1)),
    ]


def _class_rows(q, m, r, tau, c_class):
    """Rows over every constant of the class, a value possibly listed twice."""
    if c_class == CLASS_ZERO:
        return _zero_rows(q, m, r, tau)
    if c_class == CLASS_SQUARE:
        return _square_rows(q, m, r, tau)
    # the last class: the merged rows less those of the other classes
    others = constant_classes(q, r)[:-1]
    return merged_rows(q, m, r, tau) + [
        (value, -freq) for c in others for value, freq in _class_rows(q, m, r, tau, c)
    ]


def _checked(rows, q, m, size, with_zero):
    """The multiset of ``rows`` over the shifts Q + L + c for the ``size``
    constants c of a class, checked against its first moment: a point
    x != 0 is a zero of q^(m-1) of the Q + L + c for each c, and the point
    0 of all q^m when c = 0 (``with_zero``)."""
    n = q ** m
    out: Counter = Counter()
    for value, freq in rows:
        out[value] += freq
    spectrum = SpectrumMultiset(dict(out), size * n)
    if sum(v * k for v, k in spectrum.entries.items()) != size * (n - 1) * n // q + n * with_zero:
        raise InternalInconsistency("zero counts break the first moment")
    return spectrum


def spectrum_formula(query: CosetQuery) -> SpectrumMultiset:
    """Zero-count multiset over {Q + L + c : L linear, c in the class}."""
    q, m = query.q, query.m
    rows = _class_rows(q, m, query.rank, query.type_tag, query.c_class)
    return _checked(rows, q, m, query.class_size(), query.c_class == CLASS_ZERO)


def merged_rows(q: int, m: int, rank: int, type_tag) -> list[tuple[int, int]]:
    """Rows (zero count, multiplicity) of ``spectrum_merged``, unchecked."""
    base = q ** m // q
    if rank == 0:
        return [(q ** m, 1), (0, q - 1), (base, q * (q ** m - 1))]
    if rank % 2:
        step = q ** (m - (rank + 1) // 2)
        each = _exact_div((q - 1) * q ** rank, 2)
        return [
            (base, q ** (m + 1) - q ** (rank + 1) + q ** rank),
            (base + step, each),
            (base - step, each),
        ]
    step = type_tag * q ** (m - (rank + 2) // 2)
    return [
        (base, q ** (m + 1) - q ** (rank + 1)),
        (base + step * (q - 1), q ** rank),
        (base - step, (q - 1) * q ** rank),
    ]


def spectrum_merged(q: int, m: int, rank: int, type_tag) -> SpectrumMultiset:
    """Zero-count multiset over all q^(m+1) shifts Q + L + c, c ranging over GF(q)."""
    validate_rank_type(q, m, rank, type_tag)
    return _checked(merged_rows(q, m, rank, type_tag), q, m, q, True)


def coset_weight_multiset(q: int, m: int, rank: int, type_tag) -> SpectrumMultiset:
    """Hamming weights of the coset of the first-order code led by the form.

    Each zero count N becomes the weight q^m - N. The first-order-coset
    structure needs q > 2 (the binary case pairs each form with the
    all-one shift instead).
    """
    if q <= 2:
        raise UnsupportedForBinary("coset weights need q > 2")
    merged = spectrum_merged(q, m, rank, type_tag)
    # v -> q^m - v is one-to-one, so no two zero counts share a weight
    return SpectrumMultiset({q ** m - v: k for v, k in merged.entries.items()}, merged.population)


# -- brute-force oracle ------------------------------------------------------------

def class_constants(field, c_class: str) -> list[int]:
    """The constants of the class, or of every class for ``"all"``."""
    q = field.q
    if c_class in (CLASS_SQUARE, CLASS_NONSQUARE):
        if q % 2 == 0:
            raise InconsistentQuery("square classes need odd q")
        want = 1 if c_class == CLASS_SQUARE else -1
        return [c for c in range(1, q) if field.quadratic_character(c) == want]
    spans = {CLASS_ZERO: range(1), CLASS_NONZERO: range(1, q), "all": range(q)}
    if c_class not in spans:
        raise InconsistentQuery(f"unknown constant class {c_class!r}")
    return list(spans[c_class])


# the tallies of the last ``shift_tallies`` call, by form
_kept: dict = {}


def shift_tallies(forms: list[QuadraticForm]) -> tuple[tuple[MappingProxyType, ...], ...]:
    """For each of ``forms``, all of one field and m, the read-only tallies
    {v: #{L : N(Q + L + c) = v}} over every linear functional L, one per
    constant c in index order.

    N(Q + L + c) is H[L, -c] of ``affine_shift_counts``, an exact count
    over the points; no closed forms involved. The forms are transformed
    in chunks (``_form_chunks``), one kernel call each, of as many forms
    as keep the kernel's largest array, q^(m+2) counts a form, within
    ``forms._BLOCK``; only the sparse tallies are kept, never H. The
    caller admits the work: ``affine_shift_steps(q, m)`` per form.
    """
    fld, m = forms[0].field, forms[0].m
    if any(Q.field != fld or Q.m != m for Q in forms):
        raise DimensionMismatch("a batch of forms shares one field and m")
    out = [t for values in _form_chunks(forms, fld.q ** (m + 2)) for t in _chunk_tallies(fld, m, values)]
    _kept.clear()
    _kept.update(zip(forms, out))
    return tuple(out)


def _chunk_tallies(field, m, values) -> list[tuple[MappingProxyType, ...]]:
    """``shift_tallies`` of one chunk's values, shape (q^m, F), from one
    kernel call; its arrays are freed before the next chunk's call."""
    q, (n, forms) = field.q, values.shape
    neg = [field.neg(c) for c in range(q)]
    counts = affine_shift_counts(field, m, values)
    # H[f, L, s] = v as the key (f q + s)(n + 1) + v
    width = forms * q
    keys = np.add(counts, np.arange(0, width * (n + 1), n + 1).reshape(-1, 1, q), dtype=np.int64)
    tally = np.bincount(keys.ravel(order="K"), minlength=width * (n + 1))
    rows = [{} for _ in range(width)]
    found = np.flatnonzero(tally)
    for key, k in zip(found.tolist(), tally[found].tolist()):
        row, v = divmod(key, n + 1)
        rows[row][v] = k
    return [tuple(MappingProxyType(rows[f * q + s]) for s in neg) for f in range(forms)]


def class_tally(form: QuadraticForm, tallies, c_class: str) -> SpectrumMultiset:
    """The form's ``shift_tallies`` summed over the constants of the class."""
    cs = class_constants(form.field, c_class)
    total: dict[int, int] = {}
    for c in cs:
        for v, k in tallies[c].items():
            total[v] = total.get(v, 0) + k
    return SpectrumMultiset(total, form.field.q ** form.m * len(cs))


def spectrum_oracle(
    form: QuadraticForm, c_class: str, max_evals: int = DEFAULT_ORACLE_BUDGET
) -> SpectrumMultiset:
    """Tally N(Q + L + c) over every linear functional L and every c in the class.

    Accepts the formula classes plus ``"all"`` for the merged tally over
    every constant. Each call is charged one transform before any tally
    is read. A form of the last ``shift_tallies`` batch reads that
    batch's kept tallies; any other form is transformed as a batch of one.
    """
    fld = form.field
    admit(affine_shift_steps(fld.q, form.m), max_evals, "transform steps per form")
    return class_tally(form, _kept.get(form) or shift_tallies([form])[0], c_class)


def merged_oracle(form: QuadraticForm, max_evals: int = DEFAULT_ORACLE_BUDGET) -> SpectrumMultiset:
    """Oracle tally over every constant, for comparison with spectrum_merged."""
    return spectrum_oracle(form, "all", max_evals=max_evals)
