"""Coset zero-count multisets: closed forms against the brute-force oracle."""

import itertools
import random
from collections import Counter

import pytest

from qfrm import spectra
from qfrm.errors import InconsistentQuery, UnsupportedForBinary
from qfrm.field import field_new
from qfrm.forms import (
    QuadraticForm,
    Substitution,
    admissible_tags,
    canonical_form,
    substitute,
    triangle_size,
)
from qfrm.verify import run_verification
from qfrm.spectra import (
    CosetQuery,
    SpectrumMultiset,
    constant_classes,
    coset_weight_multiset,
    merged_oracle,
    spectrum_formula,
    spectrum_merged,
    spectrum_oracle,
)

FIELDS = {
    2: field_new(2), 3: field_new(3), 4: field_new(2, 2), 5: field_new(5),
    7: field_new(7), 8: field_new(2, 3), 9: field_new(3, 2),
}


def test_even_q_examples():
    got = spectrum_formula(CosetQuery(2, 3, 3, None, "zero"))
    assert got.entries == {2: 1, 4: 4, 6: 3}
    got = spectrum_formula(CosetQuery(2, 2, 2, 1, "zero"))
    assert got.entries == {3: 3, 1: 1}
    got = spectrum_formula(CosetQuery(2, 3, 0, 1, "zero"))
    assert got.entries == {8: 1, 4: 7}


def test_odd_q_examples():
    got = spectrum_formula(CosetQuery(3, 2, 1, 1, "zero"))
    assert got.entries == {3: 7, 6: 2}
    # single square constant: the type correction lands on the whole count,
    # outside the (q-1)/2 factor; the brute-force oracle fixes this reading
    got = spectrum_formula(CosetQuery(3, 2, 1, 1, "square"))
    assert got.entries == {3: 8, 0: 1}
    oracle = spectrum_oracle(canonical_form(FIELDS[3], 2, 1, 1), "square")
    assert oracle.entries == {3: 8, 0: 1}


def test_merged_examples():
    got = spectrum_merged(3, 2, 1, 1)
    assert got.entries == {3: 21, 6: 3, 0: 3}
    got = spectrum_merged(2, 2, 2, 1)
    assert got.entries == {3: 4, 1: 4}


def test_coset_weights_examples():
    got = coset_weight_multiset(3, 2, 1, 1)
    assert got.entries == {6: 21, 3: 3, 9: 3}
    got = coset_weight_multiset(3, 2, 0, 1)
    assert got.entries == {0: 1, 9: 2, 6: 24}
    with pytest.raises(UnsupportedForBinary):
        coset_weight_multiset(2, 3, 1, None)


def test_query_validation():
    with pytest.raises(InconsistentQuery):
        CosetQuery(2, 3, 3, None, "square")  # squares need odd q
    with pytest.raises(InconsistentQuery):
        CosetQuery(3, 3, 2, 1, "square")  # and odd rank
    with pytest.raises(InconsistentQuery):
        CosetQuery(3, 3, 1, 1, "nonzero")  # odd q odd rank splits by square class
    with pytest.raises(InconsistentQuery):
        CosetQuery(3, 3, 1, 1, "bogus")


def test_oracle_zero_form():
    multiset = spectrum_oracle(QuadraticForm.zero(FIELDS[3], 2), "zero")
    assert multiset.entries == {9: 1, 3: 8}


def test_populations():
    assert spectrum_formula(CosetQuery(5, 2, 1, 1, "square")).population == 2 * 25
    assert spectrum_formula(CosetQuery(4, 2, 2, 1, "nonzero")).population == 3 * 16
    assert spectrum_merged(5, 2, 2, 1).population == 5 ** 3


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_m0_spectra_are_exact(q):
    # at m = 0 the generic row value q^(m-1) is the float 1/q; it must not leak
    parts = [spectrum_merged(q, 0, 0, 1)]
    parts += [spectrum_formula(CosetQuery(q, 0, 0, 1, c)) for c in ("zero", "nonzero")]
    for part in parts:
        assert all(type(v) is int for v in part.entries)
    assert parts[0].entries == merged_oracle(QuadraticForm.zero(FIELDS[q], 0)).entries


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_formula_equals_oracle(q, m):
    fld = FIELDS[q]
    for rank in range(0, m + 1):
        for tag in admissible_tags(q, rank):
            Q = canonical_form(fld, m, rank, tag)
            parts = []
            for c_class in constant_classes(q, rank):
                formula = spectrum_formula(CosetQuery(q, m, rank, tag, c_class))
                oracle = spectrum_oracle(Q, c_class)
                assert formula.entries == oracle.entries, (q, m, rank, tag, c_class)
                assert formula.population == oracle.population
                parts.append(oracle)
            merged = spectrum_merged(q, m, rank, tag)
            assert merged.entries == merged_oracle(Q).entries
            assert SpectrumMultiset.merge(parts).entries == merged.entries


@pytest.mark.parametrize("q", [3, 5])
def test_odd_rank_merged_is_type_independent(q):
    for m in (1, 2, 3):
        for rank in range(1, m + 1, 2):
            plus = spectrum_merged(q, m, rank, 1)
            minus = spectrum_merged(q, m, rank, -1)
            assert plus.entries == minus.entries


def test_oracle_invariant_under_substitution():
    rng = random.Random(41)
    for q, m in [(2, 3), (3, 2), (4, 2), (5, 2)]:
        fld = FIELDS[q]
        for _ in range(5):
            coeffs = tuple(rng.randrange(q) for _ in range(triangle_size(m)))
            Q = QuadraticForm(fld, m, coeffs)
            base = merged_oracle(Q)
            for _ in range(3):
                while True:
                    rows = tuple(
                        tuple(rng.randrange(q) for _ in range(m)) for _ in range(m)
                    )
                    try:
                        A = Substitution(fld, m, rows)
                        break
                    except Exception:
                        continue
                assert merged_oracle(substitute(Q, A)).entries == base.entries


def test_mean_identity_merged():
    # sum of N(f) over all q^(m+1) shifts: each point is a zero of exactly
    # q^m of the affine completions, so the grand total is q^(2m)
    for q, m in [(2, 2), (3, 2), (4, 2), (5, 1), (3, 3)]:
        for rank in range(0, m + 1):
            for tag in admissible_tags(q, rank):
                merged = spectrum_merged(q, m, rank, tag)
                grand = sum(v * k for v, k in merged.entries.items())
                assert grand == q ** (2 * m)



def _direct_zero_counts(form):
    """hist[L][s] = #{x : Q(x) + L.x = s}, by QuadraticForm.evaluate and the
    field's scalar operations, L running over the points."""
    fld, m = form.field, form.m
    add = [[fld.add(a, b) for b in range(fld.q)] for a in range(fld.q)]
    mul = [[fld.mul(a, b) for b in range(fld.q)] for a in range(fld.q)]
    points = list(itertools.product(range(fld.q), repeat=m))
    values = [form.evaluate(x) for x in points]
    hist = []
    for L in points:
        counts = Counter()
        for x, v in zip(points, values):
            for li, xi in zip(L, x):
                v = add[v][mul[li][xi]]
            counts[v] += 1
        hist.append(counts)
    return hist


def _oracle_classes(q):
    """Every class the oracle accepts over GF(q), whatever the rank."""
    return ("zero", "nonzero", "all") + (("square", "nonsquare") if q % 2 else ())


def _direct_spectrum(hist, fld, c_class):
    if c_class == "all":
        cs = range(fld.q)
    elif c_class == "zero":
        cs = [0]
    elif c_class == "nonzero":
        cs = range(1, fld.q)
    else:
        want = 1 if c_class == "square" else -1
        cs = [c for c in range(1, fld.q) if fld.quadratic_character(c) == want]
    return dict(Counter(h[fld.neg(c)] for h in hist for c in cs))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_shared_transform_matches_direct_count(q, m):
    # every class of a form reads one cached transform; the calls on two forms
    # are shuffled together, so a table kept for the wrong form would show
    fld = FIELDS[q]
    rng = random.Random(1000 * q + m)
    forms = [canonical_form(fld, m, r, t) for r in range(m + 1) for t in admissible_tags(q, r)]
    forms += [
        QuadraticForm(fld, m, tuple(rng.randrange(q) for _ in range(triangle_size(m))))
        for _ in range(2)
    ]
    if m == 3 and q > 5:  # the direct count costs q^(2m) steps a form
        forms = forms[-3:-1]
    hists = {Q: _direct_zero_counts(Q) for Q in forms}
    for pair in zip(forms, forms[1:] + forms[:1]):
        calls = [(Q, c) for Q in pair for c in _oracle_classes(q)]
        rng.shuffle(calls)
        for Q, c_class in calls:
            expected = _direct_spectrum(hists[Q], fld, c_class)
            assert spectrum_oracle(Q, c_class).entries == expected, (Q, c_class)
        assert merged_oracle(pair[0]).entries == _direct_spectrum(hists[pair[0]], fld, "all")


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_shift_counts_keyed_by_field(m):
    # the zero forms over GF(2) and GF(3) share m and coefficients
    for q in (2, 3, 2):
        Q = QuadraticForm.zero(FIELDS[q], m)
        hist = _direct_zero_counts(Q)
        for c_class in _oracle_classes(q):
            assert spectrum_oracle(Q, c_class).entries == _direct_spectrum(hist, FIELDS[q], c_class)


def test_shift_counts_are_read_only():
    counts = spectra._shift_counts(canonical_form(FIELDS[3], 2, 2, 1))
    assert not counts.flags.writeable
    with pytest.raises(ValueError):
        counts[0, 0] = 0


def test_one_transform_per_form_on_the_default_grid(monkeypatch):
    calls = []

    def counting(field, m, values):
        calls.append((field.q, m, len(values)))
        return kernel(field, m, values)

    kernel = spectra.affine_shift_counts
    monkeypatch.setattr(spectra, "affine_shift_counts", counting)
    spectra._shift_counts.cache_clear()
    results = run_verification("spectra")
    assert results and all(r.passed and not r.skipped for r in results)
    assert len(calls) == 52
    assert all(n == 1 for _, _, n in calls)
