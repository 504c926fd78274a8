"""Coset zero-count multisets: closed forms against the brute-force oracle."""

import random

import pytest

from qfrm.errors import (
    EvenCharacteristic,
    InconsistentQuery,
    OddCharacteristic,
    UnsupportedForBinary,
)
from qfrm.field import field_new
from qfrm.forms import QuadraticForm, Substitution, canonical_form, substitute, triangle_size
from qfrm.spectra import (
    CosetQuery,
    SpectrumMultiset,
    coset_weight_multiset,
    merged_oracle,
    spectrum_even_q,
    spectrum_formula,
    spectrum_merged,
    spectrum_odd_q,
    spectrum_oracle,
)
from qfrm.verify import valid_classes, valid_tags

FIELDS = {2: field_new(2), 3: field_new(3), 4: field_new(2, 2), 5: field_new(5)}


def test_even_q_examples():
    got = spectrum_even_q(CosetQuery(2, 3, 3, None, "zero"))
    assert got.entries == {2: 1, 4: 4, 6: 3}
    got = spectrum_even_q(CosetQuery(2, 2, 2, 1, "zero"))
    assert got.entries == {3: 3, 1: 1}
    got = spectrum_even_q(CosetQuery(2, 3, 0, 1, "zero"))
    assert got.entries == {8: 1, 4: 7}


def test_odd_q_examples():
    got = spectrum_odd_q(CosetQuery(3, 2, 1, 1, "zero"))
    assert got.entries == {3: 7, 6: 2}
    # single square constant: the type correction lands on the whole count,
    # outside the (q-1)/2 factor; the brute-force oracle fixes this reading
    got = spectrum_odd_q(CosetQuery(3, 2, 1, 1, "square"))
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


def test_parity_dispatch_errors():
    with pytest.raises(OddCharacteristic):
        spectrum_even_q(CosetQuery(3, 2, 1, 1, "zero"))
    with pytest.raises(EvenCharacteristic):
        spectrum_odd_q(CosetQuery(2, 2, 2, 1, "zero"))


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
        for tag in valid_tags(q, rank):
            Q = canonical_form(fld, m, rank, tag)
            parts = []
            for c_class in valid_classes(q, rank):
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
            for tag in valid_tags(q, rank):
                merged = spectrum_merged(q, m, rank, tag)
                grand = sum(v * k for v, k in merged.entries.items())
                assert grand == q ** (2 * m)
