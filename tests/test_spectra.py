"""Coset zero-count multisets: closed forms against the brute-force oracle."""

import random
from collections import Counter

import pytest
from algebra import evaluate, mat_mul, points, random_invertible, substitute

from qfrm import spectra
from qfrm.errors import BudgetExceeded, DimensionMismatch, InconsistentQuery, UnsupportedForBinary
from qfrm.field import field_new
from qfrm.forms import (
    QuadraticForm,
    admissible_tags,
    affine_shift_steps,
    canonical_form,
    triangle_size,
)
from qfrm.verify import SPECTRA_GRID, check_spectra, run_verification
from qfrm.spectra import (
    CosetQuery,
    class_constants,
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


def test_class_constants():
    assert class_constants(FIELDS[5], "square") == [1, 4]
    assert class_constants(FIELDS[5], "nonsquare") == [2, 3]
    assert class_constants(FIELDS[4], "nonzero") == [1, 2, 3]
    assert class_constants(FIELDS[4], "merged") == [0, 1, 2, 3]
    with pytest.raises(InconsistentQuery, match="square classes need odd q"):
        class_constants(FIELDS[4], "square")
    with pytest.raises(InconsistentQuery, match="unknown constant class"):
        class_constants(FIELDS[3], "bogus")


def test_merged_is_one_more_class():
    # the class of all q constants, in the formula and the oracle alike;
    # "all", the oracle's old name for it, is refused everywhere
    for q in (2, 3, 4, 5, 9):
        fld = FIELDS[q]
        assert class_constants(fld, "merged") == list(range(q))
        with pytest.raises(InconsistentQuery, match="unknown constant class 'all'"):
            class_constants(fld, "all")
        for m in range(4):
            for rank in range(m + 1):
                for tag in admissible_tags(q, rank):
                    query = CosetQuery(q, m, rank, tag, "merged")
                    assert query.class_size() == q
                    formula = spectrum_formula(query)
                    merged = spectrum_merged(q, m, rank, tag)
                    assert formula.entries == merged.entries
                    assert formula.population == merged.population == q ** (m + 1)
                    Q = canonical_form(fld, m, rank, tag)
                    oracle = spectrum_oracle(Q, "merged")
                    assert oracle.entries == merged_oracle(Q).entries == formula.entries
                    assert oracle.population == q ** (m + 1)
                    with pytest.raises(InconsistentQuery):
                        CosetQuery(q, m, rank, tag, "all")
                    with pytest.raises(InconsistentQuery, match="unknown constant class 'all'"):
                        spectrum_oracle(Q, "all")


def test_oracle_is_charged_one_transform_per_call():
    # every class costs the form's one transform, whatever its size
    Q = canonical_form(FIELDS[5], 3, 3, 1)
    steps = affine_shift_steps(5, 3)
    for c_class in ("zero", "square", "nonsquare", "merged"):
        assert spectrum_oracle(Q, c_class, max_evals=steps).population > 0
        with pytest.raises(
            BudgetExceeded, match=f"^{steps} transform steps per form exceed {steps - 1}$"
        ):
            spectrum_oracle(Q, c_class, max_evals=steps - 1)


def test_oracle_zero_form():
    multiset = spectrum_oracle(QuadraticForm.zero(FIELDS[3], 2), "zero")
    assert multiset.entries == {9: 1, 3: 8}


def test_populations():
    assert spectrum_formula(CosetQuery(5, 2, 1, 1, "square")).population == 2 * 25
    assert spectrum_formula(CosetQuery(4, 2, 2, 1, "nonzero")).population == 3 * 16
    assert spectrum_merged(5, 2, 2, 1).population == 5 ** 3


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_m0_spectra_are_exact(q):
    # at m = 0 a row value written q^(m-1) would be the float 1/q; the rows
    # write it q^m // q, so every value is an int even where its row is empty
    assert all(type(v) is int for v, _ in spectra.merged_rows(q, 0, 0, 1))
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
            classes = constant_classes(q, rank)
            for c_class in classes:
                formula = spectrum_formula(CosetQuery(q, m, rank, tag, c_class))
                oracle = spectrum_oracle(Q, c_class)
                assert formula.entries == oracle.entries, (q, m, rank, tag, c_class)
                assert formula.population == oracle.population
            merged = spectrum_merged(q, m, rank, tag)
            assert merged.entries == merged_oracle(Q).entries
            # the classes partition GF(q), so their oracle tallies add up to the merged one
            constants = [c for c_class in classes for c in class_constants(fld, c_class)]
            assert sorted(constants) == list(range(q))


@pytest.mark.parametrize("q", [3, 5])
def test_odd_rank_merged_is_type_independent(q):
    for m in (1, 2, 3):
        for rank in range(1, m + 1, 2):
            plus = spectrum_merged(q, m, rank, 1)
            minus = spectrum_merged(q, m, rank, -1)
            assert plus.entries == minus.entries


# Per-constant rows of every class, one hand-derived block per (rank shape,
# class): a derivation of each class independent of spectra's, which takes
# the last class as the merged rows less the others. At m = 0 a value
# q^(m-1) is a float, on an empty row only.
def reference_class_rows(q, m, r, tau, c_class):
    base = q ** (m - 1)
    c_is_zero = c_class == "zero"
    if r == 0:
        return [(q ** m if c_is_zero else 0, 1), (base, q ** m - 1)]
    if r % 2 == 0:
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
    step = q ** (m - (r + 1) // 2)
    s = q ** ((r - 1) // 2)
    if q % 2 == 0:
        up, down = (q - 1) * (q ** (r - 1) + s), (q - 1) * (q ** (r - 1) - s)
        if not c_is_zero:
            up, down = q ** r - q ** (r - 1) - s, q ** r - q ** (r - 1) + s
        assert up % 2 == 0 and down % 2 == 0
        return [
            (base, q ** m - q ** r + q ** (r - 1)),
            (base + step, up // 2),
            (base - step, down // 2),
        ]
    half = (q - 1) // 2
    if c_is_zero:
        return [
            (base, q ** m - q ** r + q ** (r - 1)),
            (base + tau * step, half * (q ** (r - 1) + tau * s)),
            (base - tau * step, half * (q ** (r - 1) - tau * s)),
        ]
    if c_class == "square":
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_class_rows_match_the_per_constant_reference(q):
    # past the oracle's m <= 3: each class multiset is its per-constant rows
    # times the class size, whichever rows the formula derives it from
    for m in range(25 if q < 10 else 13):
        for r in range(m + 1):
            for tag in admissible_tags(q, r):
                for c_class in constant_classes(q, r):
                    query = CosetQuery(q, m, r, tag, c_class)
                    want = Counter()
                    for value, freq in reference_class_rows(q, m, r, tag, c_class):
                        if freq:
                            want[value] += freq * query.class_size()
                    assert spectrum_formula(query).entries == want, (m, r, tag, c_class)


def test_oracle_invariant_under_substitution():
    rng = random.Random(41)
    for q, m in [(2, 3), (3, 2), (4, 2), (5, 2)]:
        fld = FIELDS[q]
        for _ in range(5):
            coeffs = tuple(rng.randrange(q) for _ in range(triangle_size(m)))
            Q = QuadraticForm(fld, m, coeffs)
            base = merged_oracle(Q)
            for _ in range(3):
                A = random_invertible(rng, fld, m)
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
    """hist[L][s] = #{x : Q(x) + L.x = s}, with Q(x) from its definition
    and L.x one matrix product over the field, L running over the points."""
    fld = form.field
    xs = points(fld, form.m)
    shifted = fld.add_array[mat_mul(fld, xs, xs.T), evaluate(form, xs)[None, :]]
    return [Counter(row) for row in shifted.tolist()]


def _oracle_classes(q):
    """Every class the oracle accepts over GF(q), whatever the rank."""
    return ("zero", "nonzero", "merged") + (("square", "nonsquare") if q % 2 else ())


def _direct_spectrum(hist, fld, c_class):
    if c_class == "merged":
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
    # every class of a form reads its one kept transform; the calls on two forms
    # are shuffled together, so tallies kept for the wrong form would show
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
        assert merged_oracle(pair[0]).entries == _direct_spectrum(hists[pair[0]], fld, "merged")


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_shift_counts_keyed_by_field(m):
    # the zero forms over GF(2) and GF(3) share m and coefficients
    for q in (2, 3, 2):
        Q = QuadraticForm.zero(FIELDS[q], m)
        hist = _direct_zero_counts(Q)
        for c_class in _oracle_classes(q):
            assert spectrum_oracle(Q, c_class).entries == _direct_spectrum(hist, FIELDS[q], c_class)


def test_shift_counts_are_read_only():
    # no object the oracles return reaches into the kept tallies
    Q = canonical_form(FIELDS[3], 2, 2, 1)
    tallies = spectra.shift_tallies([Q])
    before = [dict(t) for t in tallies[0]]
    with pytest.raises(TypeError):
        tallies[0][0][3] = 0
    with pytest.raises(TypeError):
        tallies[0][0] = {}
    with pytest.raises(TypeError):
        tallies[0] = ()
    spectrum_oracle(Q, "zero").entries.clear()
    merged_oracle(Q).entries[3] = 0
    spectra.class_tally(Q, tallies[0], "merged").entries.clear()
    assert [dict(t) for t in spectra._kept[Q]] == before
    assert spectrum_oracle(Q, "zero").entries == _direct_spectrum(_direct_zero_counts(Q), FIELDS[3], "zero")


def test_one_transform_per_pair_on_the_default_grid(monkeypatch):
    calls = []

    def counting(field, m, values):
        calls.append((field.q, m, values.shape[1]))
        return kernel(field, m, values)

    kernel = spectra.affine_shift_counts
    monkeypatch.setattr(spectra, "affine_shift_counts", counting)
    spectra._kept.clear()
    results = run_verification("spectra")
    assert results and all(r.passed and not r.skipped for r in results)
    assert len(calls) == 12
    assert sum(n for _, _, n in calls) == 52
    # each call carries every form of its pair
    assert calls == [
        (q, m, sum(len(admissible_tags(q, r)) for r in range(m + 1))) for q, m in SPECTRA_GRID
    ]


@pytest.mark.parametrize("q,m", [(3, 2), (4, 2), (5, 2), (9, 1), (2, 3), (2, 0), (5, 0)])
def test_batched_oracle_equals_the_one_form_oracle(q, m):
    # a batch mixes canonical forms with random substitutions of them; each
    # form's classes from the batch equal those of the form transformed alone
    fld = FIELDS[q]
    rng = random.Random(100 * q + m)
    forms = [canonical_form(fld, m, r, t) for r in range(m + 1) for t in admissible_tags(q, r)]
    if m:
        forms += [substitute(Q, random_invertible(rng, fld, m)) for Q in forms]
        rng.shuffle(forms)
    batch = spectra.shift_tallies(forms)
    assert len(batch) == len(forms)
    for Q, tallies in zip(forms, batch):
        batched = {c: spectra.class_tally(Q, tallies, c).entries for c in _oracle_classes(q)}
        spectra._kept.clear()
        alone = {c: spectrum_oracle(Q, c).entries for c in _oracle_classes(q)}
        assert batched == alone, Q
        assert merged_oracle(Q).entries == batched["merged"]
        assert sum(v * k for v, k in batched["merged"].items()) == q ** (2 * m)


def test_batch_refuses_forms_of_two_fields():
    # GF(2)^2 and GF(4)^1 both have 4 points, so their values would stack
    with pytest.raises(DimensionMismatch, match="one field and m"):
        spectra.shift_tallies([QuadraticForm.zero(FIELDS[2], 2), QuadraticForm.zero(FIELDS[4], 1)])


def test_batched_oracle_chunks_by_block(monkeypatch):
    # a form takes q^(m+2) counts in the kernel and a call at most 2^18:
    # 3^9 a form over (3, 7) puts 13 forms in a call, 2^11 over (2, 9) all 14
    calls = []

    def counting(field, m, values):
        calls.append(values.shape[1])
        return kernel(field, m, values)

    kernel = spectra.affine_shift_counts
    monkeypatch.setattr(spectra, "affine_shift_counts", counting)
    for q, m, sizes in [(3, 7, [13, 2]), (2, 9, [14])]:
        calls.clear()
        results = check_spectra(q, m)
        assert results and all(r.passed and not r.skipped for r in results)
        assert calls == sizes, (q, m)
