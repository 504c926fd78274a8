"""Weight distributions: golden values, oracle agreement, and structural
identities between the three families."""

import math
import time
from collections import Counter

import pytest

from qfrm.census import census_formula
from qfrm.codes import (
    CodeParameters,
    brute_force_distribution,
    code_parameters,
    coset_assembled_distribution,
    distribution,
    format_enumerator,
    hrm2_distribution,
    prm2_distribution,
    rm2_distribution,
    weight_enumerator_text,
)
from qfrm import codes
from qfrm.errors import BudgetExceeded, InternalInconsistency, UnsupportedParameters
from qfrm.forms import TYPE_LABELS, admissible_tags, affine_shift_steps, zero_count_formula
from qfrm.verify import CODES_GRID, check_codes, run_verification

GOLD_RM_2_7 = (
    "1 + 10668*Z^32 + 5291328*Z^48 + 112881664*Z^56 + 300503590*Z^64 + "
    "112881664*Z^72 + 5291328*Z^80 + 10668*Z^96 + Z^128"
)
GOLD_RM_3_4 = (
    "1 + 240*Z^27 + 14040*Z^36 + 519480*Z^45 + 1705860*Z^48 + 2729376*Z^51 + "
    "4062720*Z^54 + 3411720*Z^57 + 1364688*Z^60 + 533520*Z^63 + 7020*Z^72 + 242*Z^81"
)
GOLD_HRM_3_4 = "1 + 1560*Z^36 + 21060*Z^48 + 18800*Z^54 + 16848*Z^60 + 780*Z^72"
GOLD_PRM_3_4 = "1 + 14520*Z^54 + 2548260*Z^72 + 9740258*Z^81 + 2038608*Z^90 + 7260*Z^108"


def test_code_parameters_examples():
    assert code_parameters("rm2", 2, 7) == CodeParameters(128, 29, 32)
    # the homogeneous minimum distance is (q-1)^2 q^(m-2); for (3, 4) that is 36,
    # matching the golden enumerator's lowest term
    assert code_parameters("hrm2", 3, 4) == CodeParameters(81, 10, 36)
    assert code_parameters("prm2", 3, 4) == CodeParameters(121, 15, 54)
    assert code_parameters("hrm2", 5, 1) == CodeParameters(5, 1, 4)
    assert code_parameters("hrm2", 2, 1) == CodeParameters(2, 1, 1)
    assert code_parameters("rm2", 3, 1) == CodeParameters(3, 3, 1)


def test_code_parameters_guards():
    with pytest.raises(UnsupportedParameters):
        code_parameters("rm2", 2, 1)
    with pytest.raises(UnsupportedParameters):
        code_parameters("hrm2", 3, 0)
    with pytest.raises(UnsupportedParameters):
        code_parameters("nope", 3, 2)


def test_golden_enumerators():
    assert weight_enumerator_text(rm2_distribution(2, 7)) == GOLD_RM_2_7
    assert weight_enumerator_text(rm2_distribution(3, 4)) == GOLD_RM_3_4
    assert weight_enumerator_text(hrm2_distribution(3, 4)) == GOLD_HRM_3_4
    assert weight_enumerator_text(prm2_distribution(3, 4)) == GOLD_PRM_3_4


def test_rm2_binary_m2_is_whole_space():
    # k = n = 4: every binary word is a codeword, binomial weights
    assert rm2_distribution(2, 2).entries == {w: math.comb(4, w) for w in range(5)}


def test_hrm2_single_variable():
    for q in (3, 4, 5, 7):
        assert hrm2_distribution(q, 1).entries == {0: 1, q - 1: q - 1}


@pytest.mark.parametrize(
    "family,q,m",
    [
        ("rm2", 3, 1),
        ("rm2", 3, 2),
        ("rm2", 4, 2),
        ("rm2", 2, 3),
        ("rm2", 2, 4),
        ("rm2", 2, 6),  # k = 22
        ("hrm2", 2, 6),  # k = 21
        ("hrm2", 2, 2),
        ("hrm2", 2, 3),
        ("hrm2", 3, 2),
        ("hrm2", 4, 2),
        ("hrm2", 5, 2),
        ("hrm2", 3, 1),  # k = 1: a single block of forms
        ("prm2", 2, 1),
        ("prm2", 2, 2),
        ("prm2", 2, 4),
        ("prm2", 3, 1),
        ("prm2", 3, 2),
        ("prm2", 4, 1),
        ("prm2", 5, 1),
        *[(family, q, 2) for q in (7, 8, 9) for family in ("rm2", "hrm2", "prm2")],
    ],
)
def test_formula_matches_brute_force(family, q, m):
    assert distribution(family, q, m).entries == brute_force_distribution(family, q, m).entries


def test_verify_codes_default_grid():
    results = run_verification("codes")
    assert results
    assert all(r.status == "PASS" for r in results), [r.name for r in results if r.status != "PASS"]
    assert "codes prm2 q=2 m=5 formula=brute" in {r.name for r in results}


def test_prm_binary_equals_punctured_homogeneous():
    # over GF(2) the projective points are all nonzero vectors, so the code is
    # the homogeneous code one dimension up with its zero coordinate deleted
    for m in (1, 2, 3):
        prm = brute_force_distribution("prm2", 2, m)
        assert prm.entries == hrm2_distribution(2, m + 1).entries
        assert prm.entries == prm2_distribution(2, m).entries


def test_prm_3_1_parameters_and_oracle():
    # d = (q-1) q^(m-1) = 2, confirmed by the codeword enumeration below
    wd = prm2_distribution(3, 1)
    assert (wd.params.n, wd.params.k, wd.params.d) == (4, 3, 2)
    assert wd.entries == {0: 1, 2: 12, 3: 8, 4: 6}
    assert wd.entries == brute_force_distribution("prm2", 3, 1).entries


# the codes acceptance grid, plus the m = 1 corners and the smallest binary pairs
ORDER_GRID = CODES_GRID + ((3, 1), (4, 1), (7, 1), (2, 2), (2, 3))


@pytest.mark.parametrize("q,m", ORDER_GRID)
@pytest.mark.parametrize("order", ["prm2 first", "prm2 second", "prm2 after eviction"])
def test_brute_tables_ignore_call_order(q, m, order):
    # over q > 2 rm2 and prm2 read one kept enumeration; whichever family
    # runs first, and whether the tallies were evicted between the two, each
    # table equals its closed form
    want = {family: distribution(family, q, m).entries for family in ("rm2", "prm2")}
    codes._codeword_tallies.cache_clear()
    if order == "prm2 first":
        got = {family: brute_force_distribution(family, q, m).entries for family in ("prm2", "rm2")}
    elif order == "prm2 second":
        got = {family: brute_force_distribution(family, q, m).entries for family in ("rm2", "prm2")}
    else:
        got = {"rm2": brute_force_distribution("rm2", q, m).entries}
        other = (5, 1) if (q, m) == (3, 1) else (3, 1)
        brute_force_distribution("rm2", *other)
        misses = codes._codeword_tallies.cache_info().misses
        got["prm2"] = brute_force_distribution("prm2", q, m).entries
        assert codes._codeword_tallies.cache_info().misses == misses + 1
    assert got == want


@pytest.mark.parametrize(
    "q,m,parts",
    [
        (3, 3, 3 ** 6),  # rm2 and prm2 share the 3^6 parts
        (2, 4, 2 ** 6 + 2 ** 10),  # binary rm2 enumerates its own i < j parts
    ],
)
def test_check_codes_enumerates_once(monkeypatch, q, m, parts):
    transformed = []
    real = codes.affine_shift_counts

    def counting(field, m, values):
        transformed.append(len(values))
        return real(field, m, values)

    monkeypatch.setattr(codes, "affine_shift_counts", counting)
    codes._codeword_tallies.cache_clear()
    results = check_codes(q, m)
    assert all(r.status == "PASS" for r in results), [r.name for r in results if r.status != "PASS"]
    assert sum(transformed) == parts


# Reference tables: each family's rows derived by hand from the census, one
# loop per family, independently of the per-class rows (spectra.merged_rows,
# forms.zero_count_formula) that the census-weighted tally in codes reads.
def _reference_census(q, m):
    entries = census_formula(q, m).entries
    return entries, {r: c for (r, _), c in entries.items() if r % 2}


def reference_rm2(q, m):
    census, odd = _reference_census(q, m)
    if q == 2:
        half = 1 << (m - 1)
        ent = Counter({0: 1, 2 * half: 1})
        ent[half] += 2 * sum(odd.values())
        for j in range(1, m // 2 + 1):
            both = census[(2 * j, "plus")] + census[(2 * j, "minus")]
            ent[half + (half >> j)] += both
            ent[half - (half >> j)] += both
        return dict(ent)
    n, step, square = q ** m, q ** (m - 1), 1  # step q^(m-j-1), square q^(2j) in the loop
    base, shifts = n - step, q * n  # shifts: the q^(m+1) affine parts of each form
    low_row = q * (q - 1) * odd[1] // 2
    ent = Counter({0: 1, n - 2 * (n // q): low_row, n: low_row + q - 1})
    # balanced row: the affine parts of each rank that no other row takes
    balanced = q * (n - 1) + odd[1] * (shifts - q * q + q)
    for j in range(1, m // 2 + 1):
        step //= q
        square *= q * q
        both = census[(2 * j, "plus")] + census[(2 * j, "minus")]
        odd_count = odd.get(2 * j + 1, 0)
        balanced += both * (shifts - q * square) + odd_count * (shifts - (q - 1) * q * square)
        odd_part = (q - 1) * q * square * odd_count // 2
        for tau in (1, -1):
            v = square * census[(2 * j, TYPE_LABELS[tau])]
            ent[base - tau * step * (q - 1)] += v
            ent[base + tau * step] += (q - 1) * v + odd_part
    ent[base] += balanced
    return {w: f for w, f in ent.items() if f}


def reference_hrm2(q, m):
    census, odd = _reference_census(q, m)
    n, step = q ** m, q ** (m - 1)  # step is q^(m-j-1) in the loop
    base = n - step
    ent = Counter({0: 1, base: sum(odd.values())})
    for j in range(1, m // 2 + 1):
        step //= q
        for tau in (1, -1):
            ent[base - tau * step * (q - 1)] += census[(2 * j, TYPE_LABELS[tau])]
    return {w: f for w, f in ent.items() if f}


def reference_prm2(q, m):
    # projective rows read directly, not through the homogeneous table
    census, odd = _reference_census(q, m + 1)
    n = step = q ** m  # step is q^(m-j) in the loop
    ent = Counter({0: 1, n: sum(odd.values())})
    for j in range(1, (m + 1) // 2 + 1):
        step //= q
        for tau in (1, -1):
            ent[n - tau * step] += census[(2 * j, TYPE_LABELS[tau])]
    return {w: f for w, f in ent.items() if f}


# centre m of the benchmark's closed-form workload for some q
LARGE_PAIRS = [(3, 72), (9, 56), (2, 96), (5, 64)]


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (4, 2), (5, 2), (7, 2), (3, 4), (9, 2)] + LARGE_PAIRS)
def test_coset_assembly_agrees_with_table(q, m):
    # binary rm2 reads the same coset rows, each coset led by 2^m forms
    table = coset_assembled_distribution(q, m) if q > 2 else rm2_distribution(q, m)
    assert table.entries == reference_rm2(q, m)


def test_coset_assembly_rejects_binary():
    with pytest.raises(UnsupportedParameters):
        coset_assembled_distribution(2, 3)


def test_coset_assembly_refuses_a_merged_row_one_off(monkeypatch):
    # one multiplicity of one class off by one: the per-class check must name
    # that class, before the table's own q^k mass check would see it
    real = codes.merged_rows

    def merged_rows(q, m, rank, type_tag):
        rows = real(q, m, rank, type_tag)
        if rank == 2:
            rows[1] = (rows[1][0], rows[1][1] + 1)
        return rows

    monkeypatch.setattr(codes, "merged_rows", merged_rows)
    with pytest.raises(InternalInconsistency, match="rank 2 "):
        coset_assembled_distribution(3, 4)


@pytest.mark.parametrize(
    "build,q,m",
    [
        (rm2_distribution, 2, 9),
        (rm2_distribution, 3, 8),
        (hrm2_distribution, 3, 8),
        (prm2_distribution, 3, 8),
        (prm2_distribution, 2, 9),
        (coset_assembled_distribution, 4, 7),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_one_census_per_table(monkeypatch, build, q, m):
    # prm2 reads the census one dimension up
    calls = []
    real = codes.census_formula
    monkeypatch.setattr(codes, "census_formula", lambda *args: calls.append(args) or real(*args))
    build(q, m)
    assert [args[:2] for args in calls] == [(q, m + 1 if build is prm2_distribution else m)]


# (m, q) order keeps the test ids of the former m x q grid
@pytest.mark.parametrize(
    "m,q", [(m, q) for m in (1, 2, 3, 4) for q in (2, 3, 4, 5)] + [(m, q) for q, m in LARGE_PAIRS]
)
def test_prm_is_scaled_hrm(q, m):
    # the library builds prm2 as hrm2 one dimension up, weights divided by
    # q - 1; the hand-derived projective rows must give the same table
    prm = prm2_distribution(q, m)
    assert prm.entries == reference_prm2(q, m)
    hrm = reference_hrm2(q, m + 1)
    assert hrm2_distribution(q, m + 1).entries == hrm
    assert {w // (q - 1): f for w, f in hrm.items()} == prm.entries


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_mass_and_distance_invariants(q, m):
    for family in ("rm2", "hrm2", "prm2"):
        if family == "rm2" and q == 2 and m < 2:
            continue
        wd = distribution(family, q, m)
        assert wd.entries[0] == 1
        assert sum(wd.entries.values()) == q ** wd.params.k
        assert min(w for w in wd.entries if w > 0) == wd.params.d
        assert max(wd.entries) <= wd.params.n


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2), (4, 2), (5, 2), (3, 4), (8, 2), (9, 3)])
def test_hrm_frequencies_are_census_weighted_zero_counts(q, m):
    wd = hrm2_distribution(q, m)
    rebuilt: dict[int, int] = {}
    for (rank, label), count in census_formula(q, m).entries.items():
        # odd_total counts both types of an odd rank, whose zero count ignores the type
        tags = admissible_tags(q, rank)
        tag = next((t for t in tags if TYPE_LABELS[t] == label), tags[0])
        w = q ** m - zero_count_formula(rank, tag, q, m)
        rebuilt[w] = rebuilt.get(w, 0) + count
    rebuilt = {w: f for w, f in rebuilt.items() if f}
    assert rebuilt == wd.entries


def test_brute_force_budget():
    # 3^6 quadratic parts, one transform each
    steps = 3 ** 6 * affine_shift_steps(3, 3)
    with pytest.raises(BudgetExceeded, match=f"^{steps} transform steps exceed {steps - 1}$"):
        brute_force_distribution("rm2", 3, 3, max_steps=steps - 1)
    assert brute_force_distribution("rm2", 3, 3, max_steps=steps).entries == rm2_distribution(3, 3).entries


@pytest.mark.parametrize(
    "family,q,m,steps",
    [
        # binary rm2 enumerates only the m(m-1)/2 cross terms
        ("rm2", 2, 4, 2 ** 6 * affine_shift_steps(2, 4)),
        # hrm2 compares each form on its q^m points, with no transform
        ("hrm2", 3, 2, 3 ** 3 * 3 ** 2),
        ("prm2", 2, 3, 2 ** 6 * affine_shift_steps(2, 3)),
    ],
)
def test_brute_force_is_charged_its_kernel_steps(family, q, m, steps):
    with pytest.raises(BudgetExceeded, match=f"^{steps} transform steps exceed {steps - 1}$"):
        brute_force_distribution(family, q, m, max_steps=steps - 1)
    assert brute_force_distribution(family, q, m, max_steps=steps).entries == distribution(family, q, m).entries


class Admitted(Exception):
    pass


def _admit_only(q):
    raise Admitted


@pytest.mark.parametrize(
    "family,q,m,admitted",
    [
        ("hrm2", 3, 5, False),
        ("hrm2", 5, 4, False),
        ("hrm2", 11, 3, False),
        ("hrm2", 13, 3, False),
        ("prm2", 19, 2, True),
    ],
)
def test_default_step_budget_verdicts(monkeypatch, family, q, m, admitted):
    # the verdict comes before the field is built, so an admitted pair stops there
    monkeypatch.setattr(codes, "field_from_order", _admit_only)
    with pytest.raises(Admitted if admitted else BudgetExceeded):
        brute_force_distribution(family, q, m)


def test_brute_force_budget_checked_before_the_domain(monkeypatch):
    # hrm2 q=2 m=22 has 2^22 points; listing them alone takes tens of
    # seconds. The charge is read off (family, q, m): no field or plane is built
    monkeypatch.setattr(codes, "field_from_order", None)
    monkeypatch.setattr(codes, "_monomial_planes", None)
    for family, m in (("hrm2", 22), ("rm2", 40)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            brute_force_distribution(family, 2, m)
        assert time.perf_counter() - start < 0.05


def test_enumerator_formatting():
    assert format_enumerator({0: 1}) == "1"
    assert format_enumerator({0: 1, 5: 1}) == "1 + Z^5"
    assert format_enumerator({0: 1, 3: 7, 5: 1}) == "1 + 7*Z^3 + Z^5"
    assert format_enumerator({}) == "0"
