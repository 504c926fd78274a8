"""Weight distributions: golden values, oracle agreement, and structural
identities between the three families."""

import math

import pytest

from qfrm.census import census_formula
from qfrm.codes import (
    CodeParameters,
    affine_points,
    brute_force_distribution,
    code_parameters,
    coset_assembled_distribution,
    distribution,
    format_enumerator,
    hrm2_distribution,
    prm2_distribution,
    projective_points,
    rm2_distribution,
    weight_enumerator_text,
)
from qfrm.errors import BudgetExceeded, UnsupportedParameters
from qfrm.field import field_new
from qfrm.forms import zero_count_formula
from qfrm.verify import run_verification

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
        ("hrm2", 3, 1),  # k = 1: the high half of the split is empty
        ("prm2", 2, 1),
        ("prm2", 2, 2),
        ("prm2", 2, 4),  # k = 15: the two halves of the split differ in size
        ("prm2", 3, 1),
        ("prm2", 3, 2),
        ("prm2", 4, 1),
        ("prm2", 5, 1),
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


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (4, 2), (5, 2), (7, 2), (3, 4), (9, 2)])
def test_coset_assembly_agrees_with_table(q, m):
    assert coset_assembled_distribution(q, m).entries == rm2_distribution(q, m).entries


def test_coset_assembly_rejects_binary():
    with pytest.raises(UnsupportedParameters):
        coset_assembled_distribution(2, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_prm_is_scaled_hrm(q, m):
    prm = prm2_distribution(q, m)
    hrm = hrm2_distribution(q, m + 1)
    assert {w // (q - 1): f for w, f in hrm.entries.items()} == prm.entries


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
        tag = {"plus": 1, "minus": -1}.get(label)
        if label in ("untyped", "odd_total"):
            tag = None if q % 2 == 0 else 1  # odd-rank zero count ignores the type
        w = q ** m - zero_count_formula(rank, tag, q, m)
        rebuilt[w] = rebuilt.get(w, 0) + count
    rebuilt = {w: f for w, f in rebuilt.items() if f}
    assert rebuilt == wd.entries


def test_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_distribution("rm2", 3, 3, max_symbols=1000)


def test_enumerator_formatting():
    assert format_enumerator({0: 1}) == "1"
    assert format_enumerator({0: 1, 5: 1}) == "1 + Z^5"
    assert format_enumerator({0: 1, 3: 7, 5: 1}) == "1 + 7*Z^3 + Z^5"
    assert format_enumerator({}) == "0"


def test_affine_points_order():
    f = field_new(3)
    pts = affine_points(f, 2)
    assert pts[0] == (0, 0)
    assert pts[1] == (0, 1)  # leftmost coordinate most significant
    assert pts[3] == (1, 0)
    assert len(pts) == 9


@pytest.mark.parametrize("q,nv", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_projective_points_invariants(q, nv):
    fld = field_new(2, 2) if q == 4 else field_new(q)
    pts = projective_points(fld, nv)
    assert len(pts) == (q ** nv - 1) // (q - 1)
    for x in pts:
        assert next(c for c in x if c) == 1
    # no two representatives are scalar multiples
    seen = set()
    for x in pts:
        for lam in range(1, q):
            scaled = tuple(fld.mul(lam, c) for c in x)
            assert scaled not in seen
        seen.add(x)
    assert list(pts) == sorted(pts)
