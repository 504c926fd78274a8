"""Acceptance gate: eight criteria, one pass/fail line printed per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every comparison is exact; the per-criterion wall-clock limits are
asserted as stated.
"""

import random
import time
from contextlib import contextmanager

from algebra import random_invertible, substitute

from qfrm.codes import (
    brute_force_distribution,
    coset_assembled_distribution,
    distribution,
    hrm2_distribution,
    prm2_distribution,
    rm2_distribution,
    weight_enumerator_text,
)
from qfrm.field import field_from_order
from qfrm.forms import QuadraticForm, classify, triangle_size
from qfrm.verify import check_census, check_spectra

GOLDEN = {
    ("rm2", 2, 7): (
        "1 + 10668*Z^32 + 5291328*Z^48 + 112881664*Z^56 + 300503590*Z^64 + "
        "112881664*Z^72 + 5291328*Z^80 + 10668*Z^96 + Z^128"
    ),
    ("rm2", 3, 4): (
        "1 + 240*Z^27 + 14040*Z^36 + 519480*Z^45 + 1705860*Z^48 + 2729376*Z^51 + "
        "4062720*Z^54 + 3411720*Z^57 + 1364688*Z^60 + 533520*Z^63 + 7020*Z^72 + 242*Z^81"
    ),
    ("hrm2", 3, 4): "1 + 1560*Z^36 + 21060*Z^48 + 18800*Z^54 + 16848*Z^60 + 780*Z^72",
    ("prm2", 3, 4): "1 + 14520*Z^54 + 2548260*Z^72 + 9740258*Z^81 + 2038608*Z^90 + 7260*Z^108",
}

CENSUS_GRID = [(2, m) for m in range(1, 6)] + [(3, m) for m in range(1, 4)] + [
    (4, 1), (4, 2), (5, 1), (5, 2),
]
SPECTRA_GRID = [(q, m) for q in (2, 3, 4, 5) for m in (1, 2, 3)]
CODES_GRID = [(3, 2), (3, 3), (4, 2), (5, 2), (2, 4), (2, 5)]
SWEEP = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9) for m in range(1, 7)]


@contextmanager
def criterion(number, label, limit_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number} PASS: {label} ({elapsed:.2f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded its runtime limit"


def test_criterion_1_golden_enumerators():
    with criterion(1, "golden enumerators byte-exact", 4 * 1.0):
        for (family, q, m), expected in GOLDEN.items():
            start = time.time()
            text = weight_enumerator_text(distribution(family, q, m))
            assert text == expected, (family, q, m)
            assert time.time() - start < 1.0


def test_criterion_2_census_oracle_equivalence():
    with criterion(2, "census formula = exhaustive census", 120):
        for q, m in CENSUS_GRID:
            results = check_census(q, m)
            assert all(r.passed and not r.skipped for r in results), (q, m, results)


def test_criterion_3_spectrum_oracle_equivalence():
    with criterion(3, "coset spectra formula = oracle, every class", 120):
        for q, m in SPECTRA_GRID:
            results = check_spectra(q, m)
            assert results, (q, m)
            assert all(r.passed and not r.skipped for r in results), (q, m, results)


def test_criterion_4_triple_agreement():
    with criterion(4, "rm2 table = coset assembly = brute force", 300):
        for q, m in CODES_GRID:
            table = rm2_distribution(q, m)
            brute = brute_force_distribution("rm2", q, m)
            assert table.entries == brute.entries, (q, m)
            if q > 2:
                assembled = coset_assembled_distribution(q, m)
                assert assembled.entries == table.entries, (q, m)


def test_criterion_5_mass_and_distance_invariants():
    with criterion(5, "mass, unit leading coefficient, minimum distance", 10):
        for q, m in SWEEP:
            for family in ("rm2", "hrm2", "prm2"):
                if family == "rm2" and q == 2 and m < 2:
                    continue
                wd = distribution(family, q, m)
                assert wd.entries[0] == 1
                assert sum(wd.entries.values()) == q ** wd.params.k
                assert min(w for w in wd.entries if w > 0) == wd.params.d


def test_criterion_6_prm_hrm_scaling():
    with criterion(6, "projective table = homogeneous table / (q-1)", 30):
        for q in (2, 3, 4, 5):
            for m in range(1, 5):
                prm = prm2_distribution(q, m)
                hrm = hrm2_distribution(q, m + 1)
                scaled = {}
                for w, f in hrm.entries.items():
                    assert w % (q - 1) == 0
                    scaled[w // (q - 1)] = f
                assert scaled == prm.entries, (q, m)


def test_criterion_7_classification_equivalence_invariance():
    with criterion(7, "classify invariant under random substitutions", 60):
        rng = random.Random(20260809)
        for q, m in [(2, 4), (3, 3), (5, 2)]:
            field = field_from_order(q)
            size = triangle_size(m)
            for _ in range(100):
                form = QuadraticForm(field, m, tuple(rng.randrange(q) for _ in range(size)))
                expected = classify(form)
                for _ in range(10):
                    sub = random_invertible(rng, field, m)
                    assert classify(substitute(form, sub)) == expected, (q, m)


def test_criterion_8_rm2_table_checks_never_fire():
    # the rm2 builder raises InternalInconsistency if a class's coset rows are
    # negative or miss q^(m+1), or if the table misses its q^k mass, its first
    # power moment or its minimum weight; sweeping the full criterion-5 grid
    # must construct every table without that error
    with criterion(8, "rm2 table checks silent across the sweep", 10):
        for q, m in SWEEP:
            if q == 2:
                if m >= 2:
                    rm2_distribution(q, m)
            else:
                rm2_distribution(q, m)
