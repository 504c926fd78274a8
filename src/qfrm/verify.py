"""Formula-versus-oracle comparison runners.

Each check returns CheckResult records; the CLI prints one PASS/FAIL line
per record and tests assert on them. Cases that would blow an
enumeration budget are reported as skipped, never as failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import census_exhaustive, census_formula
from .codes import (
    DEFAULT_STEP_BUDGET,
    brute_force_distribution,
    coset_assembled_distribution,
    distribution,
    hrm2_distribution,
)
# rm2_distribution and prm2_distribution stay importable here: perfbench/tracing.py
# wraps them under this module's name
from .codes import prm2_distribution, rm2_distribution  # noqa: F401
from .errors import BudgetExceeded, UnsupportedParameters, admit
from .field import field_from_order
from .forms import admissible_tags, affine_shift_steps, canonical_form
from .spectra import (
    DEFAULT_ORACLE_BUDGET,
    CosetQuery,
    class_tally,
    constant_classes,
    merged_oracle,
    shift_tallies,
    spectrum_formula,
    spectrum_merged,
)
# spectrum_oracle stays importable here: perfbench/tracing.py wraps it under
# this module's name
from .spectra import spectrum_oracle  # noqa: F401

CENSUS_GRID = tuple(
    [(2, m) for m in range(1, 6)]
    + [(3, m) for m in range(1, 4)]
    + [(4, m) for m in range(1, 3)]
    + [(5, m) for m in range(1, 3)]
)
SPECTRA_GRID = tuple((q, m) for q in (2, 3, 4, 5) for m in (1, 2, 3))
CODES_GRID = ((3, 2), (3, 3), (4, 2), (5, 2), (2, 4), (2, 5))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


def check_census(q, m):
    name = f"census q={q} m={m}"
    try:
        exhaustive = census_exhaustive(q, m)
    except BudgetExceeded as exc:
        return [CheckResult(name, True, str(exc), skipped=True)]
    formula = census_formula(q, m)
    ok = formula.entries == exhaustive.entries
    detail = f"{q ** (m * (m + 1) // 2)} forms classified"
    if not ok:
        detail = f"formula {formula.entries} vs oracle {exhaustive.entries}"
    return [CheckResult(name, ok, detail)]


def check_spectra(q, m, max_evals=DEFAULT_ORACLE_BUDGET):
    # every form of (q, m) costs one transform: the pair is admitted whole,
    # or refused whole before any form is built, and its forms are
    # transformed in one batch, whose kept tallies merged_oracle reads
    fld = field_from_order(q)
    cases = [(rank, tag) for rank in range(m + 1) for tag in admissible_tags(q, rank)]

    def name(rank, tag, label):
        return f"spectra q={q} m={m} r={rank} t={tag} class={label}"

    try:
        admit(affine_shift_steps(q, m), max_evals, "transform steps per form")
    except BudgetExceeded as exc:
        return [
            CheckResult(name(rank, tag, label), True, str(exc), skipped=True)
            for rank, tag in cases
            for label in constant_classes(q, rank) + ("merged",)
        ]
    forms = [canonical_form(fld, m, rank, tag) for rank, tag in cases]
    results = []
    for (rank, tag), form, tallies in zip(cases, forms, shift_tallies(forms)):
        for c_class in constant_classes(q, rank):
            oracle = class_tally(form, tallies, c_class)
            formula = spectrum_formula(CosetQuery(q, m, rank, tag, c_class))
            results.append(CheckResult(name(rank, tag, c_class), formula.entries == oracle.entries))
        merged = spectrum_merged(q, m, rank, tag).entries
        ok = merged == merged_oracle(form, max_evals=max_evals).entries
        results.append(CheckResult(name(rank, tag, "merged"), ok))
    return results


def check_codes(q, m, max_steps=DEFAULT_STEP_BUDGET):
    # each family's closed-form table is built once; the assembled and
    # hrm2/(q-1) lines read it, or the reason it is undefined
    results = []
    tables, undefined = {}, {}
    for family in ("rm2", "hrm2", "prm2"):
        name = f"codes {family} q={q} m={m} formula=brute"
        try:
            tables[family] = formula = distribution(family, q, m)
        except UnsupportedParameters as exc:  # e.g. binary rm2 with m < 2
            undefined[family] = f"not defined: {exc}"
            results.append(CheckResult(name, True, undefined[family], skipped=True))
            continue
        try:
            brute = brute_force_distribution(family, q, m, max_steps=max_steps)
        except BudgetExceeded as exc:
            results.append(CheckResult(name, True, str(exc), skipped=True))
            continue
        results.append(CheckResult(name, formula.entries == brute.entries))
    if q > 2 and m >= 1:
        name = f"codes rm2 q={q} m={m} formula=assembled"
        assembled = coset_assembled_distribution(q, m)
        results.append(CheckResult(name, assembled.entries == tables["rm2"].entries))
    name = f"codes prm2 q={q} m={m} = hrm2/(q-1)"
    if "prm2" in undefined:  # prm2 with m < 1
        results.append(CheckResult(name, True, undefined["prm2"], skipped=True))
        return results
    hrm = hrm2_distribution(q, m + 1)
    scaled = {w // (q - 1): f for w, f in hrm.entries.items()}
    results.append(CheckResult(name, scaled == tables["prm2"].entries))
    return results


def run_verification(
    scope: str,
    pairs=None,
    max_points=DEFAULT_ORACLE_BUDGET,
    max_steps=DEFAULT_STEP_BUDGET,
):
    """Run the requested scope over (q, m) pairs (defaults per scope)."""
    results = []
    if scope in ("census", "all"):
        for q, m in pairs or CENSUS_GRID:
            results += check_census(q, m)
    if scope in ("spectra", "all"):
        for q, m in pairs or SPECTRA_GRID:
            results += check_spectra(q, m, max_evals=max_points)
    if scope in ("codes", "all"):
        for q, m in pairs or CODES_GRID:
            results += check_codes(q, m, max_steps=max_steps)
    return results
