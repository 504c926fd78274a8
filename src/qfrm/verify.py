"""Formula-versus-oracle comparison runners.

Each check returns CheckResult records; the CLI prints one PASS/FAIL line
per record and tests assert on them. Cases that would blow an
enumeration budget are reported as skipped, never as failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import DEFAULT_EVAL_BUDGET, census_exhaustive, census_formula
from .codes import (
    DEFAULT_SYMBOL_BUDGET,
    brute_force_distribution,
    coset_assembled_distribution,
    code_parameters,
    distribution,
    hrm2_distribution,
    prm2_distribution,
    rm2_distribution,
)
from .errors import BudgetExceeded, UnsupportedParameters
from .field import field_from_order
from .forms import admissible_tags, canonical_form
from .spectra import (
    DEFAULT_ORACLE_BUDGET,
    CosetQuery,
    SpectrumMultiset,
    constant_classes,
    merged_oracle,
    oracle_constants,
    spectrum_formula,
    spectrum_merged,
    spectrum_oracle,
)

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


def check_census(q, m, max_evals=DEFAULT_EVAL_BUDGET):
    name = f"census q={q} m={m}"
    try:
        exhaustive = census_exhaustive(q, m, max_evals=max_evals)
    except BudgetExceeded as exc:
        return [CheckResult(name, True, str(exc), skipped=True)]
    formula = census_formula(q, m)
    ok = formula.entries == exhaustive.entries
    detail = f"{q ** (m * (m + 1) // 2)} forms classified"
    if not ok:
        detail = f"formula {formula.entries} vs oracle {exhaustive.entries}"
    return [CheckResult(name, ok, detail)]


def check_spectra(q, m, max_evals=DEFAULT_ORACLE_BUDGET):
    results = []
    fld = field_from_order(q)
    for rank in range(0, m + 1):
        classes = constant_classes(q, rank)
        for tag in admissible_tags(q, rank):
            form = None  # built only once a class fits the budget
            parts = []
            for c_class in classes + ("all",):
                label = "merged" if c_class == "all" else c_class
                name = f"spectra q={q} m={m} r={rank} t={tag} class={label}"
                try:
                    oracle_constants(fld, m, c_class, max_evals)
                except BudgetExceeded as exc:
                    results.append(CheckResult(name, True, str(exc), skipped=True))
                    continue
                if form is None:
                    form = canonical_form(fld, m, rank, tag)
                if c_class == "all":
                    merged = spectrum_merged(q, m, rank, tag)
                    ok = merged.entries == merged_oracle(form, max_evals=max_evals).entries
                    if len(parts) == len(classes):
                        ok = ok and SpectrumMultiset.merge(parts).entries == merged.entries
                    results.append(CheckResult(name, ok))
                    continue
                oracle = spectrum_oracle(form, c_class, max_evals=max_evals)
                parts.append(oracle)
                formula = spectrum_formula(CosetQuery(q, m, rank, tag, c_class))
                results.append(CheckResult(name, formula.entries == oracle.entries))
    return results


def check_codes(q, m, max_symbols=DEFAULT_SYMBOL_BUDGET):
    results = []
    for family in ("rm2", "hrm2", "prm2"):
        name = f"codes {family} q={q} m={m} formula=brute"
        try:
            formula = distribution(family, q, m)
        except UnsupportedParameters as exc:  # e.g. binary rm2 with m < 2
            results.append(CheckResult(name, True, f"not defined: {exc}", skipped=True))
            continue
        try:
            brute = brute_force_distribution(family, q, m, max_symbols=max_symbols)
        except BudgetExceeded as exc:
            results.append(CheckResult(name, True, str(exc), skipped=True))
            continue
        results.append(CheckResult(name, formula.entries == brute.entries))
    if q > 2 and m >= 1:
        name = f"codes rm2 q={q} m={m} formula=assembled"
        assembled = coset_assembled_distribution(q, m)
        results.append(CheckResult(name, assembled.entries == rm2_distribution(q, m).entries))
    name = f"codes prm2 q={q} m={m} = hrm2/(q-1)"
    try:
        prm = prm2_distribution(q, m)
    except UnsupportedParameters as exc:  # prm2 with m < 1
        results.append(CheckResult(name, True, f"not defined: {exc}", skipped=True))
        return results
    hrm = hrm2_distribution(q, m + 1)
    scaled = {w // (q - 1): f for w, f in hrm.entries.items()}
    results.append(CheckResult(name, scaled == prm.entries))
    return results


def run_verification(
    scope: str,
    pairs=None,
    max_points=DEFAULT_ORACLE_BUDGET,
    max_symbols=DEFAULT_SYMBOL_BUDGET,
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
            results += check_codes(q, m, max_symbols=max_symbols)
    return results
