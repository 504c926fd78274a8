"""Exact arithmetic for quadratic forms over small finite fields and the
weight distributions of second-order evaluation codes, with brute-force
oracles backing every closed formula."""

from .census import (
    CensusTable,
    census_exhaustive,
    census_formula,
    count_even_rank,
    count_odd_rank,
)
from .codes import (
    CodeParameters,
    WeightDistribution,
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
from .field import FiniteField, field_from_order, field_new
from .forms import (
    TYPE_LABELS,
    QuadraticForm,
    RankType,
    admissible_tags,
    canonical_form,
    classify,
    validate_rank_type,
    zero_count_exhaustive,
    zero_count_formula,
)
from .spectra import (
    CosetQuery,
    SpectrumMultiset,
    constant_classes,
    coset_weight_multiset,
    merged_oracle,
    spectrum_formula,
    spectrum_merged,
    spectrum_oracle,
)

__version__ = "0.1.0"
