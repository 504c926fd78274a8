"""The form-class rule, which type tags a rank carries and which constant
classes a coset query of that rank splits into, against every layer that
reads it: validation, classify, CosetQuery and the census."""

import itertools

import pytest

from qfrm.census import census_formula
from qfrm.errors import InconsistentQuery, InconsistentRankType
from qfrm.field import field_from_order
from qfrm.forms import (
    TYPE_LABELS,
    QuadraticForm,
    admissible_tags,
    canonical_form,
    classify,
    triangle_size,
    validate_rank_type,
)
from qfrm.spectra import CosetQuery, constant_classes

C_CLASSES = ("zero", "square", "nonsquare", "nonzero")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_every_layer_reads_one_class_rule(q):
    fld = field_from_order(q)
    for m in range(5):
        for rank in range(-1, m + 2):
            for tag in (1, -1, None):
                admissible = 0 <= rank <= m and tag in admissible_tags(q, rank)
                try:
                    validate_rank_type(q, m, rank, tag)
                except InconsistentRankType:
                    assert not admissible, (m, rank, tag)
                    continue
                assert admissible, (m, rank, tag)
                rt = classify(canonical_form(fld, m, rank, tag))
                assert (rt.rank, rt.type_tag, rt.label) == (rank, tag, TYPE_LABELS[tag])
                for c_class in C_CLASSES:
                    try:
                        CosetQuery(q, m, rank, tag, c_class)
                        accepted = True
                    except InconsistentQuery:
                        accepted = False
                    assert accepted == (c_class in constant_classes(q, rank)), (m, rank, c_class)
        census = census_formula(q, m).entries
        for rank in range(m + 1):
            labels = {TYPE_LABELS[t] for t in admissible_tags(q, rank)}
            if q % 2 and rank % 2:
                labels = {"odd_total"}  # the census merges the two types here
            assert {lbl for r, lbl in census if r == rank} == labels, (m, rank)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_admissible_tags_are_the_classes_that_occur(q):
    # up to m = 2 every form is classified, which reaches rank 0, an odd and
    # an even rank: the rule must name exactly the classes that occur
    fld = field_from_order(q)
    for m in range(3):
        seen = {
            (rt.rank, rt.type_tag)
            for coeffs in itertools.product(range(q), repeat=triangle_size(m))
            for rt in [classify(QuadraticForm(fld, m, coeffs))]
        }
        assert seen == {(r, t) for r in range(m + 1) for t in admissible_tags(q, r)}
